"""Source lines and settable values of one or more checkouts.

    python scripts/design_counts.py [ROOT ...]

ROOT defaults to the checkout holding this script. For each checkout it
prints the line count of every module in ``src/dickelab`` and their total,
the line total of ``scripts/*.py``, the number of settable values
(the parameters with a default of every function, and every method
(dataclass ``__init__`` included), defined in the package, as
``inspect.signature`` reports them), the number of public package
names (``len(dickelab.__all__)``; ``-`` without one) and the test-only
names. The package is imported in a fresh interpreter with PYTHONPATH set
to the checkout's ``src``, so two checkouts never share a module cache.

A test-only name is a public name that no code outside ``tests/`` reads:
not a module of ``src/dickelab`` other than ``__init__.py``, and not a
file of ``scripts/`` or ``benchmark/``. A read is a name, an imported
name or an attribute, found by parsing the code, so a docstring or a
comment that names it does not count. The match is by name alone, so an
unrelated object of the same name hides a public one: ``problems.expect``
in ``benchmark/checks.py`` reads as a read of ``dickelab.expect``.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# run in the fresh interpreter: the defaulted parameters and the public
# package names, as one JSON line
_COUNTS = """
import importlib, inspect, json, pkgutil
import dickelab

def functions(obj):
    if inspect.isfunction(obj):
        yield obj
    elif inspect.isclass(obj):
        for member in vars(obj).values():
            member = getattr(member, "__func__", member)
            if inspect.isfunction(member):
                yield member

count = 0
for info in pkgutil.iter_modules(dickelab.__path__):
    module = importlib.import_module("dickelab." + info.name)
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        for func in functions(obj):
            count += sum(p.default is not inspect.Parameter.empty
                         for p in inspect.signature(func).parameters.values())
print(json.dumps({"settable": count, "public": getattr(dickelab, "__all__", None)}))
"""


def package_counts(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", _COUNTS], env=env, cwd=root,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def module_lines(directory: str) -> dict:
    lines = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines[os.path.basename(path)] = sum(1 for _ in fh)
    return lines


def names_read(root: str) -> set:
    """Every name, imported name and attribute read by the package's
    modules (``__init__.py`` aside) and by the Python files of
    ``scripts/`` and ``benchmark/``."""
    paths = [path for path in glob.glob(os.path.join(root, "src", "dickelab", "*.py"))
             if os.path.basename(path) != "__init__.py"]
    for directory in ("scripts", "benchmark"):
        paths += glob.glob(os.path.join(root, directory, "**", "*.py"), recursive=True)
    read = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
    return read


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", default=[os.path.dirname(HERE)],
                        help="checkout roots (default: this checkout)")
    args = parser.parse_args(argv)
    for root in args.roots:
        lines = module_lines(os.path.join(root, "src", "dickelab"))
        print(root)
        for name, count in lines.items():
            print(f"  {name:<16}{count:>6}")
        print(f"  {'total':<16}{sum(lines.values()):>6}")
        print(f"  {'scripts total':<16}"
              f"{sum(module_lines(os.path.join(root, 'scripts')).values()):>6}")
        counts = package_counts(root)
        public = counts["public"] or []
        print(f"  {'settable values':<16}{counts['settable']:>6}")
        print(f"  {'public names':<16}{len(public) or '-':>6}")
        read = names_read(root)
        unread = [name for name in public if name not in read]
        print(f"  {'test-only names':<16}{len(unread):>6}  {' '.join(unread)}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
