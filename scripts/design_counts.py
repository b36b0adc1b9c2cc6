"""Source lines and settable values of one or more checkouts.

    python scripts/design_counts.py [ROOT ...]

ROOT defaults to the checkout holding this script. For each checkout it
prints the line count of every module in ``src/dickelab`` and their total,
the line total of ``scripts/*.py``, the number of settable values
(the parameters with a default of every function, and every method
(dataclass ``__init__`` included), defined in the package, as
``inspect.signature`` reports them), and the number of public package
names (``len(dickelab.__all__)``; ``-`` without one). The package is
imported in a fresh interpreter with PYTHONPATH set to the checkout's
``src``, so two checkouts never share a module cache.
"""

from __future__ import annotations

import argparse
import glob
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# run in the fresh interpreter: the report rows of the defaulted parameters
# and of the public package names
_COUNTS = """
import importlib, inspect, pkgutil
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
print(f"  {'settable values':<16}{count:>6}")
print(f"  {'public names':<16}{len(getattr(dickelab, '__all__', ())) or '-':>6}")
"""


def package_counts(root: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", _COUNTS], env=env, cwd=root,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def module_lines(directory: str) -> dict:
    lines = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines[os.path.basename(path)] = sum(1 for _ in fh)
    return lines


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
        print(package_counts(root), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
