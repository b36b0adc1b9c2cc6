"""Module boundaries of the package: a module uses only the public names of
its siblings, so each policy (the BLAS thread scope of ``lindblad``, say)
stays behind the module that holds it."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dickelab"


def test_no_module_imports_a_private_name_of_a_sibling():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                private += [f"{path.name}: from .{node.module} import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []
