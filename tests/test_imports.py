"""Module boundaries of the package: a module uses only the public names of
its siblings, so each policy (the BLAS thread scope of ``lindblad``, say)
stays behind the module that holds it."""

import ast
import importlib
import pathlib

import pytest

import dickelab

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dickelab"


def test_no_module_imports_a_private_name_of_a_sibling():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                private += [f"{path.name}: from .{node.module} import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_package_names_resolve_to_their_submodules():
    # each public name, and each submodule that defines one, is loaded on
    # first use; any other name is an AttributeError
    assert {*dickelab.__all__, *dickelab._EXPORTS} <= set(dir(dickelab))
    for module, names in dickelab._EXPORTS.items():
        submodule = importlib.import_module(f"dickelab.{module}")
        assert getattr(dickelab, module) is submodule
        for name in names:
            assert getattr(dickelab, name) is getattr(submodule, name)
    with pytest.raises(AttributeError):
        dickelab.no_such_name  # noqa: B018


def test_lag_correlator_is_not_exported():
    # the regression correlator's one route is lindblad.correlator_poles;
    # the lag-grid function stays at the one name the benchmark's tracer wraps
    for name in ("two_time_correlator", "PropagationReport"):
        assert name not in dickelab.__all__
        with pytest.raises(AttributeError):
            getattr(dickelab, name)
    assert dickelab.observables.two_time_correlator is dickelab.lindblad.two_time_correlator
