"""Driven Dicke superradiance: exact collective-spin Lindblad numerics,
closed-form mean-field and fluctuation analytics, and the cross-checks
between the two.

The public names below, and the submodules that define them, are loaded
on first use (PEP 562), so importing the package loads no numpy:
``dicke-lab`` and ``python -m dickelab.cli`` import it before ``cli`` picks
the OpenBLAS thread count.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports through the package
_EXPORTS = {
    "errors": (
        "AboveThresholdError",
        "ConfigError",
        "DickeLabError",
        "DimensionCapError",
        "NoConvergence",
        "NonUniqueSteadyState",
        "SolverError",
    ),
    "lindblad": (
        "DensityMatrix",
        "Liouvillian",
        "SteadyStateOptions",
        "SteadyStateSolveReport",
        "build_liouvillian",
        "expect",
        "steady_state",
        "time_evolve",
        "trace_distance",
    ),
    "models": (
        "CavityModel",
        "DickeModel",
        "EliminationReport",
        "build_cavity_model",
        "build_dicke_model",
        "default_fock_cutoff",
        "mean_field_amplitude",
        "resonant_steady_state",
        "validate_elimination",
    ),
    "observables": (
        "FieldComposition",
        "FieldSqueezingResult",
        "HPFluctuationSolution",
        "SpectrumResult",
        "SpinMoments",
        "field_composition",
        "field_squeezing_analytic",
        "g2_zero",
        "hp_moments",
        "hp_moments_numeric",
        "output_spectrum",
        "spin_moments",
        "spin_squeezing_analytic",
        "spin_squeezing_numeric",
    ),
    "operators": (
        "FockRep",
        "SpinRep",
        "build_fock_operators",
        "build_spin_operators",
        "tensor",
    ),
    "parameters": (
        "BlochAngles",
        "CavityParams",
        "EffectiveParams",
        "angles_from_mean_spin",
        "bloch_angles",
        "cavity_params_for_effective",
        "critical_drive",
        "map_cavity_to_effective",
        "mean_field_steady_state",
        "mean_spin_vector",
        "rotation_matrix",
    ),
    "sweep": ("RunConfig", "SweepResult", "reproduce_figures", "run", "run_and_write"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
