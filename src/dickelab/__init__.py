"""Driven Dicke superradiance: exact collective-spin Lindblad numerics,
closed-form mean-field and fluctuation analytics, and the cross-checks
between the two."""

from .errors import (
    AboveThresholdError,
    ConfigError,
    DickeLabError,
    DimensionCapError,
    NoConvergence,
    NonUniqueSteadyState,
    SolverError,
)
from .lindblad import (
    DensityMatrix,
    Liouvillian,
    PropagationReport,
    SteadyStateOptions,
    SteadyStateSolveReport,
    build_liouvillian,
    expect,
    steady_state,
    time_evolve,
    trace_distance,
    two_time_correlator,
)
from .models import (
    CavityModel,
    DickeModel,
    EliminationReport,
    build_cavity_model,
    build_dicke_model,
    default_fock_cutoff,
    mean_field_amplitude,
    resonant_steady_state,
    validate_elimination,
)
from .observables import (
    FieldComposition,
    FieldSqueezingResult,
    HPFluctuationSolution,
    SpectrumResult,
    SpinMoments,
    field_composition,
    field_squeezing_analytic,
    g2_zero,
    hp_moments,
    hp_moments_numeric,
    output_spectrum,
    spin_moments,
    spin_squeezing_analytic,
    spin_squeezing_numeric,
)
from .operators import (
    FockRep,
    SpinRep,
    build_fock_operators,
    build_spin_operators,
    tensor,
)
from .parameters import (
    BlochAngles,
    CavityParams,
    EffectiveParams,
    angles_from_mean_spin,
    bloch_angles,
    cavity_params_for_effective,
    critical_drive,
    map_cavity_to_effective,
    mean_field_steady_state,
    mean_spin_vector,
    rotation_matrix,
)
from .sweep import RunConfig, SweepResult, reproduce_figures, run, run_and_write

__version__ = "0.1.0"
