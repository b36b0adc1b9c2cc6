"""Exception types shared across the package."""


class DickeLabError(Exception):
    """Base class for all package errors."""


class ConfigError(DickeLabError):
    """Invalid run configuration (bad file, missing fields, bad grids)."""


class DimensionCapError(DickeLabError):
    """A requested Hilbert-space dimension exceeds the configured cap."""


class AboveThresholdError(DickeLabError):
    """Analytic steady-state branch requested at or above the critical drive.

    The mean-field/linearized results only exist below the critical drive;
    the exact numerical solver has no such restriction.
    """

    def __init__(self, ratio, message=None):
        self.ratio = ratio
        if message is None:
            message = (
                f"drive ratio |Omega|/Omega_c = {ratio:.6g} is outside the "
                "below-threshold branch of the analytic solution"
            )
        super().__init__(message)

    def __reduce__(self):
        # the default rebuilds from args, which hold only the message
        return type(self), (self.ratio, str(self))


class SolverError(DickeLabError):
    """Base class for steady-state / propagation failures."""


class NonUniqueSteadyState(SolverError):
    """The Liouvillian null space appears to be more than one dimensional."""


class NoConvergence(SolverError):
    """Iteration or integration budget exhausted before reaching tolerance."""
