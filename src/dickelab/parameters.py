"""Physical cavity parameters, effective Dicke parameters, and the
mean-field steady state.

All rates are plain numbers in a common rate unit; nothing here fixes the
unit, but the CLI reports everything scaled to the collective emission
rate ``gamma``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AboveThresholdError

# Analytic branches refuse drives this close to the critical point: the
# linearized fluctuation moments diverge like 1/cos(theta) there.
CRITICAL_RATIO_GUARD = 0.999


@dataclass(frozen=True)
class CavityParams:
    """Atom-cavity inputs: coupling g, damping kappa, laser-cavity detuning
    delta_c = w_L - w_c, laser-atom detuning delta = w_L - w_a, drive
    amplitude Omega_L, atom count N.

    The three optical frequencies enter only through the two detunings.
    """

    g: complex
    kappa: float
    delta_c: float
    Omega_L: complex
    N: int
    delta: float = 0.0

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.N < 1:
            raise ValueError(f"need at least one atom, got N={self.N}")

    @property
    def adiabaticity_ratio(self) -> float:
        """kappa / (sqrt(N) |g|), the cavity-elimination quality knob."""
        if self.g == 0:
            return math.inf
        return self.kappa / (math.sqrt(self.N) * abs(self.g))


@dataclass(frozen=True)
class EffectiveParams:
    """Collective emission rate gamma, dipole-dipole shift Delta, effective
    Rabi drive Omega, atom count N, and the laser-atom detuning delta.

    ``delta`` is kept for the numerical engine only; the steady-state
    analytics assume a resonant drive delta = 0.
    """

    gamma: float
    Delta: float
    Omega: complex
    N: int
    delta: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.N < 1:
            raise ValueError(f"need at least one atom, got N={self.N}")

    @property
    def drive_ratio(self) -> float:
        return abs(self.Omega) / critical_drive(self)

    def with_drive_ratio(self, ratio: float, phase: float = 0.0) -> "EffectiveParams":
        """Same parameters with |Omega| set to ``ratio`` times the critical drive."""
        omega = ratio * critical_drive(self) * cmath.exp(1j * phase)
        return EffectiveParams(self.gamma, self.Delta, omega, self.N, self.delta)


@dataclass(frozen=True)
class BlochAngles:
    """Spherical orientation of the mean spin vector, theta in [0, pi/2),
    phi in (-pi, pi]."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta < math.pi / 2):
            raise ValueError(f"theta must lie in [0, pi/2), got {self.theta}")
        if not (-math.pi < self.phi <= math.pi + 1e-12):
            raise ValueError(f"phi must lie in (-pi, pi], got {self.phi}")

    @property
    def cos_theta(self) -> float:
        return math.cos(self.theta)

    @property
    def sin_theta(self) -> float:
        return math.sin(self.theta)


def map_cavity_to_effective(p: CavityParams) -> EffectiveParams:
    """Adiabatic-elimination mapping of cavity inputs to Dicke parameters.

    gamma = |g|^2 kappa / (delta_c^2 + (kappa/2)^2)
    Delta = -|g|^2 delta_c / (delta_c^2 + (kappa/2)^2)
    Omega = -2 g Omega_L / (2 delta_c + i kappa)

    The drive denominator is the cavity response at the laser frequency,
    2*delta_c + i*kappa, i.e. the same pole that builds gamma and Delta.
    """
    denom = p.delta_c**2 + (p.kappa / 2) ** 2
    g2 = abs(p.g) ** 2
    gamma = g2 * p.kappa / denom
    Delta = -g2 * p.delta_c / denom
    Omega = -2 * p.g * p.Omega_L / (2 * p.delta_c + 1j * p.kappa)
    return EffectiveParams(gamma=gamma, Delta=Delta, Omega=Omega, N=p.N, delta=p.delta)


def cavity_params_for_effective(
    e: EffectiveParams, kappa: float, g_phase: float = 0.0
) -> CavityParams:
    """Inverse of :func:`map_cavity_to_effective` for a chosen kappa.

    Fixes delta_c from Delta/gamma = -delta_c/kappa, |g| from gamma, and
    Omega_L from Omega. Useful to embed an effective parameter set in a
    concrete cavity when field observables are wanted.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    delta_c = -kappa * e.Delta / e.gamma
    g_abs = math.sqrt(e.gamma * (delta_c**2 + (kappa / 2) ** 2) / kappa)
    g = g_abs * cmath.exp(1j * g_phase)
    Omega_L = e.Omega * (2 * delta_c + 1j * kappa) / (-2 * g)
    return CavityParams(
        g=g, kappa=kappa, delta_c=delta_c, Omega_L=Omega_L, N=e.N, delta=e.delta
    )


def critical_drive(e: EffectiveParams) -> float:
    """Critical drive Omega_c = (N/4) sqrt(gamma^2 + 4 Delta^2)."""
    return e.N / 4 * math.hypot(e.gamma, 2 * e.Delta)


def _require_below_threshold(e: EffectiveParams) -> float:
    ratio = e.drive_ratio
    if ratio > CRITICAL_RATIO_GUARD:
        raise AboveThresholdError(ratio)
    return ratio


def _require_resonant(e: EffectiveParams):
    if e.delta != 0.0:
        raise ValueError(
            "steady-state analytics assume a resonant drive (delta = 0); "
            f"got delta = {e.delta}"
        )


def _fold_phi(phi: float) -> float:
    phi = math.remainder(phi, 2 * math.pi)
    if phi <= -math.pi:
        phi += 2 * math.pi
    return phi


def mean_field_steady_state(e: EffectiveParams) -> tuple[float, complex]:
    """Below-threshold mean-field fixed point (<J_z>, <J_->).

    <J_z> = -(N/2) sqrt(1 - |Omega|^2/Omega_c^2)
    <J_-> = -Omega / (Delta + i gamma/2)

    Raises AboveThresholdError at or above the critical drive, where this
    stationary branch no longer exists.
    """
    _require_resonant(e)
    ratio = _require_below_threshold(e)
    jz = -(e.N / 2) * math.sqrt(1.0 - ratio**2)
    jm = -e.Omega / (e.Delta + 0.5j * e.gamma)
    return jz, jm


def bloch_angles(e: EffectiveParams) -> BlochAngles:
    """Mean-spin angles: sin(theta) = |Omega|/Omega_c,
    phi = arg(Delta + i gamma/2) - arg(Omega)."""
    _require_resonant(e)
    ratio = _require_below_threshold(e)
    theta = math.asin(min(ratio, 1.0))
    phi = _fold_phi(cmath.phase(e.Delta + 0.5j * e.gamma) - cmath.phase(e.Omega))
    return BlochAngles(theta=theta, phi=phi)


def mean_spin_vector(e: EffectiveParams) -> np.ndarray:
    """Mean spin vector -(N/2)(sin t cos p, sin t sin p, cos t)."""
    a = bloch_angles(e)
    return -(e.N / 2) * np.array(
        [a.sin_theta * math.cos(a.phi), a.sin_theta * math.sin(a.phi), a.cos_theta]
    )


def rotation_matrix(a: BlochAngles) -> np.ndarray:
    """Proper 3x3 rotation taking rotated-frame vectors to the original
    frame. Its columns are the rotated axes in the original basis; its
    transpose (the inverse) takes the mean spin vector to the south pole."""
    ct, st = a.cos_theta, a.sin_theta
    cp, sp_ = math.cos(a.phi), math.sin(a.phi)
    return np.array(
        [
            [ct * cp, -sp_, st * cp],
            [ct * sp_, cp, st * sp_],
            [-st, 0.0, ct],
        ]
    )


def angles_from_mean_spin(jx: float, jy: float, jz: float) -> BlochAngles:
    """Bloch angles of a numerically measured mean spin vector.

    The mean points along -(sin t cos p, sin t sin p, cos t); using the
    measured direction instead of the mean-field one removes the O(1/N)
    angle bias when comparing fluctuations to the linearized theory.
    """
    norm = math.sqrt(jx * jx + jy * jy + jz * jz)
    if norm == 0.0:
        raise ValueError("mean spin vector vanishes; direction undefined")
    ct = -jz / norm
    ct = min(1.0, max(-1.0, ct))
    theta = math.acos(ct)
    if theta >= math.pi / 2:
        raise ValueError(
            "mean spin vector does not point into the lower hemisphere; "
            "the rotated-frame expansion is not applicable"
        )
    phi = math.atan2(-jy, -jx) if (jx != 0.0 or jy != 0.0) else 0.0
    return BlochAngles(theta=theta, phi=_fold_phi(phi))
