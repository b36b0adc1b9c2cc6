"""Steady-state observables, computed two ways wherever possible: exact
numerics from the density matrix and closed forms from the linearized
fluctuation theory.

Every numeric observable is algebra on one record of low spin moments,
which :func:`spin_moments` reads from diagonals 0-2 of a Dicke-basis state.

The fluctuation analysis lives in the rotated frame whose -z' axis is the
mean spin direction. Spin fluctuations map onto a bosonic mode a through
J'_- ~ sqrt(N) a, J'_z ~ a^dag a - N/2; the stationary solution mixes the
filtered vacuum noise B and its conjugate with Bogoliubov weights
(1 +- cos theta)/2. For the radiated field the two weights recombine so
that only the lowering-type noise survives, which is why the output light
stays coherent while the spins squeeze.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AboveThresholdError
# steady_state is not used here; it stays importable at this name because
# the benchmark's tracer wraps observables.steady_state
from .lindblad import DensityMatrix, steady_state, two_time_correlator  # noqa: F401

# build_spin_operators is not used here; it stays importable at this name
# because the benchmark's tracer wraps observables.build_spin_operators
from .operators import SpinRep, build_spin_operators, ladder_amplitudes  # noqa: F401
from .parameters import (
    CRITICAL_RATIO_GUARD,
    BlochAngles,
    CavityParams,
    EffectiveParams,
    angles_from_mean_spin,
    bloch_angles,
    rotation_matrix,
)


@dataclass(frozen=True)
class SpinMoments:
    """Low moments of the collective spin in one state: <J_z>, <J_z^2>,
    <J_->, <J_z J_->, <J_+J_->, <J_-^2> and <J_+^2 J_-^2>, and the dipole
    fluctuations var(J_-) = <J_+J_-> - |<J_->|^2 (``var_jm``) and
    <J_-^2> - <J_->^2 (``anom_jm``). The fluctuations are formed only in
    :func:`spin_moments`; every caller reads them from this record."""

    jz: float
    jz2: float
    jm: complex
    jz_jm: complex
    jp_jm: float
    jm2: complex
    jp2_jm2: float
    var_jm: float
    anom_jm: complex

    @property
    def coherence_ratio(self) -> float:
        """|<J_->|^2 / <J_+J_->, the coherently scattered fraction.

        NaN for a state that does not emit at all."""
        if self.jp_jm == 0.0:
            return float("nan")
        return abs(self.jm) ** 2 / self.jp_jm

    @property
    def mean_spin(self) -> np.ndarray:
        """(<J_x>, <J_y>, <J_z>), from J_- = J_x - i J_y."""
        return np.array([self.jm.real, -self.jm.imag, self.jz])

    @property
    def second_moments(self) -> np.ndarray:
        """<J_a J_b>, a, b in (x, y, z): the symmetrized part (from
        J_-J_+ = J_+J_- - 2 J_z and J_-J_z = J_zJ_- + J_-) plus the
        commutator [J_a, J_b]/2 = (i/2) eps_abc J_c."""
        jx, jy, jz = self.mean_spin
        xx, yy = 0.5 * (self.jp_jm - jz + self.jm2.real), 0.5 * (self.jp_jm - jz - self.jm2.real)
        xy, xz, yz = -0.5 * self.jm2.imag, self.jz_jm.real + 0.5 * jx, -self.jz_jm.imag + 0.5 * jy
        sym = np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, self.jz2]])
        return sym + 0.5j * np.array([[0.0, jz, -jy], [-jz, 0.0, jx], [jy, -jx, 0.0]])


@dataclass(frozen=True)
class HPFluctuationSolution:
    """Stationary bosonic fluctuation data around the mean spin.

    ``bogoliubov_plus/minus`` are the (1 +- cos theta)/2 weights of the
    integrated noise B and B^dag; ``relaxation_rate`` and
    ``oscillation_frequency`` describe the B kernel, N cos(theta) (gamma/2
    resp. Delta). Moments are dimensionless occupations of the mode a.
    """

    angles: BlochAngles
    bogoliubov_plus: float
    bogoliubov_minus: float
    occupation: float
    anomalous_magnitude: float
    relaxation_rate: float | None = None
    oscillation_frequency: float | None = None

    @property
    def squeezing_reconstructed(self) -> float:
        """1 + 2<a^dag a> - 2|<a^2>|, the bosonic route to the squeezing."""
        return 1.0 + 2.0 * self.occupation - 2.0 * self.anomalous_magnitude


@dataclass(frozen=True)
class FieldComposition:
    """Mean and fluctuation structure of the field leaving the cavity.

    chi is the cavity linear response, G the dipole-to-detector coupling.
    The outgoing mean splits into a free (atom-less) part and the part
    scattered off the collective dipole; the fluctuating part carries the
    coefficients ``vacuum_coefficient`` on the input vacuum and
    ``b_coefficient`` on the integrated noise B. ``vacuum_level`` is the
    white-noise normalization (kappa) used by squeezing measures.
    """

    chi: complex
    G: complex
    input_mean: complex
    free_mean: complex
    scattered_mean: complex
    mean_field_out: complex
    vacuum_coefficient: complex
    b_coefficient: complex
    vacuum_level: float
    angles: BlochAngles
    n_atoms: int


@dataclass(frozen=True)
class FieldSqueezingResult:
    """Quadrature-noise verdict for the radiated field.

    At linear order both fluctuation channels of the output are
    lowering-type, so the normally ordered flux and the anomalous
    correlator vanish and the squeezing parameter is exactly one.
    ``b_dagger_coefficient`` is the computed weight of the raising noise
    component; its cancellation is the whole story.
    """

    value: float
    b_dagger_coefficient: complex
    normally_ordered_flux: float
    anomalous_magnitude: float


@dataclass(frozen=True)
class SpectrumResult:
    """Output-light spectrum split into its delta-peak and broadband parts."""

    omega: np.ndarray
    incoherent_spectrum: np.ndarray
    coherent_weight: float
    incoherent_weight: float
    coherence_ratio: float
    tau: np.ndarray
    correlator: np.ndarray
    correlator_decayed: bool


def spin_moments(rho: DensityMatrix, rep: SpinRep) -> SpinMoments:
    """The moments record of a Dicke-basis state, in O(D). With a_i the
    ladder amplitudes, J_z, J_+J_- and J_+^2 J_-^2 are diagonal, J_- and
    J_z J_- sit on the first superdiagonal and J_-^2 on the second, so
    tr(A rho) reads the opposite band of rho: <J_-> = sum_i a_i rho[i+1, i],
    <J_-^2> = sum_i a_i a_{i+1} rho[i+2, i]."""
    mat = rho.matrix
    if mat.shape[0] != rep.dim:
        raise ValueError(f"dimension mismatch: spin {rep.dim}, state {mat.shape[0]}")
    m = rep.m_values
    amp = ladder_amplitudes(rep)
    pairs = amp[:-1] * amp[1:]
    pop = mat.diagonal().real
    lowered = amp * mat.diagonal(-1)
    jm = complex(lowered.sum())
    jp_jm = float((amp * amp) @ pop[1:])
    jm2 = complex(pairs @ mat.diagonal(-2))
    return SpinMoments(
        jz=float(m @ pop),
        jz2=float((m * m) @ pop),
        jm=jm,
        jz_jm=complex(m[:-1] @ lowered),
        jp_jm=jp_jm,
        jm2=jm2,
        jp2_jm2=float((pairs * pairs) @ pop[2:]),
        var_jm=jp_jm - abs(jm) ** 2,
        anom_jm=jm2 - jm * jm,
    )


def _rotated_frame(mom: SpinMoments) -> tuple:
    """R^T <J> and R^T <J_a J_b> R: the mean spin and the second moments in
    the frame whose -z' axis is the mean spin (R's columns are its axes)."""
    means = mom.mean_spin
    rot = rotation_matrix(angles_from_mean_spin(*means))
    return rot.T @ means, rot.T @ mom.second_moments @ rot


def spin_squeezing_numeric(rho: DensityMatrix, rep: SpinRep, ops=None) -> float:
    """Squeezing parameter N min-transverse-variance / |<J>|^2 from a state.

    The mean direction is taken from the state itself, two orthonormal
    transverse axes are built from it, and the minimization over the
    transverse angle is the closed-form smaller eigenvalue of the 2x2
    symmetrized covariance matrix. ``ops`` is not used; it stays because
    the benchmark's tracer calls ``spin_squeezing_numeric(rho, rep, ops)``.
    """
    mom = spin_moments(rho, rep)
    length = float(np.linalg.norm(mom.mean_spin))
    if length < 1e-9 * rep.n_atoms:
        raise ValueError(
            "mean spin vector vanishes; squeezing direction undefined "
            "(near- or above-threshold state)"
        )
    means, second = _rotated_frame(mom)
    cov = second.real[:2, :2] - np.outer(means[:2], means[:2])
    v1, v2, cross = cov[0, 0], cov[1, 1], cov[0, 1]
    lam_min = 0.5 * (v1 + v2) - math.sqrt(0.25 * (v1 - v2) ** 2 + cross * cross)
    return rep.n_atoms * lam_min / length**2


def spin_squeezing_analytic(e: EffectiveParams) -> float:
    """Closed-form squeezing cos(theta) = sqrt(1 - |Omega|^2/Omega_c^2)."""
    return bloch_angles(e).cos_theta


def hp_moments(a: BlochAngles, e: EffectiveParams | None = None) -> HPFluctuationSolution:
    """Stationary fluctuation moments of the bosonic mode.

    |<a^2>| = (1 - cos^2 t)/(4 cos t),  <a^dag a> = (1 - cos t)^2/(4 cos t).

    Kernel rate and frequency need the physical parameters; they are left
    unset when ``e`` is not supplied. Diverges towards the critical point,
    where the small-fluctuation expansion fails; guarded accordingly.
    """
    if a.sin_theta > CRITICAL_RATIO_GUARD:
        raise AboveThresholdError(a.sin_theta)
    c = a.cos_theta
    occupation = (1.0 - c) ** 2 / (4.0 * c)
    anomalous = (1.0 - c * c) / (4.0 * c)
    rate = freq = None
    if e is not None:
        rate = e.N * c * e.gamma / 2.0
        freq = e.N * c * e.Delta
    return HPFluctuationSolution(
        angles=a,
        bogoliubov_plus=(1.0 + c) / 2.0,
        bogoliubov_minus=(1.0 - c) / 2.0,
        occupation=occupation,
        anomalous_magnitude=anomalous,
        relaxation_rate=rate,
        oscillation_frequency=freq,
    )


def hp_moments_numeric(rho: DensityMatrix, rep: SpinRep) -> tuple[float, float]:
    """(occupation, |anomalous|) extracted from a state via the rotated frame.

    Rotates with the state's own mean direction, then reads off
    <a^dag a> ~ <J'_+ J'_->/N and |<a^2>| ~ |<J'_- J'_->|/N, with
    J'_-+ = J'_x -+ i J'_y.
    """
    _, second = _rotated_frame(spin_moments(rho, rep))
    xx, yy, xy, yx = second[0, 0], second[1, 1], second[0, 1], second[1, 0]
    n = rep.n_atoms
    occupation = (xx + yy - 1j * (xy - yx)).real / n
    anomalous = abs(xx - yy - 1j * (xy + yx)) / n
    return occupation, anomalous


def g2_zero(rho: DensityMatrix, rep: SpinRep) -> float:
    """Zero-delay intensity correlation of the dipole-scattered light,
    <J_+J_+J_-J_-> / <J_+J_->^2."""
    mom = spin_moments(rho, rep)
    if mom.jp_jm <= 1e-12 * rep.n_atoms:
        raise ValueError("dipole emission vanishes; g2 undefined for an undriven state")
    return mom.jp2_jm2 / mom.jp_jm**2


def field_composition(p: CavityParams, jminus_mean: complex, a: BlochAngles) -> FieldComposition:
    """Output-field decomposition for a one-sided cavity.

    chi = kappa/(i delta_c - kappa/2) is the cavity response, G = -i g* chi
    the dipole coupling to the outgoing channel. The mean splits into
    -i Omega_L (1 + chi) plus G <J_->; the fluctuations carry (1 + chi) on
    the input vacuum and G N cos(theta) on the integrated noise B.
    """
    chi = p.kappa / (1j * p.delta_c - p.kappa / 2)
    G = -1j * np.conj(p.g) * chi
    input_mean = -1j * p.Omega_L
    free_mean = input_mean * (1 + chi)
    scattered_mean = G * jminus_mean
    return FieldComposition(
        chi=complex(chi),
        G=complex(G),
        input_mean=complex(input_mean),
        free_mean=complex(free_mean),
        scattered_mean=complex(scattered_mean),
        mean_field_out=complex(free_mean + scattered_mean),
        vacuum_coefficient=complex(1 + chi),
        b_coefficient=complex(G * p.N * a.cos_theta),
        vacuum_level=p.kappa,
        angles=a,
        n_atoms=p.N,
    )


def field_squeezing_analytic(fc: FieldComposition) -> FieldSqueezingResult:
    """Bosonic squeezing parameter of the radiated field: identically one.

    The dipole fluctuation transported to the output combines the mode
    weights (cos t +- 1)/2 with the Bogoliubov weights (1 +- cos t)/2 so
    that the raising-noise component cancels exactly; what leaves the
    cavity is vacuum plus a coherent amplitude for any below-threshold
    drive. The computed raising-noise weight is returned as evidence.
    """
    c = fc.angles.cos_theta
    phase = cmath.exp(-2j * fc.angles.phi)
    per_mode = ((c + 1) * (1 - c) + (c - 1) * (1 + c)) / 4.0
    b_dagger = fc.G * fc.n_atoms * phase * per_mode
    return FieldSqueezingResult(
        value=1.0,
        b_dagger_coefficient=complex(b_dagger),
        normally_ordered_flux=0.0,
        anomalous_magnitude=0.0,
    )


def output_spectrum(
    model,
    fc: FieldComposition,
    tau_max: float | None = None,
    n_tau: int = 512,
    *,
    rho_ss: DensityMatrix,
) -> SpectrumResult:
    """Spectrum of the radiated light from the dipole correlator.

    The coherent part is a delta peak at the drive frequency with weight
    |<E>|^2; the broadband part is the transform of
    |G|^2 <dJ_+(0) dJ_-(tau)>, evaluated on a uniform lag grid extended by
    conjugate symmetry. Vacuum-dipole cross terms are dropped: at linear
    order the full normally ordered fluctuation flux vanishes, so the
    dipole term alone bounds the residual. Default tau_max is ten times
    the slowest linearized relaxation time, 10 / (N cos(t) gamma / 2).
    ``rho_ss`` is the steady state of ``model``.
    """
    e = model.effective
    ops = model.ops

    moments = spin_moments(rho_ss, model.rep)
    if tau_max is None:
        rate = e.N * fc.angles.cos_theta * e.gamma / 2.0
        tau_max = 10.0 / rate
    tau = np.linspace(0.0, tau_max, n_tau)

    corr, report = two_time_correlator(model.liouvillian, rho_ss, ops["J_plus"],
                                       ops["J_minus"], tau, full_output=True)

    # a connected start at or below the round-off floor the correlator
    # stops on, eps D <J_+J_->, leaves nothing to resolve
    floor = np.finfo(float).eps * model.liouvillian.dim * moments.jp_jm
    decayed = abs(corr[0]) <= floor or abs(corr[-1]) <= 1e-3 * abs(corr[0])
    if not decayed:
        horizon = ""
        if report.slowest_rate is not None:
            horizon = (
                f"; the slowest decay rate of the projected generator is "
                f"{report.slowest_rate:.3g}, so tau_max ~ "
                f"{math.log(1000.0) / report.slowest_rate:.3g} would reach 1e-3"
            )
        warnings.warn(
            f"dipole correlator only decayed to {abs(corr[-1]):.3e} of "
            f"{abs(corr[0]):.3e} at tau_max = {tau_max:.3g}; spectrum is "
            f"under-resolved{horizon}",
            stacklevel=2,
        )

    dtau = tau[1] - tau[0]
    omega = np.linspace(-np.pi / dtau, np.pi / dtau, 2 * n_tau + 1)
    # one-sided correlator extended by C(-tau) = conj(C(tau)):
    # S(w) = dtau * ( C(0) + 2 Re sum_{k>=1} C(tau_k) e^{i w tau_k} )
    phases = np.exp(1j * np.outer(omega, tau[1:]))
    spectrum = dtau * (corr[0].real + 2.0 * (phases @ corr[1:]).real)
    g2abs = abs(fc.G) ** 2
    spectrum = g2abs * spectrum
    incoherent_weight = float(np.trapezoid(spectrum, omega) / (2 * np.pi))

    return SpectrumResult(
        omega=omega,
        incoherent_spectrum=spectrum,
        coherent_weight=abs(fc.mean_field_out) ** 2,
        incoherent_weight=incoherent_weight,
        coherence_ratio=moments.coherence_ratio,
        tau=tau,
        correlator=corr,
        correlator_decayed=bool(decayed),
    )
