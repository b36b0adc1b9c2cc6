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

import math
from typing import NamedTuple

import numpy as np

from .errors import AboveThresholdError
from .lindblad import DensityMatrix, two_time_correlator
# not used here; the benchmark's tracer wraps it at this name
from .lindblad import steady_state  # noqa: F401

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
    critical_drive,
    rotation_matrix,
)


class SpinMoments(NamedTuple):
    """Low moments of the collective spin in one state: <J_z>, <J_z^2>,
    <J_->, <J_z J_->, <J_+J_->, <J_-^2> and <J_+^2 J_-^2>, and the dipole
    fluctuations var(J_-) = <J_+J_-> - |<J_->|^2 (``var_jm``) and
    <J_-^2> - <J_->^2 (``anom_jm``). The fluctuations are formed only in
    :func:`spin_moments`, exactly for the closed-form resonant state;
    every caller reads them from this record."""

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
        """|<J_->|^2 / <J_+J_->, the coherently scattered fraction, as
        1 - var(J_-)/<J_+J_->, so that it is as exact as ``var_jm``.

        NaN for a state that does not emit at all."""
        if self.jp_jm == 0.0:
            return float("nan")
        return 1.0 - self.var_jm / self.jp_jm

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


class HPFluctuationSolution(NamedTuple):
    """Stationary bosonic fluctuation data around the mean spin. Moments are
    dimensionless occupations of the mode a."""

    occupation: float
    anomalous_magnitude: float


class FieldComposition(NamedTuple):
    """The field leaving the cavity: G, the dipole-to-detector coupling,
    and ``mean_field_out``, the mean outgoing amplitude."""

    G: complex
    mean_field_out: complex


class SpectrumResult(NamedTuple):
    """Output-light spectrum split into its delta-peak and broadband parts;
    a ``coherent`` verdict leaves ``incoherent_spectrum`` None."""

    omega: np.ndarray
    incoherent_spectrum: np.ndarray | None
    coherent_weight: float
    incoherent_weight: float
    coherence_ratio: float
    verdict: str


def spin_moments(rho, rep: SpinRep) -> SpinMoments:
    """The moments record of a Dicke-basis state, in O(D). With a_i the
    ladder amplitudes, J_z, J_+J_- and J_+^2 J_-^2 are diagonal, J_- and
    J_z J_- sit on the first superdiagonal and J_-^2 on the second, so
    tr(A rho) reads the opposite band of rho: <J_-> = sum_i a_i rho[i+1, i],
    <J_-^2> = sum_i a_i a_{i+1} rho[i+2, i]. ``rho`` is a DensityMatrix or
    any state with ``dim`` and ``band(k)`` (rho[i + k, i]), such as
    ``models.ResonantState``. A state that knows its dipole fluctuations
    exactly (``dipole_fluctuations()``) gives them; otherwise they are
    var(J_-) = <J_+J_-> - |<J_->|^2 and <J_-^2> - <J_->^2."""
    if rho.dim != rep.dim:
        raise ValueError(f"dimension mismatch: spin {rep.dim}, state {rho.dim}")
    m = rep.m_values
    amp = ladder_amplitudes(rep)
    pairs = amp[:-1] * amp[1:]
    pop = rho.band(0).real
    lowered = amp * rho.band(1)
    jm = complex(lowered.sum())
    jp_jm = float((amp * amp) @ pop[1:])
    jm2 = complex(pairs @ rho.band(2))
    exact = getattr(rho, "dipole_fluctuations", None)
    var_jm, anom_jm = exact() if exact else (jp_jm - abs(jm) ** 2, jm2 - jm * jm)
    return SpinMoments(
        jz=float(m @ pop),
        jz2=float((m * m) @ pop),
        jm=jm,
        jz_jm=complex(m[:-1] @ lowered),
        jp_jm=jp_jm,
        jm2=jm2,
        jp2_jm2=float((pairs * pairs) @ pop[2:]),
        var_jm=var_jm,
        anom_jm=anom_jm,
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


def hp_moments(a: BlochAngles) -> HPFluctuationSolution:
    """Stationary fluctuation moments of the bosonic mode.

    |<a^2>| = (1 - cos^2 t)/(4 cos t),  <a^dag a> = (1 - cos t)^2/(4 cos t).

    Diverges towards the critical point, where the small-fluctuation
    expansion fails; guarded accordingly.
    """
    if a.sin_theta > CRITICAL_RATIO_GUARD:
        raise AboveThresholdError(a.sin_theta)
    c = a.cos_theta
    return HPFluctuationSolution(occupation=(1.0 - c) ** 2 / (4.0 * c),
                                 anomalous_magnitude=(1.0 - c * c) / (4.0 * c))


def langevin_pole(e: EffectiveParams) -> complex:
    """The linearized Heisenberg-Langevin kernel of the spin fluctuations as
    one pole, -N cos(theta) (gamma/2 + i Delta): they relax at N cos(theta)
    gamma/2 and turn at N cos(theta) Delta. AboveThresholdError past the guard."""
    return -e.N * bloch_angles(e).cos_theta * complex(0.5 * e.gamma, e.Delta)


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


def field_composition(p: CavityParams, jminus_mean: complex) -> FieldComposition:
    """Output field of a one-sided cavity.

    chi = kappa/(i delta_c - kappa/2) is the cavity response, G = -i g* chi
    the dipole coupling to the outgoing channel. The mean is the free
    (atom-less) part -i Omega_L (1 + chi) plus the part G <J_-> scattered
    off the collective dipole.
    """
    chi = p.kappa / (1j * p.delta_c - p.kappa / 2)
    G = -1j * np.conj(p.g) * chi
    free_mean = -1j * p.Omega_L * (1 + chi)
    return FieldComposition(G=complex(G), mean_field_out=complex(free_mean + G * jminus_mean))


def output_spectrum(e: EffectiveParams, p: CavityParams, tau_max: float | None, n_tau: int, *,
                    rho_ss: DensityMatrix) -> SpectrumResult:
    """Spectrum of the light leaving the cavity ``p`` at ``rho_ss``, the
    steady state of the Dicke model of ``e``: a delta peak at the drive
    frequency of weight |<E>|^2, and |G|^2 times the transform of the
    connected dipole correlator <dJ_+(0) dJ_-(tau)>, of weight |G|^2
    var(J_-), with G and <E> from :func:`field_composition`. Vacuum-dipole
    cross terms are dropped: at linear order the full normally ordered
    fluctuation flux vanishes, so the dipole term alone bounds the residual.

    The verdict is ``coherent`` when var(J_-) is at or below eps D <J_+J_->,
    the round-off of the correlator's start; then no Liouvillian is built
    and the incoherent spectrum is None. Otherwise it is ``resolved``, and
    the spectrum is the sum of Lorentzians |G|^2 2 Re sum_k w_k /
    (-lambda_k - i omega) of ``lindblad.two_time_correlator``, on 2 n_tau + 1
    frequencies spanning [-pi/dtau, pi/dtau], dtau = tau_max/(n_tau - 1).
    tau_max and n_tau set only that grid; a tau_max of None is ten slowest
    linearized relaxation times, 10 / (N cos(t) gamma / 2), and raises
    AboveThresholdError past the guard. The Krylov shift is the inverse of
    the model's collective scale, 1/(N |Delta + i gamma/2|) = 1/(2 Omega_c).
    The slowest kept rate, its share of var(J_-), the grid step and the
    Krylov dimension are logged at DEBUG.
    """
    rep = SpinRep.for_atoms(e.N)
    moments = spin_moments(rho_ss, rep)
    fc = field_composition(p, moments.jm)
    if tau_max is None:
        tau_max = 10.0 / (e.N * bloch_angles(e).cos_theta * e.gamma / 2.0)
    dtau = tau_max / (n_tau - 1)
    omega = np.linspace(-np.pi / dtau, np.pi / dtau, 2 * n_tau + 1)
    g2abs = abs(fc.G) ** 2

    spectrum, verdict = None, "coherent"
    if moments.var_jm > np.finfo(float).eps * rep.dim * moments.jp_jm:
        import logging  # deferred, as scipy: a closed-form run never logs

        from .models import build_dicke_model  # deferred: models imports this module

        model = build_dicke_model(e)
        lam, w, report = two_time_correlator(model.liouvillian, rho_ss, model.ops["J_plus"],
                                             model.ops["J_minus"], omega,
                                             0.5 / critical_drive(e))
        if lam.size:
            k = int(np.argmax(lam.real))
            logging.getLogger(__name__).debug(
                "spectrum: slowest kept rate %.4g (%.3g of var(J_-)), grid step %.4g, Krylov "
                "dimension %d", -lam[k].real, abs(w[k]) / moments.var_jm,
                omega[1] - omega[0], report.krylov_dim)
        transform = (w / (-lam - 1j * omega[:, None])).sum(axis=1)
        spectrum, verdict = 2.0 * g2abs * transform.real, "resolved"

    return SpectrumResult(
        omega=omega,
        incoherent_spectrum=spectrum,
        coherent_weight=abs(fc.mean_field_out) ** 2,
        incoherent_weight=g2abs * moments.var_jm,
        coherence_ratio=moments.coherence_ratio,
        verdict=verdict,
    )
