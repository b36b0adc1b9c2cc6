"""Concrete open-system models: the effective driven-Dicke master equation
and the full atom+cavity model it is derived from, the exact steady state
of the resonant Dicke model, and the cross-check between the two models.

Both Hamiltonians are written in the frame rotating at the laser
frequency, where they are time independent:

* Dicke:   H = -Delta J_+ J_-  - (Omega J_+ + conj(Omega) J_-) - delta J_z,
           one collapse channel J_- at rate gamma.
* Cavity:  H = -delta J_z - delta_c c^dag c
               + [ c^dag (conj(g) J_- + Omega_L) + h.c. ],
           one collapse channel c at rate kappa.

The cavity model is solved in the frame displaced by the mean field,
c = alpha + d (Mollow, Phys. Rev. A 12, 1919 (1975)). The displacement is
unitary, so only the Fock truncation of d approximates:

    H' = H(c -> d + alpha) + (i kappa/2)(conj(alpha) d - alpha d^dag),

one collapse channel d at rate kappa. With the mean-field amplitude
alpha = (Omega_L + conj(g) <J_->)/(delta_c + i kappa/2), d is driven only
by the dipole fluctuation conj(g)(J_- - <J_->) and stays near vacuum, with
<d^dag d> ~ |g|^2 var(J_-)/(delta_c^2 + kappa^2/4). The Fock cutoff counts
quanta of d; alpha = 0 is the lab frame.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionCapError, NoConvergence
from .lindblad import (
    Liouvillian,
    SteadyStateOptions,
    accept_steady_state,
    build_liouvillian,
    expect,
    steady_state,
)
from .operators import (
    FockRep,
    SpinRep,
    build_fock_operators,
    build_spin_operators,
    tensor,
)
from .parameters import CavityParams, EffectiveParams, map_cavity_to_effective

# Desk-scale dimension caps, the only size limits of a solve: the largest
# sizes whose sparse LU fits a desk budget (under a minute and 3 GB on two
# cores). The Dicke chain stays banded up to a few hundred atoms (D = 401:
# 6.8 s, 817 MB). The product space fills in much faster, most for near
# square splits: 12 x 12 at D = 144 takes 51-55 s and 2.5 GB, 10 x 15 at
# D = 150 more than a minute.
DICKE_ATOM_CAP = 400
CAVITY_PRODUCT_CAP = 144
# an elimination passes when J_z of the two models agrees within this
# fraction of N/2
JZ_PASS_FRACTION = 0.05


@dataclass(frozen=True)
class DickeModel:
    effective: EffectiveParams
    rep: SpinRep
    ops: dict
    liouvillian: Liouvillian


@dataclass(frozen=True)
class CavityModel:
    cavity: CavityParams
    spin_rep: SpinRep
    fock_rep: FockRep
    ops: dict
    liouvillian: Liouvillian


@dataclass(frozen=True)
class EliminationReport:
    """Full-model vs eliminated-model steady-state comparison.

    ``full`` and ``effective`` hold <J_z>, <J_->, <J_+J_-> per model
    (keys ``Jz``, ``Jminus``, ``JpJm``), and ``full`` also the field <c>
    and the photon number (``c``, ``photons``); ``deviation_abs``/
    ``deviation_rel`` the per-observable distances. The J_z deviation is
    measured relative to N/2, the others relative to the effective-model
    magnitude. ``fock_cutoff`` is the reported truncation of d = c - alpha.
    """

    full: dict
    effective: dict
    deviation_abs: dict
    deviation_rel: dict
    fock_cutoff: int
    adiabaticity_ratio: float
    cutoff_converged: bool
    passed: bool


def build_dicke_model(e: EffectiveParams) -> DickeModel:
    """Driven-Dicke Liouvillian on the (N+1)-dimensional symmetric block."""
    if e.N > DICKE_ATOM_CAP:
        raise DimensionCapError(f"N = {e.N} exceeds the Dicke cap {DICKE_ATOM_CAP}")
    rep = SpinRep.for_atoms(e.N)
    ops = build_spin_operators(rep)

    H = -e.Delta * (ops["J_plus"] @ ops["J_minus"]) - (
        e.Omega * ops["J_plus"] + np.conj(e.Omega) * ops["J_minus"]
    )
    if e.delta != 0.0:
        H = H - e.delta * ops["J_z"]
    liouv = build_liouvillian(H, [(e.gamma, ops["J_minus"])])
    return DickeModel(effective=e, rep=rep, ops=ops, liouvillian=liouv)


def resonant_steady_state(model: DickeModel, tol: float | None = None):
    """Exact steady state of the Dicke model at delta = 0, with a solve
    report. It passes the gate of every numeric route,
    ``lindblad.accept_steady_state`` (Hermiticity, trace, PSD floor and the
    Liouvillian residual within ``tol``), but runs no uniqueness probe.

    For a resonant drive the stationary state is

        rho ~ [(J_- - beta)^dag (J_- - beta)]^{-1} = X X^dag,
        X = (J_- - beta)^{-1},   beta = -Omega / (Delta + i gamma/2)

    (Puri & Lawande, Phys. Lett. A 72, 200 (1979); Carmichael, J. Phys. B
    13, 3551 (1980)), below and above the critical drive. J_- is strictly
    upper triangular, so X[i, c] = -u_c / (beta u_i) for c >= i, with
    u_c = a_0 ... a_{c-1} beta^(-c) and a the ladder amplitudes, and

        rho[i, k] ~ T(max(i, k)) / (u_i conj(u_k)),   T(k) = sum_{c >= k} |u_c|^2.

    |u| spans hundreds of decades at weak drive, so the magnitudes are
    built in logs. Omega = 0 gives the ground state |j, -j>.

    Uniqueness follows without a probe. For beta != 0, J_- is nilpotent,
    so J_- - beta is invertible and rho is full rank (faithful). J_+ and
    J_- act irreducibly on the spin-j block, so the commutant of
    {H, J_-, J_+} holds only multiples of the identity. Frigerio's theorem
    (Commun. Math. Phys. 63, 269 (1978)) then makes the faithful
    stationary state the only one. For Omega = 0, d<J_z>/dt =
    -gamma <J_+ J_-> forces every stationary state onto ker J_-, which is
    the ground state alone. Raises ValueError for delta != 0, where the
    form fails.
    """
    e = model.effective
    if e.delta != 0.0:
        raise ValueError(f"the closed-form steady state needs delta = 0, got {e.delta}")

    t0 = time.perf_counter()
    dim = model.rep.dim
    beta = -e.Omega / (e.Delta + 0.5j * e.gamma)
    raw = np.zeros((dim, dim), dtype=np.complex128)
    if beta == 0:
        raw[0, 0] = 1.0
    else:
        amp = model.ops["J_minus"].diagonal(1).real
        log_u = np.concatenate(([0.0], np.cumsum(np.log(amp))))
        log_u -= np.arange(dim) * math.log(abs(beta))
        log_t = np.logaddexp.accumulate(2.0 * log_u[::-1])[::-1]
        # fill the upper triangle (i <= k, so max(i, k) = k), scaled by the
        # largest diagonal entry, and mirror it
        i, k = np.triu_indices(dim)
        log_mag = log_t[k] - log_u[i] - log_u[k] - np.max(log_t - 2.0 * log_u)
        upper = np.exp(log_mag + 1j * np.angle(beta) * (i - k))
        raw[k, i] = upper.conj()
        raw[i, k] = upper
    return accept_steady_state(model.liouvillian, raw, "closed-form", t0, tol, 0, None)


def mean_field_amplitude(p: CavityParams, jminus: complex) -> complex:
    """Stationary intracavity amplitude for a dipole <J_-> = ``jminus``:
    alpha = (Omega_L + conj(g) <J_->)/(delta_c + i kappa/2)."""
    return complex((p.Omega_L + np.conj(p.g) * jminus) / (p.delta_c + 0.5j * p.kappa))


def default_fock_cutoff(p: CavityParams, moments: dict) -> int:
    """Truncation of d = c - alpha from the eliminated model's moments.

    A cavity that follows the atoms adiabatically holds
    <d^dag d> ~ |g|^2 var(J_-)/(delta_c^2 + kappa^2/4) quanta of d, with
    var(J_-) = <J_+J_-> - |<J_->|^2 taken from ``moments`` (keys
    ``Jminus``, ``JpJm``). The Fock populations of a near-vacuum d fall
    off like powers of that occupation, so three quanta cover it below
    1/4, and each further quarter quantum adds one.
    """
    var = max(moments["JpJm"] - abs(moments["Jminus"]) ** 2, 0.0)
    occupation = abs(p.g) ** 2 * var / (p.delta_c**2 + (p.kappa / 2) ** 2)
    return 3 + int(4.0 * occupation)


def cavity_dimension(p: CavityParams, cutoff: int) -> int:
    """Product dimension (N + 1)(cutoff + 1) of the atom+cavity model at a
    Fock cutoff; DimensionCapError above ``CAVITY_PRODUCT_CAP``."""
    total = (p.N + 1) * (cutoff + 1)
    if total > CAVITY_PRODUCT_CAP:
        raise DimensionCapError(
            f"product dimension {p.N + 1}*{cutoff + 1} = {total} exceeds cap "
            f"{CAVITY_PRODUCT_CAP}"
        )
    return total


def build_cavity_model(p: CavityParams, cutoff: int, alpha: complex = 0.0) -> CavityModel:
    """Atom+cavity Liouvillian on the spin (slow) x Fock (fast) space, in
    the frame displaced by ``alpha``: the Fock space holds the quanta of
    d = c - alpha, and alpha = 0 is the lab frame.

    ``ops`` holds the lifted spin operators, ``d`` and ``d_dagger``, and
    the lab field in this frame, ``c`` = d + alpha and ``c_dagger``, with
    ``photon_number`` = c^dag c. So <c> = alpha + <d> and
    <c^dag c> = |alpha|^2 + 2 Re(conj(alpha) <d>) + <d^dag d>.
    """
    fock = FockRep(cutoff=cutoff)
    spin = SpinRep.for_atoms(p.N)
    total = cavity_dimension(p, cutoff)

    sops = build_spin_operators(spin)
    bops = build_fock_operators(fock)
    eye_s = sp.eye_array(spin.dim, dtype=np.complex128, format="csr")
    eye_f = sp.eye_array(fock.dim, dtype=np.complex128, format="csr")

    lift = {
        "J_minus": tensor(sops["J_minus"], eye_f),
        "J_plus": tensor(sops["J_plus"], eye_f),
        "J_x": tensor(sops["J_x"], eye_f),
        "J_y": tensor(sops["J_y"], eye_f),
        "J_z": tensor(sops["J_z"], eye_f),
        "d": tensor(eye_s, bops["c"]),
        "d_dagger": tensor(eye_s, bops["c_dagger"]),
    }
    d, d_dag = lift["d"], lift["d_dagger"]
    shift = alpha * sp.eye_array(total, dtype=np.complex128, format="csr")
    lift["c"] = d + shift
    lift["c_dagger"] = d_dag + shift.conj()
    lift["photon_number"] = lift["c_dagger"] @ lift["c"]

    # the c-number drive left on d after the displacement, and the
    # coherent drive the mean field puts on the atoms
    drive = p.Omega_L - (p.delta_c + 0.5j * p.kappa) * alpha
    H = (
        -p.delta_c * (d_dag @ d)
        + np.conj(p.g) * (d_dag @ lift["J_minus"])
        + p.g * (lift["J_plus"] @ d)
        + drive * d_dag
        + np.conj(drive) * d
        + np.conj(p.g * alpha) * lift["J_minus"]
        + p.g * alpha * lift["J_plus"]
    )
    if p.delta != 0.0:
        H = H - p.delta * lift["J_z"]
    liouv = build_liouvillian(H, [(p.kappa, d)])
    return CavityModel(cavity=p, spin_rep=spin, fock_rep=fock, ops=lift, liouvillian=liouv)


def _atomic_observables(rho, ops) -> dict:
    jpjm = ops["J_plus"] @ ops["J_minus"]
    return {
        "Jz": expect(rho, ops["J_z"]).real,
        "Jminus": expect(rho, ops["J_minus"]),
        "JpJm": expect(rho, jpjm).real,
    }


def _eliminated_observables(p: CavityParams, solve_opts) -> dict:
    """<J_z>, <J_->, <J_+J_-> of the eliminated Dicke model of ``p``."""
    dicke = build_dicke_model(map_cavity_to_effective(p))
    rho, _ = steady_state(dicke.liouvillian, solve_opts)
    return _atomic_observables(rho, dicke.ops)


def _cavity_side_observables(p: CavityParams, cutoff, alpha, solve_opts) -> dict:
    model = build_cavity_model(p, cutoff, alpha)
    rho, _ = steady_state(model.liouvillian, solve_opts)
    obs = _atomic_observables(rho, model.ops)
    obs["c"] = expect(rho, model.ops["c"])
    obs["photons"] = expect(rho, model.ops["photon_number"]).real
    return obs


def validate_elimination(
    p: CavityParams,
    cutoff: int | None = None,
    *,
    min_adiabaticity: float = 5.0,
    solve_opts: SteadyStateOptions | None = None,
) -> EliminationReport:
    """Compare the full atom+cavity steady state against the eliminated
    Dicke model built from the mapped parameters.

    The comparison is meaningful when the cavity damping outruns the
    collective dynamics; the ratio kappa/(sqrt(N)|g|) is reported and a
    value below ``min_adiabaticity`` only warns, since mapping the
    breakdown is itself useful.

    The cavity model is solved in the frame displaced by the mean-field
    amplitude of the eliminated model's <J_->, and ``cutoff`` (None: from
    :func:`default_fock_cutoff`) counts quanta of d = c - alpha. It is
    accepted when the deviations barely move as the cutoff grows by five;
    the larger cutoff's observables are reported. A larger model over
    ``CAVITY_PRODUCT_CAP`` raises DimensionCapError before any cavity solve.
    """
    ratio = p.adiabaticity_ratio
    if ratio < min_adiabaticity:
        warnings.warn(
            f"adiabaticity ratio {ratio:.3g} below {min_adiabaticity}; "
            "the eliminated model is not expected to be accurate",
            stacklevel=2,
        )
    eff = _eliminated_observables(p, solve_opts)
    alpha = mean_field_amplitude(p, eff["Jminus"])
    base_cutoff = cutoff if cutoff is not None else default_fock_cutoff(p, eff)
    cavity_dimension(p, base_cutoff + 5)

    halfN = p.N / 2

    def deviations(full):
        dev_abs = {
            "Jz": abs(full["Jz"] - eff["Jz"]),
            "Jminus": abs(full["Jminus"] - eff["Jminus"]),
            "JpJm": abs(full["JpJm"] - eff["JpJm"]),
        }
        dev_rel = {
            "Jz": dev_abs["Jz"] / halfN,
            "Jminus": dev_abs["Jminus"] / max(abs(eff["Jminus"]), 1e-12),
            "JpJm": dev_abs["JpJm"] / max(abs(eff["JpJm"]), 1e-12),
        }
        return dev_abs, dev_rel

    full_lo = _cavity_side_observables(p, base_cutoff, alpha, solve_opts)
    dev_lo, _ = deviations(full_lo)
    full_hi = _cavity_side_observables(p, base_cutoff + 5, alpha, solve_opts)
    dev_hi, dev_rel_hi = deviations(full_hi)

    # changes far below the pass scale never count as non-convergence
    floor = 1e-4 * halfN
    converged = all(
        abs(dev_hi[k] - dev_lo[k]) <= 0.1 * max(dev_lo[k], floor) for k in dev_lo
    )
    if not converged:
        raise NoConvergence(
            f"Fock cutoff {base_cutoff} not converged: deviations moved from "
            f"{dev_lo} to {dev_hi} when the cutoff grew by 5"
        )

    passed = dev_rel_hi["Jz"] <= JZ_PASS_FRACTION
    return EliminationReport(
        full=full_hi,
        effective=eff,
        deviation_abs=dev_hi,
        deviation_rel=dev_rel_hi,
        fock_cutoff=base_cutoff + 5,
        adiabaticity_ratio=ratio,
        cutoff_converged=converged,
        passed=passed,
    )
