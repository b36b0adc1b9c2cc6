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

Both models read their spin observables from ``observables.spin_moments``;
the cavity model from the spin state reduced over the Fock index.

At delta = 0 the Dicke steady state has a closed form,
rho ~ [(J_- - beta)^dag (J_- - beta)]^{-1} (:func:`resonant_steady_state`),
held in O(D) by :class:`ResonantState`: no Liouvillian, no D x D matrix
(until one is asked for) and no scipy. Its gate,
:func:`accept_banded_state`, is O(D) too: the residual of L rho on
diagonals 0-2, from diagonals 0-3 of rho, and the stationarity of <J_z>
and <J_-> from their Heisenberg equations. Its tolerance
(:func:`banded_tolerance`) is 1e-10 times the largest row sum of L over
its diagonal rows: the infinity norm of L at Delta = 0 and a lower bound
of it otherwise, so the gate is never looser than the LU's
(``lindblad.residual_tolerance``). Without a Liouvillian no atom cap
applies to it; ``DICKE_ATOM_CAP`` guards the Liouvillian.
:func:`dicke_steady_state` is the one place that picks between the closed
form (delta = 0) and the LU of the Dicke model (otherwise).

The cavity model is solved in the frame displaced by the mean field,
c = alpha + d (Mollow, Phys. Rev. A 12, 1919 (1975)). The displacement is
unitary, so only the Fock truncation of d approximates:

    H' = H(c -> d + alpha) + (i kappa/2)(conj(alpha) d - alpha d^dag),

one collapse channel d at rate kappa. With the mean-field amplitude
alpha = (Omega_L + conj(g) <J_->)/(delta_c + i kappa/2), d is driven only
by the dipole fluctuation conj(g)(J_- - <J_->) and stays near vacuum, with
<d^dag d> ~ |g|^2 var(J_-)/(delta_c^2 + kappa^2/4). The Fock cutoff counts
quanta of d; alpha = 0 is the lab frame.

:func:`validate_elimination` compares the two models. The eliminated one
comes from the closed form at delta = 0. The cavity model is built once
per drive, at cutoff + 5; the model at the cutoff is its block with both
Fock indices up to the cutoff (:func:`_fock_embedding`), entry for entry
the one :func:`build_cavity_model` makes there.
``lindblad.nested_steady_state`` factors that block, and confirms the
whole by GMRES preconditioned with the factor. ``CAVITY_PRODUCT_CAP``
bounds the factored block alone.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, NoConvergence
from .lindblad import (
    DensityMatrix,
    Liouvillian,
    SteadyStateSolveReport,
    build_liouvillian,
    nested_steady_state,
    steady_state,
)
from .observables import SpinMoments, spin_moments
from .operators import (
    FockRep,
    SpinRep,
    build_fock_operators,
    build_spin_operators,
    ladder_amplitudes,
    tensor,
)
from .parameters import CavityParams, EffectiveParams, map_cavity_to_effective

# Desk-scale dimension caps, the only size limits of a factored Liouvillian
# (the closed-form resonant state has none): the largest sizes whose
# sparse LU fits a desk budget (under a minute and 3 GB on two
# cores). The Dicke chain stays banded up to a few hundred atoms (D = 401:
# 6.8 s, 817 MB). The product space fills in much faster, most for near
# square splits: 12 x 12 at D = 144 takes 51-55 s and 2.5 GB, 10 x 15 at
# D = 150 more than a minute; 36 x 4 (N = 35 at Fock cutoff 3) takes
# 4.3-4.8 s. The cavity cap bounds only the block that validate_elimination
# factors, at its Fock cutoff (cavity_dimension, checked there); the
# builder and the model at cutoff + 5, which is not factored, take any
# cutoff.
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


class ResonantState(DensityMatrix):
    """The exact steady state of the Dicke model at delta = 0, held in
    O(D): beta, the ladder amplitudes a_i, log|u_i| and log T(i) (see
    :func:`resonant_steady_state`). It gives diagonals 0-3
    (:meth:`band`) and the exact dipole fluctuations
    (:meth:`dipole_fluctuations`) with no D x D object; the dense
    ``matrix`` is built on first use only (the spectrum's correlator and
    the tests read it) and kept."""

    __slots__ = ("beta", "amp", "log_u", "log_t", "log_z", "_bands", "_dense")

    def __init__(self, e: EffectiveParams):
        if e.delta != 0.0:
            raise ValueError(f"the closed-form steady state needs delta = 0, got {e.delta}")
        self.beta = complex(-e.Omega / (e.Delta + 0.5j * e.gamma))
        self.amp = ladder_amplitudes(SpinRep.for_atoms(e.N))
        self._bands, self._dense = {}, None
        if self.beta == 0:  # the ground state; no u is finite
            self.log_u = self.log_t = self.log_z = None
            return
        # summing log(a_i/|beta|) keeps the partial sums and their rounding small
        steps = np.log(self.amp) - math.log(abs(self.beta))
        self.log_u = np.concatenate(([0.0], np.cumsum(steps)))
        self.log_t = np.logaddexp.accumulate(2.0 * self.log_u[::-1])[::-1]
        # log of the trace of T(max(i, k))/(u_i conj(u_k)), i.e. of |beta|^2 Z
        self.log_z = float(np.logaddexp.reduce(self.log_t - 2.0 * self.log_u))

    @property
    def dim(self) -> int:
        return self.amp.size + 1

    def band(self, k: int) -> np.ndarray:
        """rho[i + k, i] = T(i + k) e^{i k arg(beta)}/(|u_i| |u_{i+k}| |beta|^2 Z),
        read-only and kept."""
        if k not in self._bands:
            size = max(self.dim - k, 0)
            if self.beta == 0:
                band = np.zeros(size, dtype=np.complex128)
                band[:1] = 1.0 if k == 0 else 0.0
            else:
                lu = self.log_u
                log_mag = self.log_t[k:] - lu[:size] - lu[k:] - self.log_z
                band = np.exp(log_mag + 1j * k * cmath.phase(self.beta))
            band.flags.writeable = False
            self._bands[k] = band
        return self._bands[k]

    def dipole_fluctuations(self) -> tuple[float, complex]:
        """(var(J_-), <J_-^2> - <J_->^2) with no difference of large numbers.

        With X = (J_- - beta)^{-1}, rho = X X^dag/Z and (J_- - beta) rho =
        X^dag/Z, so var(J_-) = (D/Z)(1 - D/(|beta|^2 Z)) and
        <J_-^2> - <J_->^2 = [D beta/conj(beta) - sum_i a_i^2/conj(beta)^2]/Z
        - (D/(conj(beta) Z))^2. The factor 1 - D/(|beta|^2 Z) is
        sum_i T(i + 1)/|u_i|^2 over |beta|^2 Z, a sum of positive terms,
        so both follow from logs:
        var = D |beta|^2 e^{L1 - 2 L0} and
        <J_-^2> - <J_->^2 = e^{2i arg(beta)} e^{-L0} (D |beta|^2 e^{L1 - L0} - sum_i a_i^2),
        with L0 = log(|beta|^2 Z) and L1 = log sum_i T(i + 1)/|u_i|^2."""
        if self.beta == 0:
            return 0.0, 0j
        dim, b2 = self.dim, abs(self.beta) ** 2
        log_excess = float(np.logaddexp.reduce(self.log_t[1:] - 2.0 * self.log_u[:-1]))
        var = math.exp(math.log(dim * b2) + log_excess - 2.0 * self.log_z)
        anom = math.exp(-self.log_z) * (dim * b2 * math.exp(log_excess - self.log_z)
                                        - float(self.amp @ self.amp))
        return var, cmath.exp(2j * cmath.phase(self.beta)) * anom

    @property
    def matrix(self) -> np.ndarray:
        """The dense state through ``DensityMatrix.from_raw``: band k of
        :meth:`band` below the diagonal and its conjugate above it; built
        on first use."""
        if self._dense is None:
            dim, i = self.dim, np.arange(self.dim)
            raw = np.zeros((dim, dim), dtype=np.complex128)
            for k in range(dim):
                raw[i[k:], i[:dim - k]] = self.band(k)
                raw[i[:dim - k], i[k:]] = self.band(k).conj()
            self._dense = DensityMatrix.from_raw(raw).matrix
        return self._dense


def resonant_steady_state(e: EffectiveParams):
    """Exact steady state of the Dicke model of ``e`` at delta = 0, with a
    solve report. It is built in O(D), with no Liouvillian, and passes the
    O(D) gate :func:`accept_banded_state` within :func:`banded_tolerance`;
    it runs no uniqueness probe.
    No atom cap applies: the state and its gate are O(D).

    For a resonant drive the stationary state is

        rho ~ [(J_- - beta)^dag (J_- - beta)]^{-1} = X X^dag,
        X = (J_- - beta)^{-1},   beta = -Omega / (Delta + i gamma/2)

    (Puri & Lawande, Phys. Lett. A 72, 200 (1979); Carmichael, J. Phys. B
    13, 3551 (1980)), below and above the critical drive. J_- is strictly
    upper triangular, so X[i, c] = -u_c / (beta u_i) for c >= i, with
    u_c = a_0 ... a_{c-1} beta^(-c) and a the ladder amplitudes, and

        rho[i, k] ~ T(max(i, k)) / (u_i conj(u_k)),   T(k) = sum_{c >= k} |u_c|^2.

    |u| spans hundreds of decades at weak drive, so the magnitudes are
    built in logs (:class:`ResonantState`). Omega = 0 gives the ground
    state |j, -j>.

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
    return accept_banded_state(e, ResonantState(e), "closed-form")


def dicke_steady_state(e: EffectiveParams):
    """Steady state of the Dicke model of ``e``, with a solve report: the
    closed form (:func:`resonant_steady_state`, O(D), no Liouvillian) at
    delta = 0, and the sparse LU of :func:`build_dicke_model` otherwise."""
    if e.delta == 0.0:
        return resonant_steady_state(e)
    return steady_state(build_dicke_model(e).liouvillian)


def _padded_amplitudes(n_atoms: int) -> np.ndarray:
    """The ladder amplitudes with a zero at each end: entry x + 1 is a_x,
    for x from -1 to D - 1 (a_{-1} = a_{D-1} = 0)."""
    return np.concatenate(([0.0], ladder_amplitudes(SpinRep.for_atoms(n_atoms)), [0.0]))


def _lindblad_bands(e: EffectiveParams, rho) -> list:
    """Diagonals 0-2 of L rho, ``[(L rho)[i + k, i] for k in 0, 1, 2]``, for
    the Dicke model of ``e`` from diagonals 0-3 of the Dicke-basis state
    ``rho``, in O(D). Row (r, c) of L rho reads

        [-i (h_r - h_c) - gamma (n_r + n_c)/2] rho[r, c]
        + i conj(Omega) a_r rho[r+1, c] + i Omega a_{r-1} rho[r-1, c]
        - i Omega a_c rho[r, c+1] - i conj(Omega) a_{c-1} rho[r, c-1]
        + gamma a_r a_c rho[r+1, c+1],

    with h = -Delta n - delta m the diagonal of H and n_r = a_{r-1}^2 that
    of J_+ J_- (a_{-1} = a_{D-1} = 0)."""
    dim, a = rho.dim, _padded_amplitudes(e.N)
    n = a[:-1] ** 2
    h = -e.Delta * n - e.delta * (np.arange(dim) - (dim - 1) / 2)
    bands = [rho.band(k) for k in range(4)]

    def entries(k: int, cols: np.ndarray) -> np.ndarray:
        # rho[cols + k, cols], zero outside the matrix; for k < 0 the
        # conjugate of rho[cols, cols + k] (no recursion: no reference cycle)
        lower = cols + min(k, 0)
        out = np.zeros(cols.size, dtype=np.complex128)
        inside = (lower >= 0) & (lower < dim - abs(k))
        out[inside] = bands[abs(k)][lower[inside]]
        return out if k >= 0 else np.conj(out)

    omega, gamma, out = e.Omega, e.gamma, []
    for k in range(3):
        c = np.arange(max(dim - k, 0))
        r = c + k
        out.append((-1j * (h[r] - h[c]) - 0.5 * gamma * (n[r] + n[c])) * entries(k, c)
                   + 1j * np.conj(omega) * a[r + 1] * entries(k + 1, c)
                   + 1j * omega * a[r] * entries(k - 1, c)
                   - 1j * omega * a[c + 1] * entries(k - 1, c + 1)
                   - 1j * np.conj(omega) * a[c] * entries(k + 1, c - 1)
                   + gamma * a[r + 1] * a[c + 1] * entries(k, c + 1))
    return out


def banded_tolerance(e: EffectiveParams) -> float:
    """The tolerance of the O(D) gate: 1e-10 times the largest absolute row
    sum of the Liouvillian over its diagonal rows (r, r),
    gamma (a_{r-1}^2 + a_r^2) + 2 |Omega| (a_{r-1} + a_r), and at least
    1e-10. At Delta = delta = 0 that is the superoperator's infinity norm
    L.scale (a_r a_c <= (a_r^2 + a_c^2)/2 puts the largest row on the
    diagonal); otherwise it is a lower bound of it, so the O(D) gate is
    never looser than :func:`lindblad.residual_tolerance`. The row sum is
    taken 1e-12 below its computed value: the assembled norm adds the
    same terms in another order, and may round one ulp lower."""
    a = _padded_amplitudes(e.N)
    rows = e.gamma * (a[:-1] ** 2 + a[1:] ** 2) + 2.0 * abs(e.Omega) * (a[:-1] + a[1:])
    return 1e-10 * max((1.0 - 1e-12) * float(rows.max()), 1.0)


def accept_banded_state(e: EffectiveParams, rho, method: str):
    """The O(D) acceptance gate of a Dicke-basis state ``rho`` (anything
    with ``dim`` and ``band(k)``, as :class:`ResonantState` and
    ``DensityMatrix``): the residual of L rho on diagonals 0-2 (Frobenius
    norm over diagonals -2 to 2, from diagonals 0-3 of rho; see
    :func:`_lindblad_bands`), and the stationarity of <J_z> and <J_-> from
    their Heisenberg equations,

        d<J_z>/dt = 2 Im(conj(Omega) <J_->) - gamma <J_+J_->,
        d<J_->/dt = (gamma - 2i Delta) <J_z J_-> - 2i Omega <J_z> + i delta <J_->,

    each within :func:`banded_tolerance`, or NoConvergence is raised.
    Returns ``(rho, SteadyStateSolveReport)`` with the band residual."""
    bound = banded_tolerance(e)
    diag0, diag1, diag2 = _lindblad_bands(e, rho)
    residual = math.sqrt(float(np.vdot(diag0, diag0).real + 2.0 * np.vdot(diag1, diag1).real
                               + 2.0 * np.vdot(diag2, diag2).real))
    mom = spin_moments(rho, SpinRep.for_atoms(e.N))
    rates = {
        "d<J_z>/dt": abs(2.0 * (np.conj(e.Omega) * mom.jm).imag - e.gamma * mom.jp_jm),
        "d<J_->/dt": abs((e.gamma - 2j * e.Delta) * mom.jz_jm - 2j * e.Omega * mom.jz
                         + 1j * e.delta * mom.jm),
    }
    for name, value in {"band residual": residual, **rates}.items():
        if value > bound:
            raise NoConvergence(
                f"steady-state {name} {value:.3e} above tolerance {bound:.3e} (method {method})"
            )
    return rho, SteadyStateSolveReport(method=method, residual=residual, uniqueness_ratio=None)


def mean_field_amplitude(p: CavityParams, jminus: complex) -> complex:
    """Stationary intracavity amplitude for a dipole <J_-> = ``jminus``:
    alpha = (Omega_L + conj(g) <J_->)/(delta_c + i kappa/2)."""
    return complex((p.Omega_L + np.conj(p.g) * jminus) / (p.delta_c + 0.5j * p.kappa))


def default_fock_cutoff(p: CavityParams, var_jm: float) -> int:
    """Truncation of d = c - alpha from the eliminated model's dipole
    fluctuation ``var_jm`` = var(J_-) (``SpinMoments.var_jm``).

    A cavity that follows the atoms adiabatically holds
    <d^dag d> ~ |g|^2 var(J_-)/(delta_c^2 + kappa^2/4) quanta of d. The
    Fock populations of a near-vacuum d fall off like powers of that
    occupation, so three quanta cover it below 1/4, and each further
    quarter quantum adds one.
    """
    occupation = abs(p.g) ** 2 * max(var_jm, 0.0) / (p.delta_c**2 + (p.kappa / 2) ** 2)
    return 3 + int(4.0 * occupation)


def cavity_dimension(p: CavityParams, cutoff: int) -> int:
    """Product dimension (N + 1)(cutoff + 1) of the atom+cavity model at a
    Fock cutoff; DimensionCapError above ``CAVITY_PRODUCT_CAP``, the bound
    of a model that is factored."""
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
    d = c - alpha, and alpha = 0 is the lab frame. It builds at any cutoff:
    ``CAVITY_PRODUCT_CAP`` bounds only a block that is factored, and
    :func:`validate_elimination` checks it there (:func:`cavity_dimension`);
    ``operators.TENSOR_CAP`` still refuses a runaway product. The model at
    a cutoff is the block of the model at any higher one on the entries of
    :func:`_fock_embedding`, with the same stored entries in the same
    order.

    ``ops`` holds what the Hamiltonian is built from: the lifted
    ``J_minus``, ``J_plus`` and ``J_z``, and ``d`` and ``d_dagger``.
    """
    import scipy.sparse as sp  # deferred: a closed-form run never loads it

    fock = FockRep(cutoff=cutoff)
    spin = SpinRep.for_atoms(p.N)

    sops = build_spin_operators(spin)
    bops = build_fock_operators(fock)
    eye_s = sp.eye_array(spin.dim, dtype=np.complex128, format="csr")
    eye_f = sp.eye_array(fock.dim, dtype=np.complex128, format="csr")

    lift = {
        "J_minus": tensor(sops["J_minus"], eye_f),
        "J_plus": tensor(sops["J_plus"], eye_f),
        "J_z": tensor(sops["J_z"], eye_f),
        "d": tensor(eye_s, bops["c"]),
        "d_dagger": tensor(eye_s, bops["c_dagger"]),
    }
    d, d_dag = lift["d"], lift["d_dagger"]

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


def _atomic_observables(mom: SpinMoments) -> dict:
    return {"Jz": mom.jz, "Jminus": mom.jm, "JpJm": mom.jp_jm}


def _eliminated_moments(p: CavityParams) -> SpinMoments:
    """The moments record of the eliminated Dicke model of ``p``, from
    :func:`dicke_steady_state`: at delta = 0 the closed form's, with its
    exact var(J_-)."""
    e = map_cavity_to_effective(p)
    rho, _ = dicke_steady_state(e)
    return spin_moments(rho, SpinRep.for_atoms(e.N))


def _reduced_observables(spin_rep: SpinRep, rho: DensityMatrix, alpha) -> dict:
    """<J_z>, <J_->, <J_+J_->, <c> and <c^dag c> of a state of the
    atom+cavity model displaced by ``alpha``, at any Fock cutoff (the
    state's dimension over the spin's). The spin moments come from the
    state reduced over the Fock index. The state reduced over the spins
    gives <d> (band 1) and <d^dag d> (band 0); then <c> = alpha + <d> and
    <c^dag c> = |alpha|^2 + 2 Re(conj(alpha) <d>) + <d^dag d>."""
    ds = spin_rep.dim
    df = rho.dim // ds
    blocks = rho.matrix.reshape(ds, df, ds, df)
    spin = DensityMatrix(np.einsum("ikjk->ij", blocks), validate=False)
    fock, n = np.einsum("kikj->ij", blocks), np.arange(df)
    d_mean = complex(np.sqrt(n[1:]) @ fock.diagonal(-1))
    obs = _atomic_observables(spin_moments(spin, spin_rep))
    obs["c"] = alpha + d_mean
    obs["photons"] = (abs(alpha) ** 2 + 2.0 * (np.conj(alpha) * d_mean).real
                      + float(n @ fock.diagonal().real))
    return obs


def _fock_embedding(spin_dim: int, fock_dim: int, wide_fock_dim: int) -> np.ndarray:
    """Entry k of the vectorized spin x Fock space with ``fock_dim`` Fock
    levels as an entry of the one with ``wide_fock_dim``, ascending: both
    Fock indices stay, so the smaller space is the block of the larger one
    with both Fock indices below ``fock_dim``."""
    index = np.arange(spin_dim * fock_dim)
    wide = (index // fock_dim) * wide_fock_dim + index % fock_dim
    # column stacking: entry (i, j) of a D x D matrix is i + j D
    return (wide[:, None] + wide_fock_dim * spin_dim * wide[None, :]).flatten(order="F")


def validate_elimination(
    p: CavityParams,
    cutoff: int | None = None,
    *,
    min_adiabaticity: float = 5.0,
) -> EliminationReport:
    """Compare the full atom+cavity steady state against the eliminated
    Dicke model built from the mapped parameters.

    The comparison is meaningful when the cavity damping outruns the
    collective dynamics; the ratio kappa/(sqrt(N)|g|) is reported and a
    value below ``min_adiabaticity`` only warns, since mapping the
    breakdown is itself useful.

    The eliminated model's state comes from :func:`dicke_steady_state`:
    the closed form at delta = 0 and the LU otherwise. The cavity model is
    solved in the frame displaced by the mean-field amplitude of the
    eliminated model's <J_->, and ``cutoff`` (None: from
    :func:`default_fock_cutoff`) counts quanta of d = c - alpha. It is
    accepted when the deviations barely move as the cutoff grows by five;
    the larger cutoff's observables are reported.
    :func:`build_cavity_model` makes one model, at cutoff + 5. Its block
    at ``cutoff`` (:func:`_fock_embedding`) is the model at ``cutoff``, so
    ``lindblad.nested_steady_state`` solves that block by LU, with the
    uniqueness probe, and the whole by GMRES preconditioned with the
    block's factor; the GMRES state passes the same gate but runs no probe
    and makes no factor. ``CAVITY_PRODUCT_CAP`` bounds only the block at
    ``cutoff``, the one factored: above it DimensionCapError is raised,
    after the eliminated model's moments and before any cavity build or
    solve. The GMRES basis of the model at cutoff + 5, 81 vectors of D^2
    entries, is bounded with it: 136 MB at cutoff 3 and N = 35, 329 MB at
    cutoff 1 and N = 71.
    """
    ratio = p.adiabaticity_ratio
    if ratio < min_adiabaticity:
        warnings.warn(
            f"adiabaticity ratio {ratio:.3g} below {min_adiabaticity}; "
            "the eliminated model is not expected to be accurate",
            stacklevel=2,
        )
    mom = _eliminated_moments(p)
    eff = _atomic_observables(mom)
    alpha = mean_field_amplitude(p, mom.jm)
    base_cutoff = cutoff if cutoff is not None else default_fock_cutoff(p, mom.var_jm)

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

    cavity_dimension(p, base_cutoff)
    model = build_cavity_model(p, base_cutoff + 5, alpha)
    embed = _fock_embedding(model.spin_rep.dim, base_cutoff + 1, model.fock_rep.dim)
    (rho_lo, _), (rho_hi, _) = nested_steady_state(model.liouvillian, embed)
    dev_lo, _ = deviations(_reduced_observables(model.spin_rep, rho_lo, alpha))
    full_hi = _reduced_observables(model.spin_rep, rho_hi, alpha)
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
