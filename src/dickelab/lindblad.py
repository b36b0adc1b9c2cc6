"""Finite-dimensional Lindblad machinery.

Superoperators act on column-stacked density matrices: ``vec`` flattens in
Fortran order, so vec(A X B) = (B^T kron A) vec(X). Under that convention

    d vec(rho)/dt = [ -i (I kron H - H^T kron I)
                      + sum_k r_k ( conj(C_k) kron C_k
                                    - 1/2 I kron C_k^dag C_k
                                    - 1/2 (C_k^dag C_k)^T kron I ) ] vec(rho)

Every factored steady state comes from one LU step, :func:`_lu_steady_state`:
one sparse LU of the square system M (:func:`_square_system`), the
superoperator with its first row (the equation for rho_00) replaced by the
scaled trace row, one refinement sweep, and beside them the uniqueness
probe, inverse iteration with the same factor (:func:`_uniqueness_probe`).
Trace preservation makes the diagonal-entry rows sum to zero, so the
replaced row carries no information, and M is nonsingular exactly when the
steady state is unique. The factor never leaves this module. The Dicke
Liouvillian is narrow-banded, so fill-in stays small; the model caps
(``models.DICKE_ATOM_CAP``, ``models.CAVITY_PRODUCT_CAP``) are the only size
limit of an LU. :func:`steady_state` is that step. A system whose block is
itself a Liouvillian (the atom+cavity model holds the one at a lower Fock
cutoff) is solved by :func:`nested_steady_state`: the block by the same
step, and the whole by restarted GMRES on its trace-row system,
preconditioned by the block's factor on the block's entries and by the
diagonal elsewhere, with no factor of its own. Every candidate of either
solver passes one gate, :func:`accept_steady_state`.
(The resonant Dicke model also has an exact steady state,
``models.resonant_steady_state``, which the sweeps use for delta = 0. It
needs no Liouvillian, and passes the O(D) gate
``models.accept_banded_state``, whose tolerance is never looser than
:func:`residual_tolerance`.) Each gate derives its tolerance from the
model; no caller sets one.

scipy is imported inside the functions that build sparse objects or
factor them, so importing this module, and every closed-form run, loads
no scipy module. So are ``logging``, by the two functions that write a
DEBUG line (:func:`nested_steady_state` and :func:`_propagate`, both past
scipy's import), and ``glob``, by the search for the OpenBLAS copies
(:func:`_openblas_paths`). Every function here that runs dense or factored work
holds one thread in each loaded OpenBLAS copy for its own duration and
then restores the counts it found (:func:`_single_blas_thread`). scipy's
copy is loaded only with scipy's linear algebra, so a function that needs
it imports it before it enters that scope. A ``dicke-lab`` process loads
every copy with one thread already (see ``cli``), so there the scope
changes nothing; it serves library callers, which load numpy themselves
with one thread per core, and a CLI caller who sets a count of their own.

The propagator has one job, the pole sum of the regression correlator:
the shift-invert (rational) Krylov approximation of exp(t L) of van den
Eshof & Hochbruck (SIAM J. Sci. Comput. 27, 1438 (2006)). I - h L is
factored once by sparse LU, ordered by minimum degree on A^T + A with
pivoting threshold 0.1 (2/3 of COLAMD's fill at N = 100; full pivoting
breaks the order). The caller passes the shift h
(``observables.output_spectrum`` takes the collective scale
h = 1/(N |Delta + i gamma/2|)). Arnoldi on (I - h L)^{-1}, with full
reorthogonalization, builds an orthonormal basis V_m and a Hessenberg
H_m; the projected generator is A_m = (I - H_m^{-1}) / h, and
exp(t L) y ~ |y| V_m exp(t A_m) e_1. The inverse maps the fast collective
modes (rates of order N^2 gamma) near zero, so the basis finds the slow
ones first. The correlator is the pole sum of A_m = W diag(lambda) W^{-1}
on its decaying modes (Re lambda < 0, which drops the stationary mode):
the transform of exp(t A_m) e_1 is W (-lambda - i omega)^{-1} W^{-1} e_1,
formed from the pole weights, and the kept weights must sum to the start.
Every few vectors the transform on the caller's frequency grid is
recomputed; the basis stops growing when it changes by no more than the
caller's share of its peak, or when it spans an invariant subspace, where
the result is exact. More than KRYLOV_MAX_DIM vectors raise
NoConvergence.

The regression theorem has one route, :func:`two_time_correlator`: the
connected steady-state correlator as the pole sum of that propagator,
which gives it at any lag and its transform at any frequency.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import math
import os
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NonUniqueSteadyState, SolverError

# eigenvalues of a solver candidate in (PSD_FLOOR, 0) are rounding noise
PSD_FLOOR = -1e-8
STATE_ATOL = 1e-12  # the Hermiticity and trace tolerance of DensityMatrix.validate

# GMRES of a nested steady state: the restart length (the basis holds
# GMRES_RESTART + 1 vectors of D^2 entries), the restart cycles before a
# NoConvergence, and the residual target relative to the right-hand side
GMRES_RESTART = 80
GMRES_MAX_RESTARTS = 10
GMRES_RTOL = 1e-14

# inverse-iteration stopping rule of the uniqueness probe
PROBE_RTOL = 1e-2
PROBE_MAX_STEPS = 10

# shift-invert Krylov propagation of the regression correlator (its caller
# passes the shift, see two_time_correlator); past KRYLOV_MAX_DIM vectors is
# a NoConvergence. The stop rule is checked every KRYLOV_CHECK_EVERY vectors,
# or every eighth of the basis once that is more. It bounds the change of the
# correlator's transform on a frequency grid between checks, relative to its
# peak, by SPECTRUM_RTOL or the start's round-off share, whichever is larger.
# A next Arnoldi vector below BREAKDOWN_RTOL of its solve is invariant.
KRYLOV_MAX_DIM = 300
KRYLOV_CHECK_EVERY = 4
SPECTRUM_RTOL = 1e-8
BREAKDOWN_RTOL = 1e-12
# a mode of a projected generator below this share of its norm is stationary
RATE_FLOOR = 1e-8


def uniqueness_threshold(order: int) -> float:
    """Round-off level of the relative uniqueness probe for a superoperator
    of the given order (D^2). A second stationary direction leaves only
    factorization round-off, of order eps * order, in the probe; a unique
    state keeps it far above that."""
    return 10.0 * np.finfo(float).eps * order


def vectorize(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix (Fortran-order flatten)."""
    return np.asarray(mat, dtype=np.complex128).flatten(order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(vec).reshape((dim, dim), order="F")


class Liouvillian(NamedTuple):
    """Sparse D^2 x D^2 generator of a D-dimensional system."""

    dim: int
    superoperator: sp.csr_array

    @property
    def scale(self) -> float:
        """Infinity norm of the superoperator (max absolute row sum)."""
        return float(abs(self.superoperator).sum(axis=1).max())

    def residual(self, mat: np.ndarray) -> float:
        return float(np.linalg.norm(self.superoperator @ vectorize(mat)))


def _square_operator(x) -> sp.csr_array:
    """Any dense or sparse square matrix as a complex CSR array."""
    import scipy.sparse as sp  # deferred: a closed-form run never loads it

    mat = sp.csr_array(x, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"operator must be a square 2D matrix, got shape {mat.shape}")
    return mat


def build_liouvillian(H, collapse) -> Liouvillian:
    """Assemble the vectorized generator from H and (rate, C) pairs.

    H and each C may be any dense or sparse square matrix. Rates must be
    non-negative; every operator must share the Hilbert dimension of H.
    With G = -iH - (1/2) sum_r r C^dag C, L rho = G rho + rho G^dag +
    sum_r r C rho C^dag, which column stacking makes
    I (x) G + conj(G) (x) I + sum_r r conj(C) (x) C.
    """
    import scipy.sparse as sp  # deferred: a closed-form run never loads it

    Hs = _square_operator(H)
    dim = Hs.shape[0]
    eye = sp.identity(dim, dtype=np.complex128, format="csr")

    G, jumps = -1j * Hs, []
    for rate, C in collapse:
        if rate < 0:
            raise ValueError(f"collapse rate must be non-negative, got {rate}")
        Cs = _square_operator(C)
        if Cs.shape[0] != dim:
            raise ValueError(
                f"collapse operator dimension {Cs.shape[0]} != Hamiltonian dimension {dim}"
            )
        G = G - 0.5 * rate * (Cs.conj().T @ Cs)
        jumps.append(rate * sp.kron(Cs.conj(), Cs, format="csr"))
    gen = sp.kron(eye, G, format="csr") + sp.kron(G.conj(), eye, format="csr")
    for jump in jumps:
        gen = gen + jump
    return Liouvillian(dim=dim, superoperator=gen.tocsr())


class DensityMatrix:
    """Hermitian, unit-trace, numerically PSD matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, validate=True):
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        self.matrix = mat
        if validate:
            self.validate()

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def band(self, k: int) -> np.ndarray:
        """Diagonal -k of the matrix: rho[i + k, i]."""
        return self.matrix.diagonal(-k)

    def validate(self):
        """Hermiticity and unit trace within ``STATE_ATOL``, no eigenvalue
        below ``PSD_FLOOR``; ValueError otherwise."""
        scale = max(1.0, float(np.abs(self.matrix).max()))
        herm_dev = float(np.abs(self.matrix - self.matrix.conj().T).max())
        if herm_dev > STATE_ATOL * scale:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
        trace_dev = abs(self.matrix.trace() - 1.0)
        if trace_dev > STATE_ATOL:
            raise ValueError(f"trace differs from 1 by {trace_dev:.3e}")
        min_eig = self.min_eigenvalue()
        if min_eig < PSD_FLOOR:
            raise ValueError(f"minimum eigenvalue {min_eig:.3e} below floor {PSD_FLOOR:.1e}")

    def min_eigenvalue(self) -> float:
        herm = 0.5 * (self.matrix + self.matrix.conj().T)
        with _single_blas_thread():
            return float(np.linalg.eigvalsh(herm)[0])

    @classmethod
    def from_raw(cls, mat) -> "DensityMatrix":
        """Build from a raw solver vector: hermitize, normalize the trace,
        and floor eigenvalues in (PSD_FLOOR, 0). Larger PSD violations are
        a solver failure, not rounding noise to be masked. The eigh runs
        on one BLAS thread, as the eigvalsh of :meth:`min_eigenvalue`
        does."""
        mat = np.asarray(mat, dtype=np.complex128)
        herm = 0.5 * (mat + mat.conj().T)
        tr = herm.trace()
        if abs(tr) < 1e-6 * max(np.abs(herm).max(), 1e-300):
            raise SolverError("steady-state candidate is (nearly) traceless")
        herm = herm / tr
        with _single_blas_thread():
            evals, evecs = np.linalg.eigh(herm)
        min_eig = float(evals[0])
        if min_eig < PSD_FLOOR:
            raise SolverError(
                f"steady-state candidate has eigenvalue {min_eig:.3e} below "
                f"the PSD floor {PSD_FLOOR:.1e}"
            )
        if min_eig < 0.0:
            evals = np.clip(evals, 0.0, None)
            herm = (evecs * evals) @ evecs.conj().T
            herm = herm / herm.trace()
        return cls(herm, validate=False)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class SteadyStateOptions(NamedTuple):
    """The one option of :func:`steady_state`: ``check_unique`` runs the
    uniqueness probe. The residual bound is always
    :func:`residual_tolerance`."""

    check_unique: bool = True

    def resolve_method(self, dim: int) -> str:
        """The route of a solve, always ``sparse-direct``. Kept, with its
        unused ``dim``, because the benchmark's tracer calls
        ``resolve_method(L.dim)``."""
        return "sparse-direct"


class SteadyStateSolveReport(NamedTuple):
    """What a steady-state solve did: its route, the residual its gate
    measured and the probe's ``uniqueness_ratio`` (None without a probe)."""

    method: str
    residual: float
    uniqueness_ratio: float | None


def residual_tolerance(L: Liouvillian) -> float:
    """The absolute residual bound of the LU and GMRES gates: 1e-10 times
    the superoperator scale, and at least 1e-10."""
    return 1e-10 * max(L.scale, 1.0)


def accept_steady_state(L: Liouvillian, raw, method: str, uniqueness_ratio: float | None):
    """The acceptance gate of every LU and GMRES candidate (the closed form
    has its O(D) gate, ``models.accept_banded_state``): the D x D
    ``raw`` passes through ``DensityMatrix.from_raw`` (Hermiticity, trace,
    PSD floor), and its residual must stay within
    :func:`residual_tolerance` or NoConvergence is raised. Returns
    ``(DensityMatrix, SteadyStateSolveReport)``."""
    bound = residual_tolerance(L)
    rho = DensityMatrix.from_raw(raw)
    residual = L.residual(rho.matrix)
    if residual > bound:
        raise NoConvergence(
            f"steady-state residual {residual:.3e} above tolerance {bound:.3e} "
            f"(method {method})"
        )
    return rho, SteadyStateSolveReport(method, residual, uniqueness_ratio)


def steady_state(L: Liouvillian, opts: SteadyStateOptions | None = None):
    """Stationary density matrix of L, with a solve report:
    ``(DensityMatrix, SteadyStateSolveReport)``. Raises NonUniqueSteadyState
    when the uniqueness probe finds a second near-stationary direction,
    NoConvergence when the residual target cannot be met. It is
    :func:`_lu_steady_state` on one BLAS thread."""
    import scipy.sparse.linalg  # noqa: F401 (loads scipy's OpenBLAS before the scope)

    with _single_blas_thread():
        solved, _ = _lu_steady_state(L, (opts or SteadyStateOptions()).check_unique)
    return solved


def _lu_steady_state(L: Liouvillian, check_unique: bool):
    """The one LU step, in the caller's BLAS scope: ``((rho, report), factor)``.
    A singular factor, or with ``check_unique`` a probe ratio at or below
    :func:`uniqueness_threshold`, raises NonUniqueSteadyState."""
    import scipy.sparse.linalg as spla  # deferred: a closed-form run never loads it

    M, b, scale = _square_system(L)
    try:
        lu = spla.splu(M)
    except RuntimeError as exc:  # exactly singular factor
        raise NonUniqueSteadyState(f"trace-row system is singular ({exc})") from exc
    x = lu.solve(b)
    x = x + lu.solve(b - M @ x)  # one refinement sweep

    uniq = None
    if check_unique:
        uniq = _uniqueness_probe(lu, M.shape[0], scale)
        if uniq <= uniqueness_threshold(L.dim ** 2):
            raise NonUniqueSteadyState(
                f"second stationary direction at relative level {uniq:.2e}"
            )
    return accept_steady_state(L, unvectorize(x, L.dim), "sparse-direct", uniq), lu


def _square_system(L: Liouvillian):
    """The superoperator with row 0 replaced by the trace row times the
    scale, and the matching right-hand side scale * e_0."""
    import scipy.sparse as sp  # deferred: a closed-form run never loads it

    dim, scale = L.dim, max(L.scale, 1e-300)
    trace_row = sp.csr_array((np.full(dim, scale, dtype=np.complex128),
                              (np.zeros(dim, dtype=int), np.arange(dim) * (dim + 1))),
                             shape=(1, dim * dim))
    M = sp.vstack([trace_row, L.superoperator[1:]], format="csc")
    b = np.zeros(M.shape[0], dtype=np.complex128)
    b[0] = scale
    return M, b, scale


def _uniqueness_probe(lu, n: int, scale: float) -> float:
    """Smallest singular value of the trace-row system over its scale, by
    inverse iteration on M^H M with the factor of M. A unique steady state
    keeps it far above round-off; a second stationary direction drives it
    to zero."""
    v = np.ones(n, dtype=np.complex128) / math.sqrt(n)
    sigma = math.inf
    for _ in range(PROBE_MAX_STEPS):
        w = lu.solve(lu.solve(v, trans="H"))
        norm = float(np.linalg.norm(w))
        previous, sigma = sigma, 1.0 / math.sqrt(norm)
        v = w / norm
        if abs(sigma - previous) <= PROBE_RTOL * sigma:
            break
    return sigma / scale


# OpenBLAS copies bundled with the numpy and scipy wheels, with the suffix
# of each copy's thread-count symbols
_OPENBLAS = (("numpy", "64_"), ("scipy", ""))
# package -> (ctypes handle, symbol suffix) of each copy found loaded; the
# handles are kept for the process's life
_LOADED = {}


@functools.cache
def _openblas_paths(package: str) -> tuple:
    """The OpenBLAS copies bundled with ``package``, located without
    importing it."""
    import glob  # deferred: a closed-form run never holds the BLAS threads

    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        return ()
    root = os.path.dirname(spec.submodule_search_locations[0])
    return tuple(glob.glob(os.path.join(root, f"{package}.libs", "libscipy_openblas*.so")))


def openblas_libraries() -> dict:
    """package -> (ctypes handle, symbol suffix) for each bundled OpenBLAS
    copy loaded in this process. A copy is opened with RTLD_NOLOAD, so
    none is loaded here: numpy's comes with numpy, scipy's only with
    scipy's linear algebra. Each handle is kept."""
    for package, suffix in _OPENBLAS:
        for path in () if package in _LOADED else _openblas_paths(package):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:  # not loaded
                continue
            if hasattr(lib, f"scipy_openblas_set_num_threads{suffix}"):
                getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                _LOADED[package] = (lib, suffix)
    return dict(_LOADED)


def blas_thread_counts() -> dict:
    """Thread count of each bundled OpenBLAS copy loaded in this process."""
    return {package: int(getattr(lib, f"scipy_openblas_get_num_threads{suffix}")())
            for package, (lib, suffix) in openblas_libraries().items()}


def set_blas_threads(counts: dict):
    """Set the thread count of each loaded copy that ``counts`` names, as
    ``blas_thread_counts`` names them."""
    for package, (lib, suffix) in openblas_libraries().items():
        if package in counts:
            getattr(lib, f"scipy_openblas_set_num_threads{suffix}")(counts[package])


@contextmanager
def _single_blas_thread():
    """One thread in each loaded OpenBLAS copy for the duration, then the
    counts found on entry. A copy loaded meanwhile is not held, so a
    function that needs scipy's linear algebra imports it first. The LU
    solves and the dense work of a Krylov propagation (the inverse and the
    eigendecomposition of m x m matrices, m ~ 100) and of a state (the eigh
    of ``DensityMatrix.from_raw`` in each gate and ``min_eigenvalue``;
    D x D with D <= 401) are too small for a second
    thread to pay: measured on 2 cores, scipy's expm of an 80 x 80 matrix
    took 94 ms with two threads and 2.8 ms with one. The scope is for
    processes whose copies run more than one thread: library callers, and
    a ``dicke-lab`` caller who sets an OpenBLAS thread variable; a plain
    ``dicke-lab`` process loads each copy with one thread (see ``cli``)."""
    previous = blas_thread_counts()
    set_blas_threads(dict.fromkeys(previous, 1))
    try:
        yield
    finally:
        set_blas_threads(previous)


def nested_steady_state(L: Liouvillian, embed: np.ndarray):
    """Stationary states of L and of its block on the ascending entries
    ``embed`` (rows and columns of the superoperator; ``embed[0] = 0``, so
    the trace rows meet), itself a Liouvillian, as the atom+cavity model at
    a lower Fock cutoff is: ``((block_rho, block_report), (rho, report))``.

    The block is solved by :func:`_lu_steady_state`, with the uniqueness
    probe, as :func:`steady_state` solves it. L is then solved by restarted
    GMRES (GMRES_RESTART vectors, up to GMRES_MAX_RESTARTS cycles) on its
    trace-row system, to GMRES_RTOL of its right-hand side, from the
    block's state padded with zeros. Its left preconditioner applies the
    block's factor on the embedded entries, with row 0 rescaled from the
    block's trace-row scale to L's, and divides every other entry by its
    diagonal. No factor of L is made and no probe runs on it: the block's
    probe stands for it. Both candidates pass :func:`accept_steady_state`,
    each within its own :func:`residual_tolerance`; a GMRES that does not
    converge raises NoConvergence. Everything runs on one BLAS thread.
    """
    import logging  # deferred, as scipy: a closed-form run never logs
    import scipy.sparse.linalg as spla  # deferred: a closed-form run never loads it

    block = Liouvillian(dim=math.isqrt(embed.size),
                        superoperator=L.superoperator[embed][:, embed])
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    with _single_blas_thread():
        inner, factor = _lu_steady_state(block, True)
        M, b, scale = _square_system(L)
        M = M.tocsr()  # GMRES only multiplies by it
        rest = np.ones(M.shape[0], dtype=bool)
        rest[embed] = False
        inverse_diagonal = np.zeros(M.shape[0], dtype=np.complex128)
        inverse_diagonal[rest] = 1.0 / M.diagonal()[rest]
        rescale = max(block.scale, 1e-300) / scale

        def precondition(r):
            z = r * inverse_diagonal
            part = r[embed]
            part[0] *= rescale
            z[embed] = factor.solve(part)
            return z

        x0 = np.zeros(M.shape[0], dtype=np.complex128)
        x0[embed] = vectorize(inner[0].matrix)
        x, info = spla.gmres(M, b, x0=x0, rtol=GMRES_RTOL, restart=GMRES_RESTART,
                             maxiter=GMRES_MAX_RESTARTS,
                             M=spla.LinearOperator(M.shape, precondition, dtype=np.complex128),
                             callback=count, callback_type="pr_norm")
    logging.getLogger(__name__).debug(
        "nested steady state: %d unknowns, %d GMRES iterations, info %d",
        M.shape[0], iterations, info)
    if info != 0:
        raise NoConvergence(
            f"GMRES did not reach {GMRES_RTOL:.0e} of the right-hand side within "
            f"{GMRES_MAX_RESTARTS} restarts of {GMRES_RESTART} ({iterations} iterations)"
        )
    return inner, accept_steady_state(L, unvectorize(x, L.dim), "gmres", None)


class PropagationReport(NamedTuple):
    """What one Krylov propagation did: the basis size and the entries
    stored for L + U of the shifted factor. The last change seen by the
    stop rule goes to the DEBUG log only."""

    krylov_dim: int
    lu_nnz: int


def _decaying_modes(A: np.ndarray, beta: float) -> tuple:
    """(lambda, W, c) of the modes of A = W diag(lambda) W^{-1} that decay
    (Re lambda < 0 and |lambda| > RATE_FLOOR |A|), with c = W^{-1} beta e_1."""
    lam, W = np.linalg.eig(A)
    c = np.linalg.solve(W, np.eye(A.shape[0], 1, dtype=np.complex128)[:, 0] * beta)
    floor = RATE_FLOOR * max(float(np.abs(lam).max()), 1e-300)
    keep = (lam.real < 0.0) & (np.abs(lam) > floor)
    return lam[keep], W[:, keep], c[keep]


def _pole_transform(A: np.ndarray, beta: float, seen: np.ndarray, omega: np.ndarray):
    """The one-sided transform of seen beta exp(t A) e_1 on the decaying
    modes of A, one column per omega, and its poles and weights
    ``(lambda, w)``, w = (seen W) o c: the transform is
    sum_k w_k/(-lambda_k - i omega), formed in O(m K)."""
    lam, W, c = _decaying_modes(A, beta)
    w = (seen @ W) * c
    return w @ (1.0 / (-lam[:, None] - 1j * omega[None, :])), (lam, w)


def _propagate(S: sp.csr_array, y0: np.ndarray, h: float, observe: np.ndarray,
               omega: np.ndarray, relative: float):
    """The decaying poles of observe exp(t S) y0 by shift-invert Krylov with
    the shift ``h``: ``((lambda, w), report)`` of :func:`_pole_transform`,
    w being (p, k) for the (p, n) functionals ``observe``.

    The basis grows until the transform on the grid ``omega`` changes by
    at most ``relative`` times its largest magnitude from one check to the
    next, or until it spans an invariant subspace; past KRYLOV_MAX_DIM
    vectors it raises NoConvergence. A zero start stays zero and has no
    poles. The caller holds one BLAS thread around it.
    """
    import logging  # deferred, as scipy: a closed-form run never logs
    import scipy.sparse as sp  # deferred: a closed-form run never loads it
    import scipy.sparse.linalg as spla

    beta = float(np.linalg.norm(y0))
    if beta == 0.0:
        return ((np.zeros(0, dtype=np.complex128),
                 np.zeros((observe.shape[0], 0), dtype=np.complex128)),
                PropagationReport(krylov_dim=0, lu_nnz=0))

    n = y0.size
    lu = spla.splu((sp.identity(n, dtype=np.complex128, format="csc") - h * S).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1)
    lu_nnz = int(lu.nnz)  # lu.L and lu.U would copy both factors to count them

    V = np.empty((KRYLOV_MAX_DIM + 1, n), dtype=np.complex128)
    H = np.zeros((KRYLOV_MAX_DIM + 1, KRYLOV_MAX_DIM), dtype=np.complex128)
    seen = np.empty((observe.shape[0], KRYLOV_MAX_DIM), dtype=np.complex128)
    V[0] = y0 / beta
    F, change, limit = None, math.inf, math.nan
    check = KRYLOV_CHECK_EVERY
    for m in range(1, KRYLOV_MAX_DIM + 1):
        j = m - 1
        seen[:, j] = observe @ V[j]
        w = lu.solve(V[j])
        size = float(np.linalg.norm(w))
        for _ in range(2):  # classical Gram-Schmidt, repeated once
            c = np.conj(V[:m] @ np.conj(w))
            w -= c @ V[:m]
            H[:m, j] += c
        H[m, j] = np.linalg.norm(w)
        invariant = H[m, j].real <= BREAKDOWN_RTOL * size

        if invariant or m == check or m == KRYLOV_MAX_DIM:
            check = m + max(KRYLOV_CHECK_EVERY, m // 8)
            A = (np.eye(m) - np.linalg.inv(H[:m, :m])) / h
            previous = F
            F, poles = _pole_transform(A, beta, seen[:, :m], omega)
            limit = relative * float(np.abs(F).max())
            if previous is not None:
                change = float(np.linalg.norm(F - previous, axis=0).max())
            if invariant or change <= limit:
                break
        V[m] = w / H[m, j]
    else:
        raise NoConvergence(
            f"spectrum propagation did not converge within {KRYLOV_MAX_DIM} Krylov "
            f"vectors: last change {change:.3e} above {limit:.3e}"
        )

    logging.getLogger(__name__).debug(
        "spectrum propagation: Krylov dimension %d, L+U nonzeros %d, last change %.3e "
        "(tolerance %.3e)", m, lu_nnz, 0.0 if previous is None else change, limit)
    return poles, PropagationReport(krylov_dim=m, lu_nnz=lu_nnz)


def _connected_start(L: Liouvillian, rho_ss: DensityMatrix, A, B) -> tuple:
    """(start, observe, floor) of <A(0) B(tau)> - <A><B>: the connected
    operator rho_ss A - <A> rho_ss, trace(B .) as a (1, D^2) row, and the
    start's round-off eps D |<A B>|."""
    import scipy.sparse as sp  # deferred: a closed-form run never loads it

    A_mat = A.toarray() if sp.issparse(A) else np.asarray(A)
    B_mat = B.toarray() if sp.issparse(B) else np.asarray(B)
    if A_mat.shape[0] != L.dim or B_mat.shape[0] != L.dim:
        raise ValueError("operator dimension does not match the Liouvillian")
    rho = rho_ss.matrix
    X0 = rho @ A_mat
    floor = np.finfo(float).eps * L.dim * abs(np.einsum("ij,ji->", B_mat, X0))
    observe = vectorize(B_mat.T)[None, :]  # trace(B X) = vec(B^T) . vec(X)
    return vectorize(X0 - X0.trace() * rho), observe, floor


def two_time_correlator(L: Liouvillian, rho_ss: DensityMatrix, A, B, omega, shift: float):
    """The connected correlator <A(0) B(tau)> - <A><B> as
    sum_k w_k exp(lambda_k tau): ``(lambda, w, PropagationReport)``. Its
    one-sided transform is the sum of Lorentzians sum_k w_k/(-lambda_k - i omega),
    and sum_k w_k is its tau = 0 value. w_k = (seen W)_k (W^{-1} beta e_1)_k
    from A_m = W diag(lambda) W^{-1} of :func:`_propagate` with the Krylov
    shift ``shift``, seen being trace(B .) on the basis; only decaying modes
    are kept (:func:`_decaying_modes`). The basis grows until the transform
    on the grid ``omega`` changes by at most max(SPECTRUM_RTOL,
    floor/|C(0)|) times its largest magnitude between checks; floor/|C(0)|
    is the relative round-off of the start (see :func:`_connected_start`),
    and 1 for a start below it. The kept weights must sum to the connected
    start C(0) within the same share of max(|C(0)|, floor), or NoConvergence
    is raised: a dropped mode that held weight would bias every frequency,
    while a start below its round-off may sit on the stationary mode, which
    no kept pole carries. A zero start (A = 0) has no poles and a report of
    Krylov dimension 0. The dense work runs on one BLAS thread."""
    import scipy.sparse.linalg  # noqa: F401 (loads scipy's OpenBLAS before the scope)

    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    with _single_blas_thread():
        start, observe, floor = _connected_start(L, rho_ss, A, B)
        c0 = complex((observe @ start)[0])
        relative = max(SPECTRUM_RTOL, floor / abs(c0) if abs(c0) > floor else 1.0)
        (lam, w), report = _propagate(L.superoperator, start, shift, observe, omega, relative)
    w = w[0]
    total = complex(w.sum())
    if not abs(total - c0) <= relative * max(abs(c0), floor):
        raise NoConvergence(
            f"spectrum propagation: the {lam.size} decaying poles of {report.krylov_dim} "
            f"Krylov vectors sum to {total:.6e}, not the connected start {c0:.6e} "
            f"(allowed {relative:.0e} of it)"
        )
    return lam, w, report
