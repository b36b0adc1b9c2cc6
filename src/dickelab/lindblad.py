"""Finite-dimensional Lindblad machinery.

Superoperators act on column-stacked density matrices: ``vec`` flattens in
Fortran order, so vec(A X B) = (B^T kron A) vec(X). Under that convention

    d vec(rho)/dt = [ -i (I kron H - H^T kron I)
                      + sum_k r_k ( conj(C_k) kron C_k
                                    - 1/2 I kron C_k^dag C_k
                                    - 1/2 (C_k^dag C_k)^T kron I ) ] vec(rho)

Steady states come from one sparse LU of the square system M, the
superoperator with its first row (the equation for rho_00) replaced by the
scaled trace row, then one refinement sweep. Trace preservation makes the
diagonal-entry rows sum to zero, so the replaced row carries no
information, and M is nonsingular exactly when the steady state is unique.
The same factor gives the uniqueness probe by inverse iteration. The Dicke
Liouvillian is narrow-banded, so fill-in stays small. The model caps
(``models.DICKE_ATOM_CAP``, ``models.CAVITY_PRODUCT_CAP``) are the only
size limit. (The resonant Dicke model also has an exact steady state,
``models.resonant_steady_state``, which the sweeps use for delta = 0.)

Every candidate, from the LU or from the closed form, passes the same
gate, :func:`accept_steady_state`.

Time evolution and the regression correlator share one propagator, the
shift-invert (rational) Krylov approximation of exp(t L) of van den
Eshof & Hochbruck (SIAM J. Sci. Comput. 27, 1438 (2006)). I - h L is
factored once by sparse LU (COLAMD ordering), with the shift h the last
grid time over KRYLOV_SHIFT_STEPS (4 steps of the default 512-point lag
grid). Arnoldi on (I - h L)^{-1}, with full reorthogonalization, builds
an orthonormal basis V_m and a Hessenberg H_m; the projected generator is
A_m = (I - H_m^{-1}) / h, and exp(t L) y ~ |y| V_m exp(t A_m) e_1. On the
grid, exp(dt A_m) comes from ``scipy.linalg.expm`` once per run of equal
steps and is applied by repeated products; A_m is not diagonalized to
propagate, since its eigenvectors are ill-conditioned. The fast
collective modes (rates of order N^2 gamma) are damped by the inverse, so
they set no step size. Every few vectors
the values on the whole grid are recomputed; the basis stops growing when
they change by no more than the caller's stop rule, or when it spans an
invariant subspace, where the result is exact. More than KRYLOV_MAX_DIM
vectors raise NoConvergence.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import logging
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NoConvergence, NonUniqueSteadyState, SolverError

logger = logging.getLogger(__name__)

# eigenvalues of a solver candidate in (PSD_FLOOR, 0) are rounding noise
PSD_FLOOR = -1e-8

# inverse-iteration stopping rule of the uniqueness probe
PROBE_RTOL = 1e-2
PROBE_MAX_STEPS = 10

# shift-invert Krylov propagation: the shift is the last grid time over
# KRYLOV_SHIFT_STEPS; a basis that needs more than KRYLOV_MAX_DIM vectors
# is a NoConvergence. The stop rule is checked every KRYLOV_CHECK_EVERY
# vectors, or every eighth of the basis once that is more. Its tolerances
# are relative changes between checks: of the connected correlator on its
# lag grid, and of the evolved state. A subspace whose next Arnoldi
# vector is below BREAKDOWN_RTOL of its solve is invariant.
KRYLOV_SHIFT_STEPS = 128
KRYLOV_MAX_DIM = 300
KRYLOV_CHECK_EVERY = 4
CORRELATOR_RTOL = 1e-10
EVOLVE_RTOL = 1e-12
BREAKDOWN_RTOL = 1e-12
# decay rates of a projected generator below this share of its norm are
# its stationary mode
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


@dataclass(frozen=True)
class Liouvillian:
    """Sparse D^2 x D^2 generator of a D-dimensional system."""

    dim: int
    superoperator: sp.csr_array

    @property
    def scale(self) -> float:
        """Infinity norm of the superoperator (max absolute row sum)."""
        return _inf_norm(self.superoperator)

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """Action on a density-matrix-shaped operator."""
        return unvectorize(self.superoperator @ vectorize(mat), self.dim)

    def residual(self, mat: np.ndarray) -> float:
        return float(np.linalg.norm(self.superoperator @ vectorize(mat)))


def _inf_norm(s: sp.csr_array) -> float:
    return float(abs(s).sum(axis=1).max())


def _square_operator(x) -> sp.csr_array:
    """Any dense or sparse square matrix as a complex CSR array."""
    mat = sp.csr_array(x, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"operator must be a square 2D matrix, got shape {mat.shape}")
    return mat


def build_liouvillian(H, collapse) -> Liouvillian:
    """Assemble the vectorized generator from H and (rate, C) pairs.

    H and each C may be any dense or sparse square matrix. Rates must be
    non-negative; every operator must share the Hilbert dimension of H.
    """
    Hs = _square_operator(H)
    dim = Hs.shape[0]
    eye = sp.identity(dim, dtype=np.complex128, format="csr")

    gen = -1j * (sp.kron(eye, Hs, format="csr") - sp.kron(Hs.T, eye, format="csr"))
    for rate, C in collapse:
        if rate < 0:
            raise ValueError(f"collapse rate must be non-negative, got {rate}")
        Cs = _square_operator(C)
        if Cs.shape[0] != dim:
            raise ValueError(
                f"collapse operator dimension {Cs.shape[0]} != Hamiltonian dimension {dim}"
            )
        CdC = (Cs.conj().T @ Cs).tocsr()
        gen = gen + rate * (
            sp.kron(Cs.conj(), Cs, format="csr")
            - 0.5 * sp.kron(eye, CdC, format="csr")
            - 0.5 * sp.kron(CdC.T, eye, format="csr")
        )
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

    def validate(self, atol=1e-12):
        """Hermiticity and unit trace within ``atol``, no eigenvalue below
        ``PSD_FLOOR``; ValueError otherwise."""
        scale = max(1.0, float(np.abs(self.matrix).max()))
        herm_dev = float(np.abs(self.matrix - self.matrix.conj().T).max())
        if herm_dev > atol * scale:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
        trace_dev = abs(self.matrix.trace() - 1.0)
        if trace_dev > atol:
            raise ValueError(f"trace differs from 1 by {trace_dev:.3e}")
        min_eig = self.min_eigenvalue()
        if min_eig < PSD_FLOOR:
            raise ValueError(f"minimum eigenvalue {min_eig:.3e} below floor {PSD_FLOOR:.1e}")

    def min_eigenvalue(self) -> float:
        herm = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(herm)[0])

    @classmethod
    def from_raw(cls, mat) -> "DensityMatrix":
        """Build from a raw solver vector: hermitize, normalize the trace,
        and floor eigenvalues in (PSD_FLOOR, 0). Larger PSD violations are
        a solver failure, not rounding noise to be masked."""
        mat = np.asarray(mat, dtype=np.complex128)
        herm = 0.5 * (mat + mat.conj().T)
        tr = herm.trace()
        if abs(tr) < 1e-6 * max(np.abs(herm).max(), 1e-300):
            raise SolverError("steady-state candidate is (nearly) traceless")
        herm = herm / tr
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


def expect(rho, A) -> complex:
    """trace(A rho). Real to machine precision for Hermitian A."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    if not sp.issparse(A):
        A = np.asarray(A)
    if A.shape[0] != mat.shape[0]:
        raise ValueError(f"dimension mismatch: operator {A.shape[0]}, state {mat.shape[0]}")
    if sp.issparse(A):
        return complex(A.multiply(mat.T).sum())
    return complex(np.einsum("ij,ji->", A, mat))


def trace_distance(rho, sigma) -> float:
    """Half the nuclear norm of the difference."""
    a = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    b = sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma)
    diff = 0.5 * ((a - b) + (a - b).conj().T)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


@dataclass
class SteadyStateOptions:
    """Knobs for :func:`steady_state`.

    ``tol`` is an absolute residual bound; None means the default of
    :func:`residual_tolerance`. ``check_unique`` runs the uniqueness probe.
    """

    tol: float | None = None
    check_unique: bool = True

    def resolve_method(self, dim: int) -> str:
        """The route of a solve, always ``sparse-direct``. Kept, with its
        unused ``dim``, because the benchmark's tracer calls
        ``resolve_method(L.dim)``."""
        return "sparse-direct"


@dataclass(frozen=True)
class SteadyStateSolveReport:
    method: str
    residual: float
    wall_time: float
    uniqueness_ratio: float | None = None


def residual_tolerance(L: Liouvillian, tol: float | None) -> float:
    """``tol``, or by default 1e-10 times the superoperator scale (and at
    least 1e-10)."""
    return tol if tol is not None else 1e-10 * max(L.scale, 1.0)


def accept_steady_state(L: Liouvillian, raw, method: str, t0: float,
                        tol: float | None, uniqueness_ratio: float | None):
    """The acceptance gate of every steady-state candidate: the D x D
    ``raw`` passes through ``DensityMatrix.from_raw`` (Hermiticity, trace,
    PSD floor), and its residual must stay within
    :func:`residual_tolerance` or NoConvergence is raised. Returns
    ``(DensityMatrix, SteadyStateSolveReport)``, timed from ``t0``."""
    tol = residual_tolerance(L, tol)
    rho = DensityMatrix.from_raw(raw)
    residual = L.residual(rho.matrix)
    wall = time.perf_counter() - t0
    if residual > tol:
        raise NoConvergence(
            f"steady-state residual {residual:.3e} above tolerance {tol:.3e} "
            f"(method {method})"
        )
    return rho, SteadyStateSolveReport(
        method=method,
        residual=residual,
        wall_time=wall,
        uniqueness_ratio=uniqueness_ratio,
    )


def _trace_row(dim: int) -> sp.csr_array:
    cols = np.arange(dim) * (dim + 1)
    data = np.ones(dim, dtype=np.complex128)
    return sp.csr_array((data, (np.zeros(dim, dtype=int), cols)), shape=(1, dim * dim))


def steady_state(L: Liouvillian, opts: SteadyStateOptions | None = None):
    """Stationary density matrix of L, with a solve report.

    Returns ``(DensityMatrix, SteadyStateSolveReport)``. Raises
    NonUniqueSteadyState when the uniqueness probe finds a second
    near-stationary direction, NoConvergence when the residual target
    cannot be met.
    """
    if opts is None:
        opts = SteadyStateOptions()

    t0 = time.perf_counter()
    raw, uniq = _solve_sparse_direct(L, opts)
    if opts.check_unique and uniq <= uniqueness_threshold(L.dim ** 2):
        raise NonUniqueSteadyState(
            f"second stationary direction at relative level {uniq:.2e}"
        )
    return accept_steady_state(L, unvectorize(raw, L.dim), "sparse-direct", t0, opts.tol, uniq)


def _square_system(L: Liouvillian):
    """The superoperator with row 0 replaced by the trace row times the
    scale, and the matching right-hand side scale * e_0."""
    scale = max(L.scale, 1e-300)
    M = sp.vstack([_trace_row(L.dim) * scale, L.superoperator[1:]], format="csc")
    b = np.zeros(M.shape[0], dtype=np.complex128)
    b[0] = scale
    return M, b, scale


def _solve_sparse_direct(L: Liouvillian, opts: SteadyStateOptions):
    import scipy.sparse.linalg as spla  # deferred: a closed-form run never loads it

    M, b, scale = _square_system(L)
    try:
        lu = spla.splu(M)
    except RuntimeError as exc:  # exactly singular factor
        raise NonUniqueSteadyState(
            f"trace-row system is singular ({exc})"
        ) from exc
    x = lu.solve(b)
    x = x + lu.solve(b - M @ x)  # one refinement sweep

    uniq = None
    if opts.check_unique:
        uniq = _uniqueness_probe(lu, M.shape[0], scale)
    return x, uniq


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


def openblas_libraries() -> dict:
    """package -> (ctypes handle, symbol suffix) for each bundled OpenBLAS
    copy that is found. Opening a copy that is already loaded returns the
    loaded one."""
    libs = {}
    for package, suffix in _OPENBLAS:
        root = os.path.dirname(os.path.dirname(importlib.import_module(package).__file__))
        for path in glob.glob(os.path.join(root, f"{package}.libs", "libscipy_openblas*.so")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            if hasattr(lib, f"scipy_openblas_set_num_threads{suffix}"):
                libs[package] = (lib, suffix)
    return libs


def blas_thread_counts() -> dict:
    """Thread count of each bundled OpenBLAS copy in this process."""
    return {package: int(getattr(lib, f"scipy_openblas_get_num_threads{suffix}")())
            for package, (lib, suffix) in openblas_libraries().items()}


def set_blas_threads(counts: dict):
    """Set the thread count of each copy, as ``blas_thread_counts`` names them."""
    for package, (lib, suffix) in openblas_libraries().items():
        getattr(lib, f"scipy_openblas_set_num_threads{suffix}")(counts[package])


@contextmanager
def _single_blas_thread():
    """One thread in each bundled OpenBLAS copy for the duration, then the
    previous counts. The dense work of a Krylov propagation is on m x m
    matrices (m ~ 100), and that of a serial sweep (the eigh of each
    steady-state gate) on D x D ones with D <= 401, where a second thread
    costs more than it gives: measured on 2 cores, expm of an 80 x 80
    matrix took 94 ms with two threads and 2.8 ms with one."""
    previous = blas_thread_counts()
    set_blas_threads(dict.fromkeys(previous, 1))
    try:
        yield
    finally:
        set_blas_threads(previous)


def _ascending_grid(grid, name: str) -> np.ndarray:
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise ValueError(f"{name} must be strictly increasing and non-negative")
    return grid


@dataclass(frozen=True)
class PropagationReport:
    """What one Krylov propagation did: the basis size, the nonzeros of
    L + U of the shifted factor, the last change seen by the stop rule,
    and the slowest nonzero decay rate of the projected generator (None
    when no mode of the basis decays)."""

    krylov_dim: int
    lu_nnz: int
    change: float
    slowest_rate: float | None


def _grid_coefficients(A: np.ndarray, t_grid: np.ndarray, beta: float) -> np.ndarray:
    """beta exp(t A) e_1 at each t of the ascending grid, one column per
    point. A run of equal grid steps costs one expm of the step E and
    about 2 log2(run) products: the block of columns E y, ..., E^s y is
    extended by E^s times itself."""
    from scipy.linalg import expm

    y = np.zeros(A.shape[0], dtype=np.complex128)
    y[0] = beta
    steps = np.diff(t_grid, prepend=0.0)
    same = 8 * np.finfo(float).eps * t_grid[-1]
    blocks, k = [], 0
    while k < steps.size:
        run = 1
        while k + run < steps.size and abs(steps[k + run] - steps[k]) <= same:
            run += 1
        if steps[k] == 0.0:  # a first grid point at t = 0
            block = y[:, None]
        else:
            power = expm(steps[k] * A)
            block = (power @ y)[:, None]
            while block.shape[1] < run:
                block = np.hstack([block, power @ block])
                power = power @ power
            block = block[:, :run]
        blocks.append(block)
        y = block[:, -1]
        k += run
    return np.hstack(blocks)


def _slowest_rate(A: np.ndarray) -> float | None:
    lam = np.linalg.eigvals(A)
    rates = -lam.real
    decaying = rates[rates > RATE_FLOOR * max(float(np.abs(lam).max()), 1e-300)]
    return float(decaying.min()) if decaying.size else None


@_single_blas_thread()
def _propagate(S: sp.csr_array, y0: np.ndarray, t_grid: np.ndarray, observe, tolerance,
               what: str):
    """exp(t S) y0 on an ascending grid by shift-invert Krylov.

    ``observe`` is a (p, n) array of functionals, or None to observe the
    coordinates of the state in the orthonormal basis (whose changes are
    those of the state). The basis grows until the observed values on the
    whole grid change by at most ``tolerance(values)`` from one check to
    the next, or until it spans an invariant subspace; past KRYLOV_MAX_DIM
    vectors NoConvergence names ``what``. The dense work runs on one BLAS
    thread. Returns
    ``(values, V, report)``: values (p or m, K), and the basis V as m
    rows of length n, so that the states are ``values.T @ V`` when
    ``observe`` is None.
    """
    import scipy.sparse.linalg as spla  # deferred: a closed-form run never loads it

    t_end = float(t_grid[-1])
    beta = float(np.linalg.norm(y0))
    if t_end == 0.0 or beta == 0.0:
        # the grid is [0], or the start is zero and stays so
        V = y0[None, :]
        coeffs = np.ones((1, t_grid.size), dtype=np.complex128)
        values = coeffs if observe is None else (observe @ y0)[:, None] * coeffs
        return values, V, PropagationReport(krylov_dim=0, lu_nnz=0, change=0.0,
                                            slowest_rate=None)

    n = y0.size
    h = t_end / KRYLOV_SHIFT_STEPS
    lu = spla.splu((sp.identity(n, dtype=np.complex128, format="csc") - h * S).tocsc())
    lu_nnz = int(lu.L.nnz + lu.U.nnz)

    V = np.empty((KRYLOV_MAX_DIM + 1, n), dtype=np.complex128)
    H = np.zeros((KRYLOV_MAX_DIM + 1, KRYLOV_MAX_DIM), dtype=np.complex128)
    seen = None if observe is None else np.empty((observe.shape[0], KRYLOV_MAX_DIM),
                                                  dtype=np.complex128)
    V[0] = y0 / beta
    values, previous, change, limit = None, None, math.inf, math.nan
    check = KRYLOV_CHECK_EVERY
    for m in range(1, KRYLOV_MAX_DIM + 1):
        j = m - 1
        if seen is not None:
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
            previous = values
            coeffs = _grid_coefficients(A, t_grid, beta)
            values = coeffs if seen is None else seen[:, :m] @ coeffs
            limit = tolerance(values)
            if previous is not None:
                diff = values.copy()
                diff[:previous.shape[0]] -= previous
                change = float(np.linalg.norm(diff, axis=0).max())
            if invariant or change <= limit:
                break
        V[m] = w / H[m, j]
    else:
        raise NoConvergence(
            f"{what} did not converge within {KRYLOV_MAX_DIM} Krylov vectors: "
            f"last change {change:.3e} above {limit:.3e}"
        )

    report = PropagationReport(krylov_dim=m, lu_nnz=lu_nnz,
                               change=0.0 if previous is None else change,
                               slowest_rate=_slowest_rate(A))
    logger.debug("%s: Krylov dimension %d, L+U nonzeros %d, last change %.3e "
                 "(tolerance %.3e), slowest decay rate %s", what, report.krylov_dim,
                 report.lu_nnz, report.change, limit, report.slowest_rate)
    return values, V[:m], report


def time_evolve(L: Liouvillian, rho0: DensityMatrix, t_grid):
    """Propagate rho0 along t_grid.

    Returns one DensityMatrix per grid point (the grid must be ascending
    and non-negative; t=0 returns the initial state). The propagator is
    the shift-invert Krylov one of :func:`_propagate`; the basis grows
    until no state on the grid changes by more than EVOLVE_RTOL times
    |rho0| (Frobenius) from one check to the next. States are
    checked, not repaired: trace and Hermiticity drift stay visible to the
    caller, which is why the stop rule is tight.
    """
    t_grid = _ascending_grid(t_grid, "t_grid")
    y0 = vectorize(rho0.matrix)
    limit = EVOLVE_RTOL * float(np.linalg.norm(y0))
    coeffs, V, _ = _propagate(L.superoperator, y0, t_grid, None, lambda _: limit,
                              "time evolution")
    states = []
    for y in coeffs.T @ V:
        dm = DensityMatrix(unvectorize(y, L.dim), validate=False)
        dm.validate(atol=1e-9)
        states.append(dm)
    return states


def two_time_correlator(L: Liouvillian, rho_ss: DensityMatrix, A, B, tau_grid, *,
                        full_output: bool = False):
    """Connected steady-state correlator <A(0) B(tau)> - <A><B> by quantum
    regression.

    Propagates the connected operator rho_ss A - <A> rho_ss under L and
    traces against B at each lag. The disconnected part <A><B> is never
    added, so its rounding does not enter the returned values. The
    connected start has no component on the stationary mode
    (exp(L tau) rho_ss = rho_ss and the trace is conserved), so the Krylov
    basis of :func:`_propagate` spans only decaying modes. The basis grows
    until the connected values on the lag grid change by at most
    max(CORRELATOR_RTOL max|C|, eps D |<A B>|) from one check to the next.
    The second term is the round-off of the connected start itself: a
    start below it is noise, and the propagation stops after a few
    vectors instead of resolving that noise.
    The tau=0 value equals <A B> - <A><B>. With ``full_output`` the return
    is ``(values, PropagationReport)``.
    """
    tau_grid = _ascending_grid(tau_grid, "tau_grid")
    A_mat = A.toarray() if sp.issparse(A) else np.asarray(A)
    B_mat = B.toarray() if sp.issparse(B) else np.asarray(B)
    if A_mat.shape[0] != L.dim or B_mat.shape[0] != L.dim:
        raise ValueError("operator dimension does not match the Liouvillian")

    rho = rho_ss.matrix
    X0 = rho @ A_mat
    mean_a = X0.trace()
    floor = np.finfo(float).eps * L.dim * abs(np.einsum("ij,ji->", B_mat, X0))
    observe = vectorize(B_mat.T)[None, :]  # trace(B X) = vec(B^T) . vec(X)
    connected, _, report = _propagate(
        L.superoperator, vectorize(X0 - mean_a * rho), tau_grid, observe,
        lambda C: max(CORRELATOR_RTOL * float(np.abs(C).max()), floor),
        "correlator propagation")
    return (connected[0], report) if full_output else connected[0]
