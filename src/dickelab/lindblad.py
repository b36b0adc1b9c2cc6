"""Finite-dimensional Lindblad machinery.

Superoperators act on column-stacked density matrices: ``vec`` flattens in
Fortran order, so vec(A X B) = (B^T kron A) vec(X). Under that convention

    d vec(rho)/dt = [ -i (I kron H - H^T kron I)
                      + sum_k r_k ( conj(C_k) kron C_k
                                    - 1/2 I kron C_k^dag C_k
                                    - 1/2 (C_k^dag C_k)^T kron I ) ] vec(rho)

Steady states are found by one of three routes. Every solve that names no
route takes ``sparse-direct``, at every dimension; the model caps
(``models.DICKE_ATOM_CAP``, ``models.CAVITY_PRODUCT_CAP``) are the only
size limit. The other two run only on request, as cross-checks. (The
resonant Dicke model also has an exact steady state,
``models.resonant_steady_state``; it is not a route here, and the sweeps
use it for delta = 0 unless a route is forced.)

* ``sparse-direct``: one sparse LU of the square system M, the
  superoperator with its first row (the equation for rho_00) replaced by
  the scaled trace row, then one refinement sweep. Trace preservation
  makes the diagonal-entry rows sum to zero, so the replaced row carries
  no information, and M is nonsingular exactly when the steady state is
  unique. The same factor gives the uniqueness probe by inverse
  iteration. The Dicke Liouvillian is narrow-banded, so fill-in stays
  small.
* ``dense-nullspace``: full SVD of the dense superoperator; the null
  vector and the spectral gap come out together. It is the independent
  reference for the other two.
* ``long-time-integration``: window-doubled propagation of a maximally
  mixed state until the residual settles. Explicit stepping, so it is
  the slow path.

Every candidate, from a route or from the closed form, passes the same
gate, :func:`accept_steady_state`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NoConvergence, NonUniqueSteadyState, SolverError

ROUTES = ("dense-nullspace", "sparse-direct", "long-time-integration")

# eigenvalues of a solver candidate in (PSD_FLOOR, 0) are rounding noise
PSD_FLOOR = -1e-8
# long-time-integration controls
INTEGRATION_MAX_WINDOWS = 12
INTEGRATION_RTOL = 1e-10

# inverse-iteration stopping rule of the uniqueness probe
PROBE_RTOL = 1e-2
PROBE_MAX_STEPS = 10


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
    :func:`residual_tolerance`. ``method`` (one of ``ROUTES``) forces a
    route; None means ``sparse-direct``.
    """

    tol: float | None = None
    method: str | None = None
    check_unique: bool = True

    def resolve_method(self, dim: int) -> str:
        """The route of a solve. The route does not depend on the Hilbert
        dimension; ``dim`` is kept only because the benchmark's tracer calls
        ``resolve_method(L.dim)``."""
        return self.method or "sparse-direct"


@dataclass(frozen=True)
class SteadyStateSolveReport:
    method: str
    residual: float
    iterations: int
    wall_time: float
    uniqueness_ratio: float | None = None


def residual_tolerance(L: Liouvillian, tol: float | None) -> float:
    """``tol``, or by default 1e-10 times the superoperator scale (and at
    least 1e-10)."""
    return tol if tol is not None else 1e-10 * max(L.scale, 1.0)


def accept_steady_state(L: Liouvillian, raw, method: str, t0: float,
                        tol: float | None, iterations: int,
                        uniqueness_ratio: float | None):
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
        iterations=iterations,
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
    NonUniqueSteadyState when the null-space probe finds a second
    near-stationary direction, NoConvergence when the residual target
    cannot be met.
    """
    if opts is None:
        opts = SteadyStateOptions()
    method = opts.resolve_method(L.dim)

    t0 = time.perf_counter()
    if method == "dense-nullspace":
        raw, iterations, uniq = _solve_dense(L, opts)
    elif method == "sparse-direct":
        raw, iterations, uniq = _solve_sparse_direct(L, opts)
    elif method == "long-time-integration":
        raw, iterations, uniq = _solve_integration(L, residual_tolerance(L, opts.tol))
    else:
        raise ValueError(f"unknown steady-state method {method!r}")

    if opts.check_unique and uniq is not None and uniq <= uniqueness_threshold(L.dim ** 2):
        raise NonUniqueSteadyState(
            f"second stationary direction at relative level {uniq:.2e}"
        )
    return accept_steady_state(L, unvectorize(raw, L.dim), method, t0, opts.tol,
                               iterations, uniq)


def _solve_dense(L: Liouvillian, opts: SteadyStateOptions):
    dense = L.superoperator.toarray()
    _, svals, vh = np.linalg.svd(dense)
    null_vec = vh[-1].conj()
    uniq = None
    if opts.check_unique and len(svals) >= 2:
        uniq = float(svals[-2] / max(svals[0], 1e-300))
    return null_vec, 0, uniq


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
    return x, 1, uniq


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


def _propagate(S: sp.csr_array, y0: np.ndarray, t_end: float, what: str, **kwargs):
    """DOP853 solution of dy/dt = S y from 0 to t_end, one column per
    output time. A failed integration raises NoConvergence naming ``what``."""
    from scipy.integrate import solve_ivp  # deferred: most runs never integrate

    sol = solve_ivp(lambda t, v: S @ v, (0.0, t_end), y0, method="DOP853", **kwargs)
    if not sol.success:
        raise NoConvergence(f"{what} failed: {sol.message}")
    return sol.y


def _solve_integration(L: Liouvillian, tol: float):
    dim = L.dim
    S = L.superoperator
    scale = max(L.scale, 1e-300)
    y = vectorize(np.eye(dim, dtype=np.complex128) / dim)

    window = 25.0 * dim / scale
    iterations = 0
    for _ in range(INTEGRATION_MAX_WINDOWS):
        y = _propagate(S, y, window, "integrator", t_eval=[window],
                       rtol=INTEGRATION_RTOL, atol=1e-14)[:, -1]
        iterations += 1
        if float(np.linalg.norm(S @ y)) <= 0.5 * tol * abs(np.sum(y[:: dim + 1]).real):
            return y, iterations, None
        window *= 2.0
    raise NoConvergence(
        f"long-time integration did not settle within {INTEGRATION_MAX_WINDOWS} windows"
    )


def time_evolve(L: Liouvillian, rho0: DensityMatrix, t_grid):
    """Propagate rho0 along t_grid with an adaptive high-order RK scheme.

    Returns one DensityMatrix per grid point (the grid must be ascending
    and non-negative; t=0 returns the initial state). States are checked,
    not repaired: trace and Hermiticity drift stay visible to the caller,
    which is why the tolerances are tight.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be strictly increasing and non-negative")
    S = L.superoperator
    y0 = vectorize(rho0.matrix)
    atol = 1e-14 * max(1.0, float(np.abs(y0).max()))

    t_end = float(t_grid[-1])
    if t_end == 0.0:
        return [DensityMatrix(rho0.matrix, validate=False)]
    ys = _propagate(S, y0, t_end, "time evolution", t_eval=t_grid, rtol=1e-12, atol=atol)
    states = []
    for k in range(ys.shape[1]):
        mat = unvectorize(ys[:, k], L.dim)
        dm = DensityMatrix(mat, validate=False)
        dm.validate(atol=1e-9)
        states.append(dm)
    return states


def two_time_correlator(L: Liouvillian, rho_ss: DensityMatrix, A, B, tau_grid):
    """Steady-state correlator <A(0) B(tau)> by quantum regression.

    Propagates rho_ss A under L and traces against B at each lag. The
    tau=0 value equals the one-time expectation of A B.
    """
    tau_grid = np.atleast_1d(np.asarray(tau_grid, dtype=float))
    if np.any(np.diff(tau_grid) <= 0) or tau_grid[0] < 0:
        raise ValueError("tau_grid must be strictly increasing and non-negative")

    A_mat = A.toarray() if sp.issparse(A) else np.asarray(A)
    B_mat = B.toarray() if sp.issparse(B) else np.asarray(B)
    if A_mat.shape[0] != L.dim or B_mat.shape[0] != L.dim:
        raise ValueError("operator dimension does not match the Liouvillian")

    X0 = rho_ss.matrix @ A_mat
    y0 = vectorize(X0)
    atol = 1e-13 * max(1.0, float(np.abs(y0).max()))
    S = L.superoperator

    # value at a lag: trace(B X) with X the propagated operator
    def overlap(v):
        X = unvectorize(v, L.dim)
        return complex(np.einsum("ij,ji->", B_mat, X))

    values = np.empty(tau_grid.size, dtype=np.complex128)
    start = 0
    if tau_grid[0] == 0.0:
        values[0] = overlap(y0)
        start = 1
    if start < tau_grid.size:
        ys = _propagate(S, y0, float(tau_grid[-1]), "correlator propagation",
                        t_eval=tau_grid[start:], rtol=1e-10, atol=atol)
        for k in range(ys.shape[1]):
            values[start + k] = overlap(ys[:, k])
    return values
