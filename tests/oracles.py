"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (matrix
products on basis elements, explicit scans, dense null spaces) and never
calls the code paths it is meant to verify.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import null_space


def _matrix(rho):
    """The array of a state: a ``DensityMatrix`` or any square array."""
    return np.asarray(getattr(rho, "matrix", rho))


def expect(rho, A):
    """trace(A rho) for a dense or sparse operator A."""
    mat = _matrix(rho)
    if A.shape[0] != mat.shape[0]:
        raise ValueError(f"dimension mismatch: operator {A.shape[0]}, state {mat.shape[0]}")
    A = A.toarray() if sp.issparse(A) else np.asarray(A)
    return complex(np.einsum("ij,ji->", A, mat))


def trace_distance(rho, sigma):
    """Half the sum of the absolute eigenvalues of the Hermitian part of
    the difference."""
    diff = _matrix(rho) - _matrix(sigma)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def superoperator_action(L, X):
    """L's superoperator applied to the column-stacked X, reshaped back."""
    D = X.shape[0]
    return (L.superoperator @ np.asarray(X, dtype=complex).flatten(order="F")).reshape(
        (D, D), order="F")


def spin_xy(ops):
    """(J_x, J_y) from the J_+ and J_- of ``ops``:
    J_x = (J_+ + J_-)/2 and J_y = (J_+ - J_-)/2i."""
    jp, jm = ops["J_plus"], ops["J_minus"]
    return 0.5 * (jp + jm), -0.5j * (jp - jm)


def dense_spin_ops(n_atoms):
    """Collective spin matrices built from the ladder formula, dense."""
    j = n_atoms / 2
    dim = n_atoms + 1
    m = np.arange(dim) - j
    jm = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        jm[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] - 1))
    jp = jm.conj().T
    return {
        "jm": jm,
        "jp": jp,
        "jx": 0.5 * (jp + jm),
        "jy": -0.5j * (jp - jm),
        "jz": np.diag(m.astype(complex)),
    }


def master_equation_action(H, collapse, X):
    """Right-hand side of the master equation applied to one operator."""
    out = -1j * (H @ X - X @ H)
    for rate, C in collapse:
        CdC = C.conj().T @ C
        out = out + rate * (C @ X @ C.conj().T - 0.5 * (CdC @ X + X @ CdC))
    return out


def brute_force_superoperator(H, collapse):
    """Column-stacked superoperator assembled by acting on matrix units."""
    D = H.shape[0]
    S = np.zeros((D * D, D * D), dtype=complex)
    for col in range(D):
        for row in range(D):
            E = np.zeros((D, D), dtype=complex)
            E[row, col] = 1.0
            S[:, col * D + row] = master_equation_action(H, collapse, E).flatten(order="F")
    return S


def brute_force_steady_state(H, collapse):
    """Steady state from the dense null space of the brute-force generator."""
    S = brute_force_superoperator(H, collapse)
    ns = null_space(S)
    if ns.shape[1] != 1:
        raise ValueError(f"null space dimension {ns.shape[1]}, expected 1")
    D = H.shape[0]
    rho = ns[:, 0].reshape((D, D), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / rho.trace()


def dicke_hamiltonian(ops, Delta, Omega, delta=0.0):
    H = -Delta * (ops["jp"] @ ops["jm"]) - (Omega * ops["jp"] + np.conj(Omega) * ops["jm"])
    if delta != 0.0:
        H = H - delta * ops["jz"]
    return H


def scan_transverse_variance(rho, ops, n_phi=10_000):
    """Minimal transverse variance by explicit angle scan.

    Builds the rotated transverse axes from the state's own mean spin and
    scans the variance of cos(phi) J'_x + sin(phi) J'_y on a dense grid.
    Returns (min variance, mean spin length).
    """
    means = np.array(
        [np.trace(ops[k] @ rho).real for k in ("jx", "jy", "jz")]
    )
    length = np.linalg.norm(means)
    direction = means / length
    # two explicit unit vectors orthogonal to the mean direction
    seed = np.array([1.0, 0.0, 0.0])
    if abs(direction @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(direction, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(direction, e1)

    cart = [ops["jx"], ops["jy"], ops["jz"]]
    op1 = sum(e1[i] * cart[i] for i in range(3))
    op2 = sum(e2[i] * cart[i] for i in range(3))

    best = np.inf
    for phi in np.linspace(0.0, np.pi, n_phi, endpoint=False):
        op = np.cos(phi) * op1 + np.sin(phi) * op2
        var = np.trace(op @ op @ rho).real - np.trace(op @ rho).real ** 2
        best = min(best, var)
    return best, length


def high_precision_resonant_state(n_atoms, Delta, Omega, gamma):
    """The delta = 0 steady state rho = X X^dag / tr(X X^dag), X = (J_- - beta)^{-1},
    beta = -Omega/(Delta + i gamma/2), in 60-digit mpmath, rounded to a
    dense complex matrix at the end. J_- - beta is upper bidiagonal, so
    X[i, k] = -u_k/(beta u_i) with u_k = prod_{l<k} a_l/beta (a_l the ladder
    amplitudes), and (X X^dag)[i, c] = T(i)/(|beta|^2 u_i conj(u_c)) for
    i >= c, T(i) = sum_{k>=i} |u_k|^2. With phi = arg(beta),
    u_k = |u_k| e^{-i k phi}: the magnitudes are taken in mpmath, whose
    exponent range holds every |u_k| (no logs), and the phase
    e^{i (i - c) phi} in double."""
    import mpmath

    dim = n_atoms + 1
    magnitude = np.zeros((dim, dim))
    with mpmath.workdps(60):
        beta = -mpmath.mpc(Omega) / (mpmath.mpf(Delta) + mpmath.mpc(0, 0.5) * gamma)
        if beta == 0:  # undriven: the collective ground state
            magnitude[0, 0] = 1.0
            return magnitude.astype(complex)
        j = mpmath.mpf(n_atoms) / 2
        u = [mpmath.mpf(1)]
        for i in range(n_atoms):
            m = -j + i + 1
            u.append(u[-1] * mpmath.sqrt(j * (j + 1) - m * (m - 1)) / abs(beta))
        tail = [x ** 2 for x in u]
        for i in range(n_atoms - 1, -1, -1):
            tail[i] += tail[i + 1]
        trace = mpmath.fsum(t / x ** 2 for t, x in zip(tail, u))
        for i in range(dim):
            row = tail[i] / (u[i] * trace)
            for c in range(i + 1):
                magnitude[i, c] = float(row / u[c])
        phi = float(mpmath.arg(beta))
    i, c = np.indices((dim, dim))
    rho = magnitude * np.exp(1j * (i - c) * phi)
    return rho + np.tril(rho, -1).conj().T
