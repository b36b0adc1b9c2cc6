"""Closed-form steady state of the resonant driven Dicke model.

For zero laser-atom detuning the stationary state of

    d rho/dt = -i[H, rho] + gamma (J_- rho J_+ - {J_+ J_-, rho}/2),
    H = -Delta J_+ J_- - (Omega J_+ + conj(Omega) J_-),

is rho = X X^dag / tr(X X^dag) with X = (J_- - beta)^{-1} and
beta = -Omega / (Delta + i gamma/2), the mean-field dipole (cooperative
resonance fluorescence: Puri & Lawande, Phys. Lett. A 72, 200 (1979);
Carmichael, J. Phys. B 13, 3551 (1980)). It holds below and above the
critical drive and for any drive phase.

J_- is strictly upper triangular in the Dicke basis m = -j ... +j, so X is
the triangular inverse -(1/beta) sum_k (J_-/beta)^k with entries
X[i, c] = -(1/beta) u_c / u_i, u_c = A(c) beta^(-c), where A(c) is the
running product of the ladder amplitudes. Then

    rho[i, k] ~ T(max(i, k)) / (u_i conj(u_k)),   T(k) = sum_{c >= k} |u_c|^2.

The magnitudes span hundreds of decades at weak drive (the direct triangular
solve overflows at N = 200 and 0.05 of the critical drive), so they are
evaluated in log space. This module uses only numpy: it is the benchmark's
reference and shares no code with the package it checks.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def ladder(n_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J_-, J_+, J_z) for j = N/2 on the ascending Dicke basis."""
    j = n_atoms / 2
    m = np.arange(n_atoms + 1) - j
    amp = np.sqrt(j * (j + 1) - m[1:] * (m[1:] - 1))
    j_minus = np.diag(amp, k=1).astype(np.complex128)
    return j_minus, j_minus.conj().T, np.diag(m).astype(np.complex128)


def critical_drive(n_atoms: int, gamma: float, Delta: float) -> float:
    """Omega_c = (N/4) sqrt(gamma^2 + 4 Delta^2)."""
    return n_atoms / 4 * math.hypot(gamma, 2 * Delta)


def mean_dipole(Omega: complex, gamma: float, Delta: float) -> complex:
    """beta = -Omega / (Delta + i gamma/2)."""
    return -Omega / (Delta + 0.5j * gamma)


def steady_state(n_atoms: int, beta: complex) -> np.ndarray:
    """Normalized rho = X X^dag / tr for X = (J_- - beta)^{-1}."""
    if beta == 0:
        rho = np.zeros((n_atoms + 1, n_atoms + 1), dtype=np.complex128)
        rho[0, 0] = 1.0
        return rho
    amp = np.diag(ladder(n_atoms)[0], k=1).real
    idx = np.arange(n_atoms + 1)
    log_u = np.concatenate(([0.0], np.cumsum(np.log(amp)))) - idx * math.log(abs(beta))
    # log T(k) = logsumexp_{c >= k} 2 log|u_c|
    log_tail = np.logaddexp.accumulate((2 * log_u)[::-1])[::-1]
    log_mag = log_tail[np.maximum.outer(idx, idx)] - log_u[:, None] - log_u[None, :]
    log_mag -= np.max(np.diag(log_mag))
    phase = np.exp(1j * cmath.phase(beta) * np.subtract.outer(idx, idx))
    rho = np.exp(log_mag) * phase
    return rho / np.trace(rho).real


def expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    """tr(op rho)."""
    return complex(np.sum(op * rho.T))


def moments(rho: np.ndarray) -> dict:
    """Inversion, dipole, emission, dipole variance and squeezing of a state.

    The squeezing parameter is N times the smaller eigenvalue of the
    symmetrized spin covariance restricted to the plane orthogonal to the
    mean spin, divided by |<J>|^2.
    """
    n_atoms = rho.shape[0] - 1
    jm, jp, jz = ladder(n_atoms)
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    axes = (jx, jy, jz)
    mean = np.array([expectation(rho, a).real for a in axes])
    cov = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            sym = 0.5 * (axes[a] @ axes[b] + axes[b] @ axes[a])
            cov[a, b] = expectation(rho, sym).real - mean[a] * mean[b]
    length = float(np.linalg.norm(mean))
    # rows 1 and 2 of V^T span the plane orthogonal to the mean spin
    transverse = np.linalg.svd(mean[None, :] / length)[2][1:]
    lam_min = float(np.linalg.eigvalsh(transverse @ cov @ transverse.T)[0])
    dipole = expectation(rho, jm)
    emission = expectation(rho, jp @ jm).real
    return {
        "jz": mean[2],
        "jz_over_halfN": mean[2] / (n_atoms / 2),
        "jminus": dipole,
        "jpjm": emission,
        "var_jm": emission - abs(dipole) ** 2,
        "xi2": n_atoms * lam_min / length**2,
    }


def resonant_state(n_atoms: int, drive_ratio: float, delta_over_gamma: float,
                   gamma: float = 1.0, phase: float = 0.0) -> np.ndarray:
    """Steady state at |Omega| = drive_ratio * Omega_c."""
    Delta = delta_over_gamma * gamma
    omega = drive_ratio * critical_drive(n_atoms, gamma, Delta) * complex(
        math.cos(phase), math.sin(phase))
    return steady_state(n_atoms, mean_dipole(omega, gamma, Delta))
