"""Checks of the closed-form reference against an independently written dense
master-equation action. Run with ``python3 -m pytest benchmark``."""

import math

import numpy as np
import pytest
import scipy.linalg

import reference


def lindblad_action(rho, n_atoms, gamma, Delta, Omega):
    jm, jp = ladder_pair(n_atoms)
    emit = jp @ jm
    H = -Delta * emit - (Omega * jp + np.conj(Omega) * jm)
    return (-1j * (H @ rho - rho @ H)
            + gamma * (jm @ rho @ jp - 0.5 * (emit @ rho + rho @ emit)))


def ladder_pair(n_atoms):
    """J_-, J_+ from <j, m-1| J_- |j, m> = sqrt((j + m)(j - m + 1))."""
    j = n_atoms / 2
    jm = np.zeros((n_atoms + 1, n_atoms + 1), dtype=np.complex128)
    for col in range(1, n_atoms + 1):
        m = col - j
        jm[col - 1, col] = math.sqrt((j + m) * (j - m + 1))
    return jm, jm.conj().T


CASES = [
    (n, ratio, d_over_g, phase)
    for n in (1, 4, 12, 30)
    for ratio in (0.05, 0.6, 0.97, 1.5)
    for d_over_g, phase in ((0.0, 0.0), (0.7, 0.0), (-0.4, 1.1))
]


@pytest.mark.parametrize("n, ratio, d_over_g, phase", CASES)
def test_master_equation_residual_at_round_off(n, ratio, d_over_g, phase):
    gamma = 1.0
    Delta = d_over_g * gamma
    Omega = ratio * n / 4 * math.hypot(gamma, 2 * Delta) * complex(math.cos(phase), math.sin(phase))
    rho = reference.resonant_state(n, ratio, d_over_g, gamma, phase)
    assert abs(np.trace(rho) - 1) < 1e-14
    assert np.abs(rho - rho.conj().T).max() < 1e-15
    assert np.linalg.eigvalsh(rho)[0] > -1e-15
    scale = n * n * (gamma + abs(Delta)) + n * abs(Omega)
    residual = np.abs(lindblad_action(rho, n, gamma, Delta, Omega)).max()
    assert residual < 1e-14 * scale


@pytest.mark.parametrize("n, ratio", [(6, 0.3), (20, 0.9), (40, 1.2)])
def test_log_space_form_matches_direct_triangular_solve(n, ratio):
    beta = reference.mean_dipole(ratio * n / 4 * math.hypot(1.0, 1.0), 1.0, 0.5)
    jm = ladder_pair(n)[0]
    X = scipy.linalg.solve_triangular(jm - beta * np.eye(n + 1), np.eye(n + 1))
    direct = X @ X.conj().T
    direct /= np.trace(direct).real
    assert np.abs(reference.steady_state(n, beta) - direct).max() < 1e-13


def test_weak_drive_at_large_n_stays_finite():
    # the direct triangular inverse overflows here
    rho = reference.resonant_state(300, 0.05, 1.0)
    assert np.all(np.isfinite(rho))
    mom = reference.moments(rho)
    assert mom["jz_over_halfN"] == pytest.approx(-math.sqrt(1 - 0.05**2), abs=1e-3)


def test_squeezing_follows_cos_theta_well_below_threshold():
    # xi^2 = cos(theta) = sqrt(1 - r^2) up to O(1/N)
    mom = reference.moments(reference.resonant_state(200, 0.5, 0.5))
    assert mom["xi2"] == pytest.approx(math.sqrt(1 - 0.25), abs=5e-3)
    assert mom["jminus"] == pytest.approx(
        reference.mean_dipole(0.5 * 50 * math.sqrt(2), 1.0, 0.5), rel=5e-3)
