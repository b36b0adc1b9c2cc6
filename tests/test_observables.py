import logging
import math
import warnings

import numpy as np
import pytest

from oracles import (
    brute_force_steady_state,
    dense_spin_ops,
    dicke_hamiltonian,
    expect,
    scan_transverse_variance,
    spin_xy,
)

from dickelab.errors import AboveThresholdError
from dickelab.lindblad import (
    KRYLOV_MAX_DIM,
    DensityMatrix,
    steady_state,
    two_time_correlator,
)
from dickelab.models import (
    build_cavity_model,
    build_dicke_model,
    mean_field_amplitude,
    resonant_steady_state,
)
from dickelab.observables import (
    field_composition,
    g2_zero,
    hp_moments,
    hp_moments_numeric,
    langevin_pole,
    output_spectrum,
    spin_moments,
    spin_squeezing_analytic,
    spin_squeezing_numeric,
)
from dickelab.operators import SpinRep, build_spin_operators, tensor
from dickelab.parameters import (
    BlochAngles,
    CavityParams,
    EffectiveParams,
    bloch_angles,
    cavity_params_for_effective,
    critical_drive,
    rotation_matrix,
)


def eff(n, ratio, delta_over_gamma=0.0, phase=0.0):
    return EffectiveParams(gamma=1.0, Delta=delta_over_gamma, Omega=0.0,
                           N=n).with_drive_ratio(ratio, phase)


def solved(e):
    model = build_dicke_model(e)
    rho, _ = steady_state(model.liouvillian)
    return model, rho


# ---------------------------------------------------------------- moments


def _random_full_rank():
    # every band of rho is populated, with complex entries
    rng = np.random.default_rng(5)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T))
    rep = SpinRep.for_atoms(7)
    return rho, rep, rho, build_spin_operators(rep)


def _detuned_lu():
    e = EffectiveParams(gamma=1.0, Delta=0.5, Omega=0.0, N=10,
                        delta=0.3).with_drive_ratio(0.7, 0.3)
    model, rho = solved(e)
    return rho, model.rep, rho, model.ops


def _cavity_reduced():
    # the displaced atom+cavity state and its spin state reduced over d;
    # the operators are lifted onto the product space
    p = cavity_params_for_effective(
        EffectiveParams(gamma=0.04, Delta=-0.02, Omega=0.0, N=4,
                        delta=0.01).with_drive_ratio(0.8, 0.3), kappa=1.0, g_phase=0.4)
    model = build_cavity_model(p, 8, mean_field_amplitude(p, 0.0))
    rho, _ = steady_state(model.liouvillian)
    ds, df = model.spin_rep.dim, model.fock_rep.dim
    reduced = np.einsum("ikjk->ij", rho.matrix.reshape(ds, df, ds, df))
    eye_f = np.eye(df)
    lifted = {k: tensor(op, eye_f) for k, op in build_spin_operators(model.spin_rep).items()}
    return DensityMatrix(reduced), model.spin_rep, rho, lifted


@pytest.mark.parametrize("make_state", [_random_full_rank, _detuned_lu, _cavity_reduced],
                         ids=["random-full-rank", "detuned-lu", "cavity-reduced"])
def test_spin_moments_match_operator_products(make_state):
    reduced, rep, rho, ops = make_state()
    mom = spin_moments(reduced, rep)
    jp, jm, jz = ops["J_plus"], ops["J_minus"], ops["J_z"]
    products = {"jz": jz, "jz2": jz @ jz, "jm": jm, "jz_jm": jz @ jm, "jp_jm": jp @ jm,
                "jm2": jm @ jm, "jp2_jm2": (jp @ jp) @ (jm @ jm)}
    for name, op in products.items():
        ref = expect(rho, op)
        assert abs(getattr(mom, name) - ref) <= 1e-12 * abs(ref), name
    # the fluctuations and the coherence ratio are differences and ratios
    # of these moments, so their round-off scales with <J_+J_->
    ref_jm, ref_jp_jm = expect(rho, jm), expect(rho, jp @ jm).real
    fluctuations = {"var_jm": ref_jp_jm - abs(ref_jm) ** 2,
                    "anom_jm": expect(rho, jm @ jm) - ref_jm**2,
                    "coherence_ratio": abs(ref_jm) ** 2 / ref_jp_jm}
    for name, ref in fluctuations.items():
        assert abs(getattr(mom, name) - ref) <= 1e-12 * ref_jp_jm, name
    axes = [*spin_xy(ops), jz]
    means = np.array([expect(rho, a) for a in axes])
    assert np.abs(mom.mean_spin - means).max() <= 1e-12 * np.abs(means).max()
    second = np.array([[expect(rho, a @ b) for b in axes] for a in axes])
    assert np.abs(mom.second_moments - second).max() <= 1e-12 * np.abs(second).max()


# ---------------------------------------------------------------- squeezing


def test_squeezing_coherent_spin_state_is_unity():
    model, rho = solved(EffectiveParams(gamma=1.0, Delta=0.0, Omega=0.0, N=12))
    assert spin_squeezing_numeric(rho, model.rep) == pytest.approx(1.0, abs=1e-10)


def test_squeezing_matches_phi_scan_oracle():
    # closed-form 2x2 eigen-minimization against an explicit 1e4-point scan
    ops = dense_spin_ops(4)
    e = eff(4, 0.3)
    rho = brute_force_steady_state(
        dicke_hamiltonian(ops, e.Delta, e.Omega), [(e.gamma, ops["jm"])]
    )
    scan_var, length = scan_transverse_variance(rho, ops)
    scan_xi2 = 4 * scan_var / length**2
    lib_xi2 = spin_squeezing_numeric(DensityMatrix(rho), SpinRep.for_atoms(4))
    assert lib_xi2 == pytest.approx(scan_xi2, rel=1e-5)
    assert lib_xi2 < 1.0


def test_squeezing_n50_against_linearized_value():
    model, rho = solved(eff(50, 0.5))
    xi2 = spin_squeezing_numeric(rho, model.rep)
    assert abs(xi2 - math.sqrt(0.75)) < 0.05
    # frozen regression value from the first oracle run
    assert xi2 == pytest.approx(0.866149, abs=5e-4)


def test_squeezing_analytic_values():
    assert spin_squeezing_analytic(eff(30, 0.0)) == pytest.approx(1.0)
    assert spin_squeezing_analytic(eff(30, 0.8)) == pytest.approx(0.6, rel=1e-12)
    with pytest.raises(AboveThresholdError):
        spin_squeezing_analytic(eff(30, 1.05))


def test_squeezing_witnesses_entanglement_below_threshold():
    # xi^2 < 1 throughout the drive window where the mean-field picture
    # applies; close to the critical point the finite-N value degrades
    # past 1 before the transition, so the witness window stops at 0.9
    for n in (10, 20):
        for ratio in (0.2, 0.5, 0.7, 0.9):
            model, rho = solved(eff(n, ratio))
            assert spin_squeezing_numeric(rho, model.rep) < 1.0


def test_squeezing_requires_finite_mean_spin():
    # fully mixed state has no mean direction
    rho = DensityMatrix(np.eye(5, dtype=complex) / 5)
    with pytest.raises(ValueError):
        spin_squeezing_numeric(rho, SpinRep.for_atoms(4))


# ---------------------------------------------------------------- HP moments


def test_hp_moments_closed_forms():
    sol = hp_moments(BlochAngles(0.0, 0.0))
    assert sol.occupation == 0.0
    assert sol.anomalous_magnitude == 0.0
    third = hp_moments(BlochAngles(math.pi / 3, 0.5))  # cos = 1/2
    assert third.occupation == pytest.approx(1 / 8, rel=1e-14)
    assert third.anomalous_magnitude == pytest.approx(3 / 8, rel=1e-14)


@pytest.mark.parametrize("delta_over_gamma", [0.0, 0.5])
def test_langevin_pole_is_the_dominant_pole_of_the_exact_generator(delta_over_gamma):
    # the connected <dJ_x'(0) dJ_x'(tau)> of the exact closed-form state,
    # x' the first transverse axis of the mean-spin frame, is one pole to
    # within an O(gamma) offset: at N = 100, drive 0.5 the pole of largest
    # weight holds 0.994 of sum |w| and sits 0.179 (1 + 2i Delta/gamma) gamma
    # from -N cos(theta) (gamma/2 + i Delta)
    e = eff(100, 0.5, delta_over_gamma)
    model = build_dicke_model(e)
    rho, _ = resonant_steady_state(e)
    x = rotation_matrix(bloch_angles(e))[:, 0]
    jx, jy = spin_xy(model.ops)
    jx = x[0] * jx + x[1] * jy + x[2] * model.ops["J_z"]
    omega = np.linspace(-40.0, 40.0, 401)
    lam, w, _ = two_time_correlator(model.liouvillian, rho, jx, jx, omega,
                                    0.5 / critical_drive(e))
    k = int(np.argmax(abs(w)))
    assert abs(w[k]) >= 0.98 * abs(w).sum()
    assert abs(lam[k] - langevin_pole(e)) <= 0.25 * e.gamma * abs(1 + 2j * delta_over_gamma)


def test_hp_moments_diverge_guard():
    with pytest.raises(AboveThresholdError):
        hp_moments(BlochAngles(math.asin(0.9999), 0.0))
    with pytest.raises(AboveThresholdError):
        langevin_pole(eff(10, 1.2))


def test_squeezing_reconstruction_matches_cosine():
    rng = np.random.default_rng(21)
    for _ in range(50):
        theta = float(rng.uniform(0.0, math.asin(0.998)))
        sol = hp_moments(BlochAngles(theta, 0.0))
        # 1 + 2<a^dag a> - 2|<a^2>|, the bosonic route to the squeezing
        rec = 1.0 + 2.0 * sol.occupation - 2.0 * sol.anomalous_magnitude
        assert rec == pytest.approx(math.cos(theta), rel=1e-12)


def test_hp_bridge_numeric_n60():
    e = eff(60, 0.5)
    model, rho = solved(e)
    occ, anom = hp_moments_numeric(rho, model.rep)
    sol = hp_moments(bloch_angles(e))
    assert occ == pytest.approx(sol.occupation, rel=0.10)
    assert anom == pytest.approx(sol.anomalous_magnitude, rel=0.10)


# ---------------------------------------------------------------- field


def test_field_composition_resonant_cavity():
    p = CavityParams(g=0.5, kappa=2.0, delta_c=0.0, Omega_L=1.5, N=8)
    # chi = -2 on resonance: G = 2i g*, and with no dipole the mean is the
    # free field -i Omega_L (1 + chi) = i Omega_L
    fc = field_composition(p, 0.0)
    assert fc.G == pytest.approx(2j * np.conj(p.g), abs=1e-15)
    assert fc.mean_field_out == pytest.approx(1j * p.Omega_L, abs=1e-15)


def test_field_mean_equals_input_for_mean_field_dipole():
    rng = np.random.default_rng(33)
    for _ in range(100):
        p = CavityParams(
            g=complex(rng.normal(), rng.normal()),
            kappa=float(rng.uniform(0.2, 30.0)),
            delta_c=float(rng.uniform(-10.0, 10.0)),
            Omega_L=complex(rng.normal(), rng.normal()),
            N=int(rng.integers(1, 300)),
        )
        from dickelab.parameters import map_cavity_to_effective

        e = map_cavity_to_effective(p)
        jm = -e.Omega / (e.Delta + 0.5j * e.gamma)
        fc = field_composition(p, jm)
        target = -1j * p.Omega_L
        assert abs(fc.mean_field_out - target) <= 1e-12 * max(1.0, abs(target))


def test_field_mean_numeric_deviation_small():
    e = eff(10, 0.7)
    model, rho = solved(e)
    p = cavity_params_for_effective(e, kappa=1000.0)
    jm = expect(rho, model.ops["J_minus"])
    fc = field_composition(p, jm)
    assert abs(fc.mean_field_out + 1j * p.Omega_L) / abs(p.Omega_L) <= 0.05


def test_field_fluctuation_coefficients():
    p = CavityParams(g=0.4, kappa=3.0, delta_c=-0.6, Omega_L=1.0, N=25)
    # a detuned cavity: the dipole reaches the output through G = -i g* chi,
    # its fluctuations as well as its mean
    chi = p.kappa / (1j * p.delta_c - p.kappa / 2)
    fc = field_composition(p, 0.0)
    assert fc.G == pytest.approx(-1j * np.conj(p.g) * chi, rel=1e-14)
    assert fc.mean_field_out == pytest.approx(-1j * p.Omega_L * (1 + chi), rel=1e-14)
    jm = 0.3 - 0.2j
    scattered = field_composition(p, jm).mean_field_out - fc.mean_field_out
    assert scattered == pytest.approx(fc.G * jm, rel=1e-14)


# ---------------------------------------------------------------- dipole moments


def test_dipole_moments_ground_state_zero():
    model, rho = solved(EffectiveParams(gamma=1.0, Delta=0.0, Omega=0.0, N=6))
    mom = spin_moments(rho, model.rep)
    assert abs(mom.var_jm) < 1e-12
    assert abs(mom.anom_jm) < 1e-12


def test_dipole_moments_against_brute_force():
    ops = dense_spin_ops(4)
    e = eff(4, 0.3)
    oracle_rho = brute_force_steady_state(
        dicke_hamiltonian(ops, e.Delta, e.Omega), [(e.gamma, ops["jm"])]
    )
    jm_o = np.trace(ops["jm"] @ oracle_rho)
    jpjm_o = np.trace(ops["jp"] @ ops["jm"] @ oracle_rho).real
    jmjm_o = np.trace(ops["jm"] @ ops["jm"] @ oracle_rho)

    model, rho = solved(e)
    mom = spin_moments(rho, model.rep)
    assert mom.jm == pytest.approx(jm_o, abs=1e-9)
    assert mom.var_jm == pytest.approx(jpjm_o - abs(jm_o) ** 2, abs=1e-9)
    assert mom.anom_jm == pytest.approx(jmjm_o - jm_o**2, abs=1e-9)


def test_coherence_improves_from_10_to_20():
    ratios = []
    for n in (10, 20):
        model, rho = solved(eff(n, 0.5))
        ratios.append(spin_moments(rho, model.rep).coherence_ratio)
    assert ratios[1] > ratios[0]
    assert all(0.0 < r <= 1.0 + 1e-12 for r in ratios)


# ---------------------------------------------------------------- g2


def test_g2_single_atom_antibunching():
    model, rho = solved(EffectiveParams(gamma=1.0, Delta=0.0, Omega=0.2, N=1))
    assert g2_zero(rho, model.rep) == pytest.approx(0.0, abs=1e-10)


def test_g2_undriven_raises():
    model, rho = solved(EffectiveParams(gamma=1.0, Delta=0.0, Omega=0.0, N=4))
    with pytest.raises(ValueError):
        g2_zero(rho, model.rep)


def test_g2_collective_below_threshold_fixture():
    model, rho = solved(eff(50, 0.5))
    g2 = g2_zero(rho, model.rep)
    # frozen from the first oracle run: the scattered light is uncorrelated
    assert g2 == pytest.approx(1.0, abs=1e-6)


def test_g2_bunching_above_threshold():
    below = g2_zero(*_state_and_rep(eff(50, 0.5)))
    above = g2_zero(*_state_and_rep(eff(50, 1.2)))
    assert above > below


def _state_and_rep(e):
    model, rho = solved(e)
    return rho, model.rep


# ---------------------------------------------------------------- spectrum


def _spectrum_point(e, n_tau):
    """The closed-form state of ``e``, its embedding at kappa = 1000 gamma
    and its output spectrum on the default tau_max."""
    rho, _ = resonant_steady_state(e)
    mom = spin_moments(rho, SpinRep.for_atoms(e.N))
    p = cavity_params_for_effective(e, kappa=1000.0)
    return rho, mom, field_composition(p, mom.jm), output_spectrum(e, p, None, n_tau, rho_ss=rho)


def test_spectrum_undriven_is_empty():
    e = EffectiveParams(gamma=1.0, Delta=0.0, Omega=0.0, N=6)
    rho, _ = resonant_steady_state(e)
    p = cavity_params_for_effective(e, kappa=100.0)
    spec = output_spectrum(e, p, 2.0, 64, rho_ss=rho)
    assert spec.coherent_weight == 0.0  # no drive, no coherent peak
    assert spec.incoherent_weight == 0.0
    assert spec.verdict == "coherent" and spec.incoherent_spectrum is None
    assert math.isnan(spec.coherence_ratio)  # nothing is emitted at all


def test_spectrum_weight_identity_and_positivity(caplog):
    e = eff(10, 0.7)
    with caplog.at_level(logging.DEBUG, logger="dickelab.observables"):
        _, mom, fc, spec = _spectrum_point(e, n_tau=256)
    assert spec.verdict == "resolved"
    assert "slowest kept rate" in caplog.text and "grid step" in caplog.text
    assert spec.incoherent_weight == abs(fc.G) ** 2 * mom.var_jm
    # the grid is wide (+-pi/dtau) and fine next to the line: the rule
    # integral of the transform over it holds the weight to 1e-3
    step = spec.omega[1] - spec.omega[0]
    integral = spec.incoherent_spectrum.sum() * step / (2 * np.pi)
    assert integral == pytest.approx(spec.incoherent_weight, rel=1e-3)
    # a sum of Lorentzians of a Hermitian correlator: real and non-negative
    peak = spec.incoherent_spectrum.max()
    assert spec.incoherent_spectrum.min() >= -1e-12 * peak
    assert 0.0 < spec.coherence_ratio <= 1.0
    # broadband part peaks at the drive frequency for Delta = 0
    center = spec.omega[np.argmax(spec.incoherent_spectrum)]
    assert abs(center) <= step


# the largest Krylov basis each point may build: a regression guard on a
# count, not a timing (the collective-scale shift stops at 63 and 109)
KRYLOV_DIM_BOUND = {(100, 0.9, 0.5): 80, (100, 0.9, 2.0): 120}


@pytest.mark.parametrize("n, ratio, delta_over_gamma", [(100, 0.9, 0.5), (100, 0.9, 2.0),
                                                         (10, 0.95, 0.0), (60, 0.95, 3.0)])
def test_spectrum_matches_direct_resolvents(n, ratio, delta_over_gamma, monkeypatch):
    # the one-sided transform of the connected correlator at omega != 0 is
    # trace(J_- x) with -(L + i omega) x = rho J_+ - <J_+> rho, solved
    # directly; omega = 0 is left out, where that system is singular. The
    # spectrum (2 Re) is even in omega here, so the complex transform of
    # the poles is compared as well. The poles are those output_spectrum
    # itself asked for, with its own Krylov shift
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from dickelab import observables
    from dickelab.lindblad import vectorize

    poles, calls = observables.two_time_correlator, []

    def recording(*args):
        calls.append(poles(*args))
        return calls[-1]

    monkeypatch.setattr(observables, "two_time_correlator", recording)
    e = eff(n, ratio, delta_over_gamma)
    rho, mom, fc, spec = _spectrum_point(e, 512)
    assert spec.verdict == "resolved"
    (lam, w, report), = calls
    assert report.krylov_dim <= KRYLOV_DIM_BOUND.get((n, ratio, delta_over_gamma),
                                                     KRYLOV_MAX_DIM)
    model = build_dicke_model(e)
    jp, jm = model.ops["J_plus"].toarray(), model.ops["J_minus"].toarray()
    transform = (w / (-lam - 1j * spec.omega[:, None])).sum(axis=1)
    start = vectorize(rho.matrix @ jp - mom.jm.conjugate() * rho.matrix)
    S = model.liouvillian.superoperator.tocsc()
    eye = sp.identity(S.shape[0], dtype=np.complex128, format="csc")
    center = int(np.argmin(np.abs(spec.omega)))
    assert spec.omega[center] == 0.0
    peak, scale = spec.incoherent_spectrum.max(), np.abs(transform).max()
    g2abs = abs(fc.G) ** 2
    for k in (center - 1, center + 1, center - 3, center + 7, center - 40, center + 300):
        x = spla.spsolve((-(S + 1j * spec.omega[k] * eye)).tocsc(), start)
        direct = np.einsum("ij,ji->", jm, x.reshape(rho.dim, rho.dim, order="F"))
        assert abs(spec.incoherent_spectrum[k] - 2.0 * g2abs * direct.real) <= 1e-8 * peak, k
        assert abs(transform[k] - direct) <= 1e-8 * scale, k
    # the pole weights sum to the connected start, var(J_-)
    assert w.sum().real == pytest.approx(mom.var_jm, rel=1e-10)
    assert np.all(lam.real < 0.0)


def test_spectrum_below_round_off_reads_coherent():
    # N = 100 at drive 0.545: var(J_-) is far below the round-off of the
    # connected start, eps D <J_+J_->, so the point reads coherent and no
    # propagation runs (the Dicke model is never built)
    e = eff(100, 0.545)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, mom, _, spec = _spectrum_point(e, 512)
    assert mom.var_jm <= np.finfo(float).eps * (e.N + 1) * mom.jp_jm
    assert spec.verdict == "coherent" and spec.incoherent_spectrum is None
    assert spec.omega.size == 2 * 512 + 1
