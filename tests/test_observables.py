import math
import re
import warnings

import numpy as np
import pytest

from oracles import (
    brute_force_steady_state,
    dense_spin_ops,
    dicke_hamiltonian,
    scan_transverse_variance,
)

from dickelab.errors import AboveThresholdError
from dickelab.lindblad import DensityMatrix, expect, steady_state
from dickelab.models import (
    build_cavity_model,
    build_dicke_model,
    mean_field_amplitude,
    resonant_steady_state,
)
from dickelab.observables import (
    field_composition,
    field_squeezing_analytic,
    g2_zero,
    hp_moments,
    hp_moments_numeric,
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
    axes = [ops["J_x"], ops["J_y"], jz]
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
    assert third.bogoliubov_plus + third.bogoliubov_minus == pytest.approx(1.0, abs=1e-15)


def test_hp_moments_kernel_fields():
    e = eff(60, 0.5, delta_over_gamma=0.25)
    sol = hp_moments(bloch_angles(e), e)
    c = bloch_angles(e).cos_theta
    assert sol.relaxation_rate == pytest.approx(60 * c * 0.5, rel=1e-12)
    assert sol.oscillation_frequency == pytest.approx(60 * c * 0.25, rel=1e-12)
    bare = hp_moments(bloch_angles(e))
    assert bare.relaxation_rate is None


def test_hp_moments_diverge_guard():
    with pytest.raises(AboveThresholdError):
        hp_moments(BlochAngles(math.asin(0.9999), 0.0))


def test_squeezing_reconstruction_matches_cosine():
    rng = np.random.default_rng(21)
    for _ in range(50):
        theta = float(rng.uniform(0.0, math.asin(0.998)))
        sol = hp_moments(BlochAngles(theta, 0.0))
        assert sol.squeezing_reconstructed == pytest.approx(math.cos(theta), rel=1e-12)


def test_hp_bridge_numeric_n60():
    e = eff(60, 0.5)
    model, rho = solved(e)
    occ, anom = hp_moments_numeric(rho, model.rep)
    sol = hp_moments(bloch_angles(e), e)
    assert occ == pytest.approx(sol.occupation, rel=0.10)
    assert anom == pytest.approx(sol.anomalous_magnitude, rel=0.10)


# ---------------------------------------------------------------- field


def test_field_composition_resonant_cavity():
    p = CavityParams(g=0.5, kappa=2.0, delta_c=0.0, Omega_L=1.5, N=8)
    fc = field_composition(p, 0.0, BlochAngles(0.0, 0.0))
    assert fc.chi == pytest.approx(-2.0, abs=1e-15)
    assert fc.vacuum_coefficient == pytest.approx(-1.0, abs=1e-15)
    assert fc.free_mean == pytest.approx(1j * p.Omega_L, abs=1e-15)
    assert fc.vacuum_level == p.kappa


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
        fc = field_composition(p, jm, BlochAngles(0.0, 0.0))
        target = -1j * p.Omega_L
        assert abs(fc.mean_field_out - target) <= 1e-12 * max(1.0, abs(target))


def test_field_mean_numeric_deviation_small():
    e = eff(10, 0.7)
    model, rho = solved(e)
    p = cavity_params_for_effective(e, kappa=1000.0)
    jm = expect(rho, model.ops["J_minus"])
    fc = field_composition(p, jm, bloch_angles(e))
    assert abs(fc.mean_field_out + 1j * p.Omega_L) / abs(p.Omega_L) <= 0.05


def test_field_squeezing_cancellation():
    rng = np.random.default_rng(8)
    p = CavityParams(g=0.3, kappa=5.0, delta_c=1.0, Omega_L=0.7, N=40)
    for _ in range(50):
        a = BlochAngles(float(rng.uniform(0, math.pi / 2 - 1e-6)),
                        float(rng.uniform(-math.pi + 1e-9, math.pi)))
        fc = field_composition(p, 0.1 + 0.2j, a)
        result = field_squeezing_analytic(fc)
        assert result.value == 1.0
        assert result.b_dagger_coefficient == 0.0
        assert result.normally_ordered_flux == 0.0


def test_field_fluctuation_coefficients():
    p = CavityParams(g=0.4, kappa=3.0, delta_c=-0.6, Omega_L=1.0, N=25)
    a = BlochAngles(0.4, 0.3)
    fc = field_composition(p, 0.0, a)
    chi = p.kappa / (1j * p.delta_c - p.kappa / 2)
    assert fc.vacuum_coefficient == pytest.approx(1 + chi, rel=1e-14)
    assert fc.b_coefficient == pytest.approx(-1j * np.conj(p.g) * chi * 25 * math.cos(0.4),
                                             rel=1e-14)


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


def test_spectrum_undriven_is_empty():
    e = EffectiveParams(gamma=1.0, Delta=0.0, Omega=0.0, N=6)
    model, rho = solved(e)
    p = cavity_params_for_effective(e, kappa=100.0)
    fc = field_composition(p, 0.0, BlochAngles(0.0, 0.0))
    spec = output_spectrum(model, fc, tau_max=2.0, n_tau=64, rho_ss=rho)
    assert spec.coherent_weight == 0.0  # no drive, no coherent peak
    assert abs(spec.incoherent_weight) < 1e-12
    assert math.isnan(spec.coherence_ratio)  # nothing is emitted at all


def test_spectrum_weight_identity_and_positivity():
    e = eff(10, 0.7)
    model, rho = solved(e)
    p = cavity_params_for_effective(e, kappa=1000.0)
    jm = expect(rho, model.ops["J_minus"])
    fc = field_composition(p, jm, bloch_angles(e))
    rate = 10 * bloch_angles(e).cos_theta * 0.5
    spec = output_spectrum(model, fc, tau_max=40.0 / rate, n_tau=1500, rho_ss=rho)
    assert spec.correlator_decayed
    mom = spin_moments(rho, model.rep)
    assert spec.incoherent_weight == pytest.approx(abs(fc.G) ** 2 * mom.var_jm, rel=1e-6)
    # symmetrized transform is real by construction and non-negative once
    # the correlator has fully decayed inside the window
    peak = spec.incoherent_spectrum.max()
    assert spec.incoherent_spectrum.min() >= -1e-8 * peak
    assert 0.0 < spec.coherence_ratio <= 1.0
    # broadband part peaks at the drive frequency for Delta = 0
    center = spec.omega[np.argmax(spec.incoherent_spectrum)]
    assert abs(center) <= spec.omega[1] - spec.omega[0]


def test_spectrum_short_window_flagged():
    e = eff(10, 0.7)
    model, rho = solved(e)
    p = cavity_params_for_effective(e, kappa=1000.0)
    jm = expect(rho, model.ops["J_minus"])
    fc = field_composition(p, jm, bloch_angles(e))
    with pytest.warns(UserWarning, match="under-resolved") as record:
        spec = output_spectrum(model, fc, tau_max=0.3, n_tau=64, rho_ss=rho)
    assert not spec.correlator_decayed
    # the warning names the horizon set by the slowest decay rate of the
    # projected generator; twice that window resolves the correlator
    found = re.search(r"slowest decay rate .* is (\S+), so tau_max ~ (\S+) would reach 1e-3",
                      str(record[0].message))
    rate, horizon = float(found.group(1)), float(found.group(2))
    assert horizon == pytest.approx(math.log(1000.0) / rate, rel=1e-2)
    assert output_spectrum(model, fc, tau_max=2 * horizon, n_tau=256,
                           rho_ss=rho).correlator_decayed


def test_spectrum_start_below_round_off_reads_decayed():
    # N = 100 at drive 0.545: the connected start is round-off, below the
    # floor eps D <J_+J_-> on which the correlator stops, so there is
    # nothing left to resolve and the verdict must not hang on that noise
    e = eff(100, 0.545)
    model = build_dicke_model(e)
    rho, _ = resonant_steady_state(model)
    jm = spin_moments(rho, model.rep).jm
    fc = field_composition(cavity_params_for_effective(e, kappa=1000.0), jm, bloch_angles(e))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = output_spectrum(model, fc, rho_ss=rho)
    floor = np.finfo(float).eps * model.rep.dim * spin_moments(rho, model.rep).jp_jm
    assert abs(spec.correlator[0]) <= floor
    assert spec.correlator_decayed
