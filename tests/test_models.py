import gc
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.sparse

from oracles import (
    expect,
    high_precision_resonant_state,
    spin_xy,
    superoperator_action,
    trace_distance,
)

from dickelab.errors import DimensionCapError, NoConvergence, NonUniqueSteadyState
from dickelab.lindblad import (
    DensityMatrix,
    Liouvillian,
    build_liouvillian,
    residual_tolerance,
    steady_state,
    unvectorize,
)
from dickelab import models
from dickelab.models import (
    CAVITY_PRODUCT_CAP,
    DICKE_ATOM_CAP,
    ResonantState,
    _fock_embedding,
    _lindblad_bands,
    _reduced_observables,
    accept_banded_state,
    banded_tolerance,
    build_cavity_model,
    build_dicke_model,
    cavity_dimension,
    default_fock_cutoff,
    mean_field_amplitude,
    resonant_steady_state,
    validate_elimination,
)
from dickelab.observables import spin_moments, spin_squeezing_numeric
from dickelab.operators import (
    FockRep,
    SpinRep,
    build_fock_operators,
    build_spin_operators,
    tensor,
)
from dickelab.parameters import (
    CavityParams,
    EffectiveParams,
    cavity_params_for_effective,
    map_cavity_to_effective,
)


def effective(n, ratio, delta_over_gamma=0.0, phase=0.0, gamma=1.0):
    return EffectiveParams(gamma=gamma, Delta=delta_over_gamma * gamma, Omega=0.0,
                           N=n).with_drive_ratio(ratio, phase)


def elimination_cavity(n, adiabaticity, drive_ratio, kappa=1.0):
    """Resonant-cavity parameter set with a prescribed kappa/(sqrt(N) g)."""
    g = kappa / (adiabaticity * math.sqrt(n))
    gamma = 4 * g * g / kappa
    e = EffectiveParams(gamma=gamma, Delta=0.0, Omega=0.0, N=n).with_drive_ratio(drive_ratio)
    return cavity_params_for_effective(e, kappa)


def test_single_atom_resonance_fluorescence():
    # driven two-level atom: excited population 4|O|^2/(gamma^2 + 8|O|^2)
    for drive in (0.05, 0.2, 0.6):
        e = EffectiveParams(gamma=1.0, Delta=0.0, Omega=drive, N=1)
        model = build_dicke_model(e)
        rho, _ = steady_state(model.liouvillian)
        analytic = 4 * drive**2 / (1.0 + 8 * drive**2)
        assert rho.matrix[1, 1].real == pytest.approx(analytic, rel=1e-9)


def test_single_atom_detuned_drive():
    # detuned two-level steady state: excited population
    # |O|^2 / (delta^2 + gamma^2/4 + 2|O|^2)
    delta, drive, gamma = 0.7, 0.3, 1.0
    e = EffectiveParams(gamma=gamma, Delta=0.0, Omega=drive, N=1, delta=delta)
    model = build_dicke_model(e)
    rho, _ = steady_state(model.liouvillian)
    analytic = drive**2 / (delta**2 + gamma**2 / 4 + 2 * drive**2)
    assert rho.matrix[1, 1].real == pytest.approx(analytic, rel=1e-9)


def test_undriven_dark_state():
    for n in (1, 3, 8):
        model = build_dicke_model(EffectiveParams(gamma=1.0, Delta=0.2, Omega=0.0, N=n))
        rho, _ = steady_state(model.liouvillian)
        expected = np.zeros((n + 1, n + 1))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-10)


def test_delta_curves_collapse_n50():
    ratios = (0.2, 0.5, 0.8)
    jz = {}
    for d in (0.0, 0.5):
        vals = []
        for r in ratios:
            model = build_dicke_model(effective(50, r, d))
            rho, _ = steady_state(model.liouvillian)
            vals.append(expect(rho, model.ops["J_z"]).real)
        jz[d] = vals
    for a, b in zip(jz[0.0], jz[0.5]):
        assert abs(a - b) <= 0.01 * 25.0


def test_total_spin_conserved():
    model = build_dicke_model(effective(12, 0.7, 0.4))
    rho, _ = steady_state(model.liouvillian)
    j = 6.0
    jx, jy = spin_xy(model.ops)
    j2 = jx @ jx + jy @ jy + model.ops["J_z"] @ model.ops["J_z"]
    assert expect(rho, j2).real == pytest.approx(j * (j + 1), rel=1e-10)


def test_above_threshold_still_converges():
    model = build_dicke_model(effective(20, 1.2))
    rho, _ = steady_state(model.liouvillian)
    jz = expect(rho, model.ops["J_z"]).real
    assert abs(jz) / 10.0 < 0.35  # inversion collapses to small values


def test_phase_covariance():
    alpha = 0.9
    base = effective(10, 0.5)
    rotated = EffectiveParams(base.gamma, base.Delta,
                              base.Omega * np.exp(1j * alpha), base.N)
    out = {}
    for tag, e in (("base", base), ("rot", rotated)):
        model = build_dicke_model(e)
        rho, _ = steady_state(model.liouvillian)
        out[tag] = {
            "jm": expect(rho, model.ops["J_minus"]),
            "jz": expect(rho, model.ops["J_z"]).real,
            "jpjm": expect(rho, model.ops["J_plus"] @ model.ops["J_minus"]).real,
            "xi2": spin_squeezing_numeric(rho, model.rep),
        }
    assert out["rot"]["jm"] == pytest.approx(out["base"]["jm"] * np.exp(1j * alpha), rel=1e-8)
    assert out["rot"]["jz"] == pytest.approx(out["base"]["jz"], rel=1e-10)
    assert out["rot"]["jpjm"] == pytest.approx(out["base"]["jpjm"], rel=1e-10)
    assert out["rot"]["xi2"] == pytest.approx(out["base"]["xi2"], rel=1e-8)


def test_dicke_dimension_cap():
    with pytest.raises(DimensionCapError):
        build_dicke_model(EffectiveParams(gamma=1.0, Delta=0.0, Omega=0.0, N=500))


def test_decoupled_cavity_reaches_coherent_state():
    # g = 0 leaves the atomic sector frozen (every atomic state is then
    # stationary, which the solver rightly rejects as non-unique), so the
    # decoupling statement is one of an invariant block: with the atoms in
    # their ground state, L restricted to ground x Fock has one steady
    # state, the driven-cavity coherent state of amplitude
    # i Omega_L / (i delta_c - kappa/2), and it is stationary in the full L.
    p = CavityParams(g=0.0, kappa=2.0, delta_c=0.5, Omega_L=0.3, N=2)
    model = build_cavity_model(p, cutoff=8)
    L = model.liouvillian
    with pytest.raises(NonUniqueSteadyState):
        steady_state(L)
    block = np.arange(model.fock_rep.dim)  # spin index 0 (the ground state) x Fock
    embed = (block[:, None] + L.dim * block[None, :]).flatten(order="F")
    sub = Liouvillian(block.size, L.superoperator[embed][:, embed])
    rho_block, _ = steady_state(sub)
    full = np.zeros(L.dim ** 2, dtype=complex)
    full[embed] = rho_block.matrix.flatten(order="F")
    final = DensityMatrix(unvectorize(full, L.dim))
    assert L.residual(final.matrix) <= residual_tolerance(L)
    amp = 1j * p.Omega_L / (1j * p.delta_c - p.kappa / 2)
    c = _lab_field(p, 8, 0.0)
    assert expect(final, c) == pytest.approx(amp, abs=1e-8)
    assert expect(final, model.ops["J_z"]).real == pytest.approx(-1.0, abs=1e-9)
    n_phot = expect(final, c.conj().T @ c).real
    assert n_phot == pytest.approx(abs(amp) ** 2, rel=1e-6)


def test_undriven_cavity_vacuum_ground():
    p = CavityParams(g=0.2, kappa=4.0, delta_c=0.0, Omega_L=0.0, N=2)
    model = build_cavity_model(p, cutoff=4)
    rho, _ = steady_state(model.liouvillian)
    expected = np.zeros(model.liouvillian.dim)
    expected[0] = 1.0
    np.testing.assert_allclose(np.diag(rho.matrix).real, expected, atol=1e-10)


def _no_cavity_work(monkeypatch):
    """Make any cavity build or solve inside ``validate_elimination`` fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("called past the cap")

    monkeypatch.setattr(models, "build_cavity_model", refuse)
    monkeypatch.setattr(models, "nested_steady_state", refuse)


def test_cavity_product_cap(monkeypatch):
    # the cap bounds the model validate_elimination factors, and is checked
    # before that model is built or solved
    p = CavityParams(g=0.1, kappa=1.0, delta_c=0.0, Omega_L=0.0, N=100)
    _no_cavity_work(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        with pytest.raises(DimensionCapError):
            validate_elimination(p, 30)


def test_cavity_product_cap_boundary(monkeypatch):
    # (N + 1)(cutoff + 1) = 12 * 12 is the cap; 5 * 29 = 145 is one above it
    assert CAVITY_PRODUCT_CAP == 144
    at_cap = CavityParams(g=0.1, kappa=1.0, delta_c=0.0, Omega_L=0.0, N=11)
    assert cavity_dimension(at_cap, 11) == 144
    assert build_cavity_model(at_cap, 11).liouvillian.dim == 144
    above = CavityParams(g=0.1, kappa=1.0, delta_c=0.0, Omega_L=0.0, N=4)
    with pytest.raises(DimensionCapError, match="145 exceeds cap 144"):
        cavity_dimension(above, 28)
    # the builder takes any cutoff; only the factored model is capped
    assert build_cavity_model(above, 28).liouvillian.dim == 145
    _no_cavity_work(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        with pytest.raises(DimensionCapError, match="145 exceeds cap 144"):
            validate_elimination(above, 28)


def _eliminated_moments(p):
    model = build_dicke_model(map_cavity_to_effective(p))
    rho, _ = steady_state(model.liouvillian)
    return {"Jminus": expect(rho, model.ops["J_minus"]),
            "JpJm": expect(rho, model.ops["J_plus"] @ model.ops["J_minus"]).real}


def test_default_fock_cutoff_scales_with_drive():
    # |g|^2/(delta_c^2 + kappa^2/4) = 1, so d's occupation is var(J_-):
    # three quanta below a quarter, one more per further quarter
    p = CavityParams(g=0.5, kappa=1.0, delta_c=0.0, Omega_L=0.01, N=2)
    assert default_fock_cutoff(p, 0.0) == 3
    assert default_fock_cutoff(p, 0.24) == 3
    assert default_fock_cutoff(p, 1.5) == 9
    # the eliminated model's fluctuation grows with the drive
    # (var(J_-) = 4.8e-11 and 1.196)
    strong = CavityParams(g=0.5, kappa=1.0, delta_c=0.0, Omega_L=2.0, N=2)
    for q, cutoff in ((p, 3), (strong, 7)):
        mom = _eliminated_moments(q)
        assert default_fock_cutoff(q, mom["JpJm"] - abs(mom["Jminus"]) ** 2) == cutoff


def test_elimination_rejects_unconverged_cutoff():
    # one quantum of d is too few: the deviations move when the cutoff
    # grows by five
    with pytest.raises(NoConvergence, match="Fock cutoff 1 not converged"):
        validate_elimination(elimination_cavity(2, 20.0, 0.5), cutoff=1)


def test_elimination_adiabatic_regime_passes():
    p = elimination_cavity(2, adiabaticity=20.0, drive_ratio=0.5)
    report = validate_elimination(p)
    assert report.adiabaticity_ratio == pytest.approx(20.0, rel=1e-12)
    assert report.cutoff_converged
    assert report.passed
    assert report.deviation_rel["Jz"] <= 0.05
    # deviation frozen from the first full-model run (lab frame, cutoff
    # 11+5); the displaced frame needs three quanta of d (3+5)
    assert report.deviation_rel["Jz"] == pytest.approx(5.4727e-05, abs=1e-8)
    assert report.fock_cutoff == 8


def _lab_frame_liouvillian(p, cutoff):
    """The atom+cavity Liouvillian as written before the displaced frame."""
    spin, fock = SpinRep.for_atoms(p.N), FockRep(cutoff=cutoff)
    sops, bops = build_spin_operators(spin), build_fock_operators(fock)
    eye_s = scipy.sparse.eye_array(spin.dim, dtype=np.complex128, format="csr")
    eye_f = scipy.sparse.eye_array(fock.dim, dtype=np.complex128, format="csr")
    jm, jp = tensor(sops["J_minus"], eye_f), tensor(sops["J_plus"], eye_f)
    c, cd = tensor(eye_s, bops["c"]), tensor(eye_s, bops["c_dagger"])
    H = (-p.delta_c * (cd @ c) + np.conj(p.g) * (cd @ jm) + p.g * (jp @ c)
         + p.Omega_L * cd + np.conj(p.Omega_L) * c)
    if p.delta != 0.0:
        H = H - p.delta * tensor(sops["J_z"], eye_f)
    return build_liouvillian(H, [(p.kappa, c)])


def test_zero_displacement_is_the_lab_frame():
    for p in (CavityParams(g=0.05 + 0.02j, kappa=1.0, delta_c=0.3, Omega_L=0.1 - 0.04j,
                           N=3, delta=0.2),
              CavityParams(g=0.1, kappa=2.0, delta_c=0.0, Omega_L=-0.07j, N=4)):
        new = build_cavity_model(p, 6).liouvillian
        old = _lab_frame_liouvillian(p, 6)
        assert new.scale == old.scale
        assert np.array_equal(new.superoperator.toarray(), old.superoperator.toarray())


def _frame_case(n, delta_over_gamma, drive, gamma):
    # delta_c = -kappa Delta/gamma; complex g and an atomic detuning
    e = EffectiveParams(gamma=gamma, Delta=delta_over_gamma * gamma, Omega=0.0, N=n,
                        delta=0.01).with_drive_ratio(drive, 0.3)
    return cavity_params_for_effective(e, kappa=1.0, g_phase=0.4)


def _lab_field(p, cutoff, alpha):
    """The lab field c = d + alpha on the spin x Fock space of the model
    displaced by ``alpha``."""
    eye_s = scipy.sparse.eye_array(p.N + 1, dtype=np.complex128, format="csr")
    d = tensor(eye_s, build_fock_operators(FockRep(cutoff=cutoff))["c"])
    return d + alpha * scipy.sparse.eye_array(d.shape[0], format="csr")


def _cavity_moments(model, alpha=0.0):
    rho, _ = steady_state(model.liouvillian)
    ops, c = model.ops, _lab_field(model.cavity, model.fock_rep.cutoff, alpha)
    return {"Jz": expect(rho, ops["J_z"]).real, "Jminus": expect(rho, ops["J_minus"]),
            "JpJm": expect(rho, ops["J_plus"] @ ops["J_minus"]).real,
            "c": expect(rho, c), "photons": expect(rho, c.conj().T @ c).real}


@pytest.mark.parametrize("n, delta_over_gamma, drive, gamma", [
    (2, 0.0, 0.5, 0.04), (2, 1.0, 0.7, 0.04),    # delta_c = 0 and -1
    (4, 0.0, 1.5, 0.01), (4, -0.5, 0.8, 0.04),   # above threshold; delta_c = 0.5
])
def test_displaced_frame_matches_lab_frame(n, delta_over_gamma, drive, gamma):
    # the displacement is unitary: at a cutoff generous for both frames,
    # the eliminated model's amplitude reproduces every lab observable
    p = _frame_case(n, delta_over_gamma, drive, gamma)
    alpha = mean_field_amplitude(p, _eliminated_moments(p)["Jminus"])
    assert abs(alpha) > 1e-2
    lab = _cavity_moments(build_cavity_model(p, 10))
    shifted = _cavity_moments(build_cavity_model(p, 10, alpha), alpha)
    assert abs(shifted["Jz"] - lab["Jz"]) <= 1e-9 * n / 2
    for key in ("Jminus", "JpJm", "c", "photons"):
        assert abs(shifted[key] - lab[key]) <= 1e-9 * abs(lab[key]), key
    # the stationary field equation is exact, so the lab <c> is the
    # amplitude of the lab <J_->
    assert mean_field_amplitude(p, lab["Jminus"]) == pytest.approx(lab["c"], rel=1e-9)


def test_cavity_observables_match_lifted_operators():
    # the partial-trace reads of the displaced model equal expect on the
    # lifted operators and on the lab field c = d + alpha
    p = _frame_case(4, -0.5, 0.8, 0.04)
    alpha = mean_field_amplitude(p, _eliminated_moments(p)["Jminus"])
    model = build_cavity_model(p, 8, alpha)
    ref = _cavity_moments(model, alpha)
    got = _reduced_observables(model.spin_rep, steady_state(model.liouvillian)[0], alpha)
    assert set(got) == set(ref)
    for key in ref:
        assert abs(got[key] - ref[key]) <= 1e-12 * abs(ref[key]), key


# full-model observables of the parent lab-frame path (cutoff 11 + 5 = 16,
# the cutoff-16 solve alone, ``elimination_cavity(n, ratio, drive)``),
# computed once before the displaced frame and frozen here
_LAB_CUTOFF_16 = {
    (4, 10.0, 0.3): {"Jz": -1.907032926835521, "Jminus": 0.5999297456943856j,
                     "JpJm": 0.3599578807603881, "photons": 4.215258349273644e-07,
                     "c": -7.025430561486946e-06},
    (4, 10.0, 0.7): {"Jz": -1.419077707649586, "Jminus": 1.3404312053034557j,
                     "JpJm": 1.8766696150533506, "photons": 0.0008339631257560343,
                     "c": -0.005956879469654121},
    (8, 20.0, 0.9): {"Jz": -1.8144087220464629, "Jminus": 3.2472719051879j,
                     "JpJm": 11.690231693782524, "photons": 0.0015872764266638372,
                     "c": -0.012470821387832506},
}


@pytest.mark.parametrize("case", list(_LAB_CUTOFF_16), ids=lambda c: "N%d-r%g-d%g" % c)
def test_elimination_matches_frozen_lab_frame(case):
    report = validate_elimination(elimination_cavity(*case))
    assert report.fock_cutoff == 8
    for key, ref in _LAB_CUTOFF_16[case].items():
        assert abs(report.full[key] - ref) <= 1e-6 * abs(ref), key


def test_elimination_deviation_decreases_with_adiabaticity():
    devs = []
    for ratio in (2.0, 5.0, 10.0, 20.0):
        p = elimination_cavity(2, adiabaticity=ratio, drive_ratio=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = validate_elimination(p)
        devs.append(report.deviation_rel["Jz"])
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_elimination_warns_when_not_adiabatic():
    p = elimination_cavity(2, adiabaticity=2.0, drive_ratio=0.5)
    with pytest.warns(UserWarning, match="adiabaticity"):
        validate_elimination(p)


def _lu_confirmation(L, embed):
    """Both cavity solves by LU, the block's and the whole's, in place of
    ``nested_steady_state``."""
    block = Liouvillian(dim=math.isqrt(embed.size),
                        superoperator=L.superoperator[embed][:, embed])
    return steady_state(block), steady_state(L)


def _verdict(p, cutoff):
    try:
        report = validate_elimination(p, cutoff)
    except NoConvergence as exc:
        return "rejected: " + str(exc).split(":")[0], None
    return f"passed {report.passed}, converged {report.cutoff_converged}", report


# (N, kappa/(sqrt(N)|g|), drive, cutoff): the criterion-5 grid, the
# benchmark's drives and cutoffs too low to converge (N = 4 at ratio 2 takes
# 109 GMRES iterations, N = 8 at cutoff 1 350)
_CONFIRMATION_SCAN = (
    [(2, ratio, 0.5, None) for ratio in (2.0, 5.0, 10.0, 20.0)]
    + [(4, 10.0, drive, None) for drive in (0.25, 0.5, 0.75)]
    + [(2, 20.0, 0.5, 1), (8, 2.0, 0.9, 1), (4, 2.0, 0.9, None)]
)


@pytest.mark.parametrize("case", _CONFIRMATION_SCAN, ids=lambda c: "N%d-r%g-d%g-c%s" % c)
def test_gmres_confirmation_matches_the_lu(case, monkeypatch):
    # the GMRES confirmation gives the verdict of a cutoff + 5 LU, and the
    # observables it reports agree with that LU's to 1e-12 relative; c and
    # the photon number may be far below the unit trace, so below 1e-2 the
    # bound is 1e-14 absolute, the round-off of the state's entries
    n, ratio, drive, cutoff = case
    p = elimination_cavity(n, ratio, drive)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        verdict, report = _verdict(p, cutoff)
        monkeypatch.setattr(models, "nested_steady_state", _lu_confirmation)
        lu_verdict, lu_report = _verdict(p, cutoff)
    assert verdict == lu_verdict
    if report is not None:
        assert report.fock_cutoff == lu_report.fock_cutoff
        for key, ref in lu_report.full.items():
            assert abs(report.full[key] - ref) <= 1e-12 * max(abs(ref), 1e-2), key


# (N, cutoff, delta, delta_c, g, Omega_L, alpha): each detuning, a complex
# coupling and drive, and a displaced frame, at N 1-8 and cutoffs 1-6
_BLOCK_GRID = list(itertools.product(
    (1, 4, 8), (1, 3, 6), (0.0, 0.3), (0.0, -0.4), (0.2, 0.3 * np.exp(0.4j)),
    (0.5 - 0.2j,), (0.0, 0.1 + 0.05j)))


def test_fock_block_of_the_wider_model_is_the_model_at_the_cutoff():
    # the preconditioner's premise holds by construction: the block at K of
    # the model at K + 5 stores the same entries, in the same order, as the
    # model built at K
    for n, cutoff, delta, delta_c, g, omega_l, alpha in _BLOCK_GRID:
        p = CavityParams(g=g, kappa=1.3, delta_c=delta_c, Omega_L=omega_l, N=n, delta=delta)
        want = build_cavity_model(p, cutoff, alpha).liouvillian.superoperator
        wide = build_cavity_model(p, cutoff + 5, alpha).liouvillian.superoperator
        embed = _fock_embedding(n + 1, cutoff + 1, cutoff + 6)
        got = wide[embed][:, embed]
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_elimination_builds_one_cavity_model_per_drive(monkeypatch):
    # one build, at cutoff + 5, whose block is the factored model
    cutoffs = []

    def counting(p, cutoff, alpha=0.0):
        cutoffs.append(cutoff)
        return build_cavity_model(p, cutoff, alpha)

    monkeypatch.setattr(models, "build_cavity_model", counting)
    drives = (0.3, 0.6, 0.9)
    reports = [validate_elimination(elimination_cavity(2, 20.0, drive)) for drive in drives]
    assert cutoffs == [report.fock_cutoff for report in reports]


def test_elimination_over_the_old_cap_passes():
    # N = 20 at cutoffs 3 and 8: the confirmation model (21 * 9 = 189) is
    # over the cap, which now bounds only the factored model (21 * 4 = 84)
    p = elimination_cavity(20, 20.0, 0.9)
    with pytest.raises(DimensionCapError):
        cavity_dimension(p, 8)
    report = validate_elimination(p)
    assert report.fock_cutoff == 8
    assert report.cutoff_converged
    assert report.passed


def test_eliminated_model_takes_the_closed_form(monkeypatch):
    # at delta = 0 no Dicke Liouvillian is built; the moments, var(J_-)
    # included, are those of the closed form, and agree with the LU's
    p = elimination_cavity(4, 10.0, 0.7)
    e = map_cavity_to_effective(p)
    lu_rho, _ = steady_state(build_dicke_model(e).liouvillian)
    lu = spin_moments(lu_rho, SpinRep.for_atoms(4))

    def refuse(_):
        raise AssertionError("the Dicke LU ran at delta = 0")

    monkeypatch.setattr(models, "build_dicke_model", refuse)
    mom = models._eliminated_moments(p)
    assert mom == spin_moments(ResonantState(e), SpinRep.for_atoms(4))
    assert mom.var_jm == ResonantState(e).dipole_fluctuations()[0]
    assert abs(mom.jz - lu.jz) <= 1e-10
    assert abs(mom.jm - lu.jm) <= 1e-10 * abs(lu.jm)
    assert mom.var_jm == pytest.approx(lu.var_jm, rel=1e-8)


# the full grid runs up to N = 50; N = 200 takes each drive once and N = 400
# the hardest point (largest shift, near threshold, rotated phase)
_CLOSED_FORM_GRID = (
    [(n, d, r, ph) for n in (1, 2, 50) for d in (0.0, 1.0, 3.0)
     for r in (0.0, 0.01, 0.5, 0.95, 1.5) for ph in (0.0, 0.3)]
    + [(200, 0.0, 0.0, 0.0), (200, 1.0, 0.01, 0.3), (200, 3.0, 0.5, 0.0),
       (200, 0.0, 0.95, 0.3), (200, 1.0, 1.5, 0.0), (400, 3.0, 0.95, 0.3)]
)
# the sparse LU is the reference up to this N; it costs about 0.6 s per point
# at N = 200 and 6 s at N = 400, so larger points take a 60-digit X X^dag
LU_REFERENCE_MAX_N = 100


def _gated_closed_form(n, d, ratio, phase):
    """The model and the closed-form state of one grid point, through the
    closed form's O(D) gate and the dense gate (from_raw and the residual in
    the assembled Liouvillian)."""
    model = build_dicke_model(effective(n, ratio, d, phase))
    rho, report = resonant_steady_state(model.effective)
    assert report.method == "closed-form"
    assert report.uniqueness_ratio is None
    assert report.residual <= 1e-10 * max(model.liouvillian.scale, 1.0)
    dense = DensityMatrix.from_raw(rho.matrix)
    assert model.liouvillian.residual(dense.matrix) <= 1e-10 * max(model.liouvillian.scale, 1.0)
    return model, rho


def test_resonant_closed_form_matches_sparse_lu():
    worst = 0.0
    for n, d, ratio, phase in _CLOSED_FORM_GRID:
        if n <= LU_REFERENCE_MAX_N:
            model, rho = _gated_closed_form(n, d, ratio, phase)
            ref, _ = steady_state(model.liouvillian)
            worst = max(worst, trace_distance(rho, ref))
    assert worst <= 1e-10


def test_resonant_closed_form_matches_high_precision_at_large_n():
    # past LU_REFERENCE_MAX_N the reference is X X^dag/tr in 60 digits,
    # itself held to the LU at the largest LU point of the grid
    pytest.importorskip("mpmath")
    e = effective(50, 0.95, 3.0, 0.3)
    anchor = high_precision_resonant_state(e.N, e.Delta, e.Omega, e.gamma)
    assert trace_distance(anchor, steady_state(build_dicke_model(e).liouvillian)[0]) <= 1e-10
    worst = 0.0
    for n, d, ratio, phase in _CLOSED_FORM_GRID:
        if n > LU_REFERENCE_MAX_N:
            model, rho = _gated_closed_form(n, d, ratio, phase)
            e = model.effective
            ref = high_precision_resonant_state(n, e.Delta, e.Omega, e.gamma)
            worst = max(worst, trace_distance(rho, ref))
    assert worst <= 1e-10


def test_resonant_closed_form_checks():
    # undriven: the collective ground state |j, -j>
    ground, _ = resonant_steady_state(build_dicke_model(effective(6, 0.0)).effective)
    assert ground.matrix[0, 0] == 1.0 and np.count_nonzero(ground.matrix) == 1
    # off resonance the closed form does not hold
    detuned = EffectiveParams(1.0, 0.0, 0.0, 6, delta=0.3).with_drive_ratio(0.3)
    with pytest.raises(ValueError, match="delta = 0"):
        resonant_steady_state(build_dicke_model(detuned).effective)


def test_resonant_bands_match_dense_closed_form():
    # diagonals 0-3 in O(D) against the dense closed form (from_raw of the
    # D x D matrix); the gate builds no dense matrix
    worst = 0.0
    for n, d, ratio, phase in _CLOSED_FORM_GRID:
        rho, _ = resonant_steady_state(effective(n, ratio, d, phase))
        assert rho._dense is None
        for k in range(4):
            dense = rho.matrix.diagonal(-k)
            scale = float(np.abs(dense).max(initial=0.0))
            if scale == 0.0:  # the undriven ground state
                assert not np.any(rho.band(k))
                continue
            worst = max(worst, float(np.abs(rho.band(k) - dense).max()) / scale)
    assert worst <= 1e-12


def test_band_liouvillian_matches_assembled():
    # diagonals 0-2 of L rho on states that are not stationary for the
    # model, so that every term of the row formula contributes; the
    # detuned model checks the J_z term as well
    for n, e in ((1, effective(1, 0.6, 1.0, 0.3)), (7, effective(7, 0.6, 1.0, 0.3)),
                 (30, EffectiveParams(1.0, 0.5, 0.7 + 0.2j, 30, delta=0.4))):
        rho = DensityMatrix(ResonantState(effective(n, 0.9, 0.25)).matrix)
        full = superoperator_action(build_dicke_model(e).liouvillian, rho.matrix)
        scale = float(np.abs(full).max())
        for k, band in enumerate(_lindblad_bands(e, rho)):
            assert float(np.abs(band - full.diagonal(-k)).max(initial=0.0)) <= 1e-12 * scale


def test_banded_tolerance_no_looser_than_assembled():
    for n, d, ratio, phase in _CLOSED_FORM_GRID:
        e = effective(n, ratio, d, phase)
        dense = 1e-10 * max(build_dicke_model(e).liouvillian.scale, 1.0)
        assert 0.25 * dense <= banded_tolerance(e) <= dense


_GATE_POINT = effective(40, 0.8, 1.0, 0.3)


@pytest.mark.parametrize("k", range(4))
def test_banded_gate_rejects_perturbed_band(k):
    # one diagonal (and its mirror) of the exact state off by a part in 1e6
    exact = ResonantState(_GATE_POINT)
    accept_banded_state(_GATE_POINT, exact, "closed-form")
    mat = exact.matrix.copy()
    idx = np.arange(exact.dim - k)
    mat[idx + k, idx] *= 1.0 + 1e-6
    if k:
        mat[idx, idx + k] *= 1.0 + 1e-6
    with pytest.raises(NoConvergence, match="above tolerance"):
        accept_banded_state(_GATE_POINT, DensityMatrix(mat, validate=False), "closed-form")


@pytest.mark.parametrize("other", [effective(40, 0.8 * (1 + 1e-6), 1.0, 0.3),
                                   effective(40, 0.8, 1.5, 0.3)], ids=["drive", "shift"])
def test_banded_gate_rejects_wrong_beta(other):
    # the exact state of another beta: a drive off by 1e-6, or another shift
    with pytest.raises(NoConvergence, match="above tolerance"):
        accept_banded_state(_GATE_POINT, ResonantState(other), "closed-form")


def test_banded_gate_leaves_no_reference_cycle():
    # the O(D) gate frees what it makes when it returns: with the collector
    # off, a closed-form solve leaves nothing for it to find
    e = effective(20, 0.5, 1.0)
    resonant_steady_state(e)  # first-call costs
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        resonant_steady_state(e)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_banded_gate_passes_the_lu_state():
    # the gate holds for any Dicke-basis state of the model: the LU state of
    # a detuned drive passes it too
    e = EffectiveParams(1.0, 0.5, 0.0, 12, delta=0.3).with_drive_ratio(0.7)
    rho, _ = steady_state(build_dicke_model(e).liouvillian)
    _, report = accept_banded_state(e, rho, "sparse-direct")
    assert report.residual <= 1e-3 * banded_tolerance(e)


def test_resonant_dipole_fluctuations_match_high_precision():
    # var(J_-) and <J_-^2> - <J_->^2 of the closed form against a 60-digit
    # evaluation of rho = X X^dag / tr, X = (J_- - beta)^{-1}; at N = 40,
    # drive 0.5 both are of order 1e-15, below the round-off of the
    # difference formulas
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for n, ratio, d in ((10, 0.95, 1.0), (40, 0.5, 0.0), (40, 0.5, 1.0)):
            e = effective(n, ratio, d, 0.3)
            beta = -mpmath.mpc(e.Omega) / (mpmath.mpf(d) + mpmath.mpc(0, 0.5))
            j, jm = mpmath.mpf(n) / 2, mpmath.zeros(n + 1, n + 1)
            for i in range(n):
                m = -j + i + 1
                jm[i, i + 1] = mpmath.sqrt(j * (j + 1) - m * (m - 1))
            x = (jm - beta * mpmath.eye(n + 1)) ** -1

            def band(k):  # (X X^dag)[i + k, i], unnormalized
                return [mpmath.fsum(x[i + k, c] * mpmath.conj(x[i, c]) for c in range(n + 1))
                        for i in range(n + 1 - k)]

            pop, low, low2 = band(0), band(1), band(2)
            z = mpmath.fsum(pop)
            m1 = mpmath.fsum(jm[i, i + 1] * low[i] for i in range(n)) / z
            jpjm = mpmath.fsum(jm[i, i + 1] ** 2 * pop[i + 1] for i in range(n)) / z
            m2 = mpmath.fsum(jm[i, i + 1] * jm[i + 1, i + 2] * low2[i] for i in range(n - 1)) / z
            var, anom = jpjm - abs(m1) ** 2, m2 - m1**2
            mom = spin_moments(ResonantState(e), SpinRep.for_atoms(n))
            assert abs(mom.var_jm - float(var.real)) <= 1e-10 * abs(var)
            assert abs(mom.anom_jm - complex(anom)) <= 1e-10 * abs(anom)
            assert mom.coherence_ratio == 1.0 - mom.var_jm / mom.jp_jm
    # the precision is scoped to the test
    assert mpmath.mp.dps == 15


@pytest.mark.parametrize("ratio", [0.9, 0.99])
def test_resonant_gate_residual_far_below_tolerance_at_large_n(ratio):
    # log|u| summed as log(a_i/|beta|) keeps its rounding small: at
    # N = 10^5 the band residual stays below 1e-3 of the gate's tolerance
    # (4e-3 when the sum ran over log a_i alone)
    e = effective(10**5, ratio, 0.0)
    _, report = resonant_steady_state(e)
    assert report.residual <= 1e-3 * banded_tolerance(e)


def test_resonant_state_beyond_the_dicke_cap():
    # the closed form and its gate are O(D): no cap applies to them, while
    # the Liouvillian keeps DICKE_ATOM_CAP
    e = effective(20 * DICKE_ATOM_CAP, 0.9, 0.5)
    rho, report = resonant_steady_state(e)
    assert report.residual <= banded_tolerance(e)
    xi2 = spin_squeezing_numeric(rho, SpinRep.for_atoms(e.N))
    assert abs(xi2 - math.sqrt(1 - 0.9**2)) <= 1e-3
    with pytest.raises(DimensionCapError):
        build_dicke_model(e)
