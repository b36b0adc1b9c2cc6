import logging
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracles import (
    brute_force_steady_state,
    brute_force_superoperator,
    dense_spin_ops,
    dicke_hamiltonian,
    expect,
    master_equation_action,
    superoperator_action,
)

from dickelab.errors import NoConvergence, NonUniqueSteadyState, SolverError
from dickelab.lindblad import (
    SPECTRUM_RTOL,
    DensityMatrix,
    SteadyStateOptions,
    _square_system,
    _uniqueness_probe,
    accept_steady_state,
    blas_thread_counts,
    build_liouvillian,
    openblas_libraries,
    set_blas_threads,
    steady_state,
    two_time_correlator,
    uniqueness_threshold,
    unvectorize,
    vectorize,
)
from dickelab.models import build_cavity_model, build_dicke_model, resonant_steady_state
from dickelab.operators import SpinRep, build_spin_operators
from dickelab.parameters import CavityParams, EffectiveParams, critical_drive


def dicke_liouvillian(n_atoms, ratio, delta_over_gamma=0.0, gamma=1.0):
    e = EffectiveParams(gamma=gamma, Delta=delta_over_gamma * gamma, Omega=0.0,
                        N=n_atoms).with_drive_ratio(ratio)
    ops = build_spin_operators(SpinRep.for_atoms(n_atoms))
    H = -e.Delta * (ops["J_plus"] @ ops["J_minus"]) - (
        e.Omega * ops["J_plus"] + np.conj(e.Omega) * ops["J_minus"]
    )
    return build_liouvillian(H, [(e.gamma, ops["J_minus"])]), ops, e


def test_vectorization_convention():
    # vec(A X B) = (B^T kron A) vec(X) under column stacking
    rng = np.random.default_rng(0)
    A, X, B = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
    lhs = (A @ X @ B).flatten(order="F")
    rhs = np.kron(B.T, A) @ X.flatten(order="F")
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)
    np.testing.assert_allclose(unvectorize(vectorize(X), 4), X)


def test_superoperator_matches_brute_force():
    rng = np.random.default_rng(1)
    for dim, n_collapse in ((2, 1), (3, 2), (5, 1)):
        Hr = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = 0.5 * (Hr + Hr.conj().T)
        collapse = [
            (float(rng.uniform(0.1, 2.0)),
             rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            for _ in range(n_collapse)
        ]
        L = build_liouvillian(H, collapse)
        np.testing.assert_allclose(
            L.superoperator.toarray(),
            brute_force_superoperator(H, collapse),
            atol=1e-13,
        )


def commutator_form(H, collapse):
    """The generator as -i[H, .] plus, per channel, r (C . C^dag - {C^dag C, .}/2),
    one Kronecker product per term."""
    Hs = sp.csr_array(H, dtype=complex)
    eye = sp.identity(Hs.shape[0], dtype=complex, format="csr")
    gen = -1j * (sp.kron(eye, Hs, format="csr") - sp.kron(Hs.T, eye, format="csr"))
    for rate, C in collapse:
        Cs = sp.csr_array(C, dtype=complex)
        CdC = (Cs.conj().T @ Cs).tocsr()
        gen = gen + rate * (sp.kron(Cs.conj(), Cs, format="csr")
                            - 0.5 * sp.kron(eye, CdC, format="csr")
                            - 0.5 * sp.kron(CdC.T, eye, format="csr"))
    return gen.tocsr()


@pytest.mark.parametrize("build", [
    lambda: build_dicke_model(EffectiveParams(0.7, 0.9, 0.0, 20, delta=0.3)
                              .with_drive_ratio(0.8, 0.3)),
    lambda: build_cavity_model(CavityParams(g=0.3 * np.exp(0.4j), kappa=1.7, delta_c=0.6,
                                            Omega_L=0.8 + 0.2j, N=6, delta=0.05),
                               4, 0.3 - 0.2j),
], ids=["dicke-detuned", "cavity-displaced"])
def test_superoperator_matches_commutator_form(build, monkeypatch):
    # I (x) G + conj(G) (x) I + sum r conj(C) (x) C has the sparsity of the
    # commutator form, and its entries within two ulps
    import dickelab.models

    calls = []

    def spy(H, collapse):
        calls.append((H, collapse))
        return build_liouvillian(H, collapse)

    monkeypatch.setattr(dickelab.models, "build_liouvillian", spy)
    built = build().liouvillian.superoperator
    (H, collapse), = calls
    reference = commutator_form(H, collapse)
    assert built.has_canonical_format and reference.has_canonical_format
    np.testing.assert_array_equal(built.indptr, reference.indptr)
    np.testing.assert_array_equal(built.indices, reference.indices)
    np.testing.assert_allclose(built.data, reference.data, rtol=2 * np.finfo(float).eps, atol=0)


def test_liouvillian_input_forms_and_checks():
    # dense and sparse inputs give one generator; malformed input is refused
    ops = dense_spin_ops(2)
    H = dicke_hamiltonian(ops, 0.5, 0.3)
    dense = build_liouvillian(H, [(1.0, ops["jm"])]).superoperator
    sparse = build_liouvillian(sp.csr_array(H), [(1.0, sp.csr_array(ops["jm"]))]).superoperator
    assert abs(dense - sparse).max() == 0.0
    with pytest.raises(ValueError):
        build_liouvillian(np.zeros((2, 3)), [])  # not square
    with pytest.raises(ValueError):
        build_liouvillian(np.zeros(3), [])  # not 2D
    with pytest.raises(ValueError):
        build_liouvillian(H, [(1.0, np.zeros((2, 2)))])  # dimension mismatch
    with pytest.raises(ValueError):
        build_liouvillian(H, [(-0.1, ops["jm"])])  # negative rate


def test_collective_decay_clebsch_factor():
    # acting on the doubly excited projector the decay feeds m=0 at 2*gamma
    gamma = 0.7
    ops = dense_spin_ops(2)
    L = build_liouvillian(np.zeros((3, 3)), [(gamma, ops["jm"])])
    E_top = np.zeros((3, 3), dtype=complex)
    E_top[2, 2] = 1.0
    out = superoperator_action(L, E_top)
    assert out[1, 1] == pytest.approx(2 * gamma, rel=1e-14)
    assert out[2, 2] == pytest.approx(-2 * gamma, rel=1e-14)
    np.testing.assert_allclose(out, master_equation_action(
        np.zeros((3, 3)), [(gamma, ops["jm"])], E_top), atol=1e-14)


def test_trace_and_hermiticity_preservation():
    L, _, _ = dicke_liouvillian(6, 0.6, 0.5)
    rng = np.random.default_rng(2)
    for _ in range(50):
        Xr = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        X = 0.5 * (Xr + Xr.conj().T)
        LX = superoperator_action(L, X)
        assert abs(LX.trace()) <= 1e-12 * np.linalg.norm(X) * L.scale
        assert np.abs(LX - LX.conj().T).max() <= 1e-12 * np.abs(LX).max() + 1e-14
    # adjoint compatibility on arbitrary (non-Hermitian) operators
    for _ in range(10):
        X = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        lhs = superoperator_action(L, X.conj().T)
        rhs = superoperator_action(L, X).conj().T
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max() + 1e-14


def test_method_auto_selection_table():
    # one route at every dimension: the model caps are the only size limit
    opts = SteadyStateOptions()
    for dim in (1, 8, 24, 25, 400, 401, 402):
        assert opts.resolve_method(dim) == "sparse-direct"


def test_single_atom_decay_steady_state():
    ops = dense_spin_ops(1)
    L = build_liouvillian(np.zeros((2, 2)), [(1.0, ops["jm"])])
    rho, report = steady_state(L)
    expected = np.zeros((2, 2))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)
    assert report.method == "sparse-direct"


@pytest.mark.parametrize("n_atoms, ratio, delta_over_gamma", [(4, 0.5, 0.0), (12, 0.55, 0.3)])
def test_steady_state_matches_dense_oracle(n_atoms, ratio, delta_over_gamma):
    L, ops, e = dicke_liouvillian(n_atoms, ratio, delta_over_gamma)
    rho, _ = steady_state(L)
    dense = dense_spin_ops(n_atoms)
    oracle = brute_force_steady_state(
        dicke_hamiltonian(dense, e.Delta, e.Omega), [(e.gamma, dense["jm"])]
    )
    np.testing.assert_allclose(rho.matrix, oracle, atol=1e-9)


def test_steady_state_mean_field_window_n50():
    L, ops, e = dicke_liouvillian(50, 0.5)
    rho, report = steady_state(L)
    jz = expect(rho, ops["J_z"]).real / 25.0
    assert abs(jz + np.sqrt(1 - 0.25)) < 0.03
    assert report.method == "sparse-direct"


def test_non_unique_detection():
    # two dark states: |0> and |2> with decay only 1 -> 0
    C = np.zeros((3, 3), dtype=complex)
    C[0, 1] = 1.0
    L = build_liouvillian(np.zeros((3, 3)), [(1.0, C)])
    with pytest.raises(NonUniqueSteadyState):
        steady_state(L)


def test_uniqueness_probe_matches_smallest_singular_value():
    # the probe is sigma_min of the superoperator with row 0 replaced by
    # the scaled trace row, over the scale
    L, _, _ = dicke_liouvillian(30, 0.8, 0.5)
    _, report = steady_state(L)
    M = L.superoperator.toarray()
    M[0] = 0.0
    M[0, :: L.dim + 1] = L.scale
    sigma_min = np.linalg.svd(M, compute_uv=False)[-1]
    assert report.uniqueness_ratio == pytest.approx(sigma_min / L.scale, rel=1e-2)
    assert report.uniqueness_ratio > uniqueness_threshold(L.dim ** 2)


def test_uniqueness_probe_flags_decoupled_cavity():
    # g = 0 freezes the atoms: every atomic state is stationary
    model = build_cavity_model(CavityParams(g=0.0, kappa=2.0, delta_c=0.5, Omega_L=0.3, N=2),
                               cutoff=8)
    L = model.liouvillian
    M, _, scale = _square_system(L)
    uniq = _uniqueness_probe(spla.splu(M), M.shape[0], scale)
    assert uniq < uniqueness_threshold(L.dim ** 2)
    with pytest.raises(NonUniqueSteadyState):
        steady_state(L)


def test_small_probe_ratio_of_unique_state_is_accepted():
    # N = 200, Delta/gamma = 3: a unique state whose probe ratio (~5e-7)
    # sits far above round-off but below any fixed 1e-6 cut
    L, ops, _ = dicke_liouvillian(200, 0.85, 3.0)
    rho, report = steady_state(L)
    assert report.method == "sparse-direct"
    assert report.uniqueness_ratio > uniqueness_threshold(L.dim ** 2)
    jz = expect(rho, ops["J_z"]).real / 100.0
    assert abs(jz + np.sqrt(1 - 0.85 ** 2)) < 1.0 / 200


def test_expect_basics():
    ops = build_spin_operators(SpinRep.for_atoms(10))
    ground = np.zeros((11, 11), dtype=complex)
    ground[0, 0] = 1.0
    rho = DensityMatrix(ground)
    assert expect(rho, ops["J_z"]).real == pytest.approx(-5.0, abs=1e-14)
    eye = sp.eye_array(11, dtype=complex, format="csr")
    assert expect(rho, eye) == pytest.approx(1.0, abs=1e-14)
    assert abs(expect(rho, ops["J_plus"] @ ops["J_minus"])) < 1e-14
    with pytest.raises(ValueError):
        expect(rho, sp.eye_array(5, format="csr"))


def _pole_correlator(L, rho, A, B, taus, shift):
    """(lambda, w, sum_k w_k exp(lambda_k tau) on taus) from two_time_correlator
    with the Krylov shift ``shift`` (``observables.output_spectrum`` takes
    0.5/critical_drive = 1/(N |Delta + i gamma/2|)), its stop rule watching
    the frequency grid the spectrum takes for such lags (2 len(taus) + 1
    points over +-pi/dtau, dtau = taus[-1]/(len(taus) - 1))."""
    taus = np.asarray(taus)
    dtau = taus[-1] / (taus.size - 1)
    omega = np.linspace(-np.pi / dtau, np.pi / dtau, 2 * taus.size + 1)
    lam, w, _ = two_time_correlator(L, rho, A, B, omega, shift)
    return lam, w, np.exp(np.outer(taus, lam)) @ w


@pytest.mark.parametrize("route", ["poles"])
def test_correlator_identity_is_constant(route):
    # <1(0) 1(tau)> = 1 = <1><1> at every lag: nothing is left connected;
    # the connected start is round-off on the stationary mode, which no
    # kept pole carries
    L, _, e = dicke_liouvillian(4, 0.5)
    rho, _ = steady_state(L)
    eye = sp.eye_array(5, dtype=complex, format="csr")
    taus = np.linspace(0.0, 2.0, 9)
    _, w, vals = _pole_correlator(L, rho, eye, eye, taus, 0.5 / critical_drive(e))
    assert float(np.abs(w).max(initial=0.0)) <= np.finfo(float).eps * L.dim
    np.testing.assert_allclose(vals, np.zeros_like(vals), atol=1e-12)


@pytest.mark.parametrize("route", ["poles"])
def test_correlator_single_atom_decay_envelope(route):
    # regression propagation of the excited-state coherence decays at gamma/2
    ops = dense_spin_ops(1)
    gamma = 0.8
    L = build_liouvillian(np.zeros((2, 2)), [(gamma, ops["jm"])])
    rho_e = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    taus = np.linspace(0.0, 3.0, 13)
    # one pole at -gamma/2 of weight 1; the spectrum's shift at N = 1, Delta = 0
    lam, w, vals = _pole_correlator(L, rho_e, ops["jp"], ops["jm"], taus, 2.0 / gamma)
    assert lam.size == 1
    assert abs(lam[0] + 0.5 * gamma) <= 1e-14 and abs(w[0] - 1.0) <= 1e-14
    np.testing.assert_allclose(vals, np.exp(-0.5 * gamma * taus), atol=1e-9)


def _dense_correlator(L, rho, A, B, taus):
    """<A(0) B(tau)> from the dense exponential of the generator applied to
    vec(rho A), one expm per lag."""
    S = L.superoperator.toarray()
    x = vectorize(rho.matrix @ A.toarray())
    w = vectorize(B.toarray().T)
    return np.array([w @ (scipy.linalg.expm(t * S) @ x) for t in taus])


_DENSE_CASES = {
    "closed-form": (10, 0.9, 0.5, 0.0, np.linspace(0.0, 1.0, 64)),
    "detuned-lu": (8, 0.6, 0.5, 0.3, np.linspace(0.0, 1.5, 64)),
    "non-uniform-grid": (10, 0.9, 0.5, 0.0,
                         np.concatenate(([0.0], np.geomspace(1e-3, 2.0, 40)))),
}


@pytest.mark.parametrize("case", _DENSE_CASES, ids=[f"{case}-poles" for case in _DENSE_CASES])
def test_correlator_matches_dense_exponential(case):
    # the pole sum, with the spectrum's shift, to SPECTRUM_RTOL of the
    # largest value, its stop rule's guarantee
    n_atoms, ratio, delta_over_gamma, delta, taus = _DENSE_CASES[case]
    e = EffectiveParams(gamma=1.0, Delta=delta_over_gamma, Omega=0.0, N=n_atoms,
                        delta=delta).with_drive_ratio(ratio)
    model = build_dicke_model(e)
    L, ops = model.liouvillian, model.ops
    rho = resonant_steady_state(model.effective)[0] if delta == 0.0 else steady_state(L)[0]
    _, _, vals = _pole_correlator(L, rho, ops["J_plus"], ops["J_minus"], taus,
                                  0.5 / critical_drive(e))
    # every fourth lag against the reference: the dense expm dominates the cost
    exact = _dense_correlator(L, rho, ops["J_plus"], ops["J_minus"], taus[::4])
    exact -= expect(rho, ops["J_plus"]) * expect(rho, ops["J_minus"])
    scale = float(np.abs(exact).max())
    assert scale > 1e-3
    assert float(np.abs(vals[::4] - exact).max()) <= SPECTRUM_RTOL * scale


def test_correlator_factorizes_at_long_lag():
    # the closed-form case: the connected start is 9 % of |<J_->|^2, far
    # above its round-off, and the slowest kept pole decays at about
    # 1.07 gamma, so by tau = 20/gamma <J_+(0) J_-(tau)> has factorized
    # into |<J_->|^2 and nothing is left connected
    n_atoms, ratio, delta_over_gamma, _, _ = _DENSE_CASES["closed-form"]
    e = EffectiveParams(gamma=1.0, Delta=delta_over_gamma, Omega=0.0,
                        N=n_atoms).with_drive_ratio(ratio)
    model = build_dicke_model(e)
    L, ops = model.liouvillian, model.ops
    rho, _ = resonant_steady_state(model.effective)
    jm = expect(rho, ops["J_minus"])
    _, _, vals = _pole_correlator(L, rho, ops["J_plus"], ops["J_minus"],
                                  np.linspace(0.0, 20.0, 64), 0.5 / critical_drive(e))
    assert abs(vals[0]) >= 0.05 * abs(jm) ** 2
    assert abs(vals[-1]) <= 1e-6 * abs(jm) ** 2


def test_correlator_of_weak_drive_stops_at_round_off(caplog):
    # N = 40, drive 0.5, Delta = 0: the exact connected correlator is of
    # order var(J_-) = 3.5e-15, below the round-off of its start, so the
    # propagation stops on the round-off floor after a few vectors
    e = EffectiveParams(gamma=1.0, Delta=0.0, Omega=0.0, N=40).with_drive_ratio(0.5)
    model = build_dicke_model(e)
    L, ops = model.liouvillian, model.ops
    rho, _ = resonant_steady_state(model.effective)
    taus = np.linspace(0.0, 10.0 / (40 * np.sqrt(1 - 0.5 ** 2) / 2), 512)
    with caplog.at_level(logging.DEBUG, logger="dickelab.lindblad"):
        _, _, vals = _pole_correlator(L, rho, ops["J_plus"], ops["J_minus"], taus,
                                      0.5 / critical_drive(e))
    jpjm = expect(rho, ops["J_plus"] @ ops["J_minus"]).real
    assert float(np.abs(vals).max()) <= np.finfo(float).eps * L.dim * jpjm
    dims = re.findall(r"spectrum propagation: Krylov dimension (\d+)", caplog.text)
    assert len(dims) == 1 and int(dims[0]) <= 16


def test_correlator_of_zero_operator_has_no_poles():
    # A = 0 makes the connected start exactly zero, which stays zero: no
    # factor, no basis and no pole
    L, ops, _ = dicke_liouvillian(4, 0.5)
    rho, _ = steady_state(L)
    lam, w, report = two_time_correlator(L, rho, sp.csr_array((5, 5), dtype=complex),
                                         ops["J_minus"], [0.0, 1.0], 0.1)
    assert lam.size == 0 and w.size == 0
    assert report.krylov_dim == 0 and report.lu_nnz == 0


def test_density_matrix_repair_and_rejection():
    base = np.diag([0.7, 0.3 - 4e-9, -4e-9]).astype(complex)
    dm = DensityMatrix.from_raw(base)
    assert dm.min_eigenvalue() >= -1e-15
    assert abs(dm.matrix.trace() - 1) < 1e-12
    bad = np.diag([0.8, 0.3, -0.1]).astype(complex)
    with pytest.raises(SolverError):
        DensityMatrix.from_raw(bad)


def test_dense_decompositions_run_on_one_blas_thread(monkeypatch):
    # from_raw, min_eigenvalue and the correlator's poles pin one thread
    # around their eigh/eigvalsh/eig, and give the caller
    # back its own counts (two here, so a missed restore shows)
    L, ops, _ = dicke_liouvillian(4, 0.5, 0.5)
    rho_ss, _ = steady_state(L)
    openblas_libraries()
    parent = blas_thread_counts()
    seen = []
    for name in ("eigh", "eigvalsh", "eig"):
        original = getattr(np.linalg, name)

        def recording(*args, _original=original, **kwargs):
            seen.append(blas_thread_counts())
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    two = dict.fromkeys(parent, 2)
    set_blas_threads(two)
    try:
        rho = DensityMatrix.from_raw(np.diag([0.5, 0.3, 0.2]).astype(complex))
        rho.min_eigenvalue()
        two_time_correlator(L, rho_ss, ops["J_plus"], ops["J_minus"], [0.0, 1.0], 0.1)
        assert blas_thread_counts() == two
    finally:
        set_blas_threads(parent)
    assert len(seen) > 3
    assert all(counts == dict.fromkeys(parent, 1) for counts in seen)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.6, 0.6]).astype(complex))  # trace 1.2
    m = np.array([[0.5, 0.2], [0.3, 0.5]], dtype=complex)  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(m)


def test_noconvergence_on_unreachable_tolerance():
    # the LU gate takes the solved state, and rejects it with a part in 1e6
    # of population moved between two levels: still a density matrix, but
    # its residual is far above the bound the gate derives from L
    L, _, _ = dicke_liouvillian(6, 0.4)
    rho, _ = steady_state(L)
    accept_steady_state(L, rho.matrix, "sparse-direct", None)
    perturbed = rho.matrix.copy()
    perturbed[0, 0] -= 1e-6
    perturbed[1, 1] += 1e-6
    with pytest.raises(NoConvergence, match="above tolerance"):
        accept_steady_state(L, perturbed, "sparse-direct", None)


def test_grid_validation():
    L, ops, _ = dicke_liouvillian(4, 0.5)
    rho, _ = steady_state(L)
    with pytest.raises(ValueError):
        two_time_correlator(L, rho, sp.eye_array(3, format="csr"), ops["J_minus"], [0.0], 0.1)
