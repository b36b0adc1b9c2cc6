"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers (run with ``pytest -s`` to see them).

Numerical context for criterion 6: at Delta = 0 the steady state becomes
exponentially close to a purely coherently-radiating state as N grows, so
the incoherent weight falls below the round-off of the regression
correlator near N ~ 40. It is read from the closed form's exact var(J_-),
so its decrease is asserted strictly at every N, and the spectrum's
verdict turns from resolved to coherent where it crosses that round-off.
"""

import cmath
import math
import time
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import norm

from oracles import (
    brute_force_steady_state,
    dense_spin_ops,
    dicke_hamiltonian,
    expect,
    spin_xy,
    superoperator_action,
    trace_distance,
)

from dickelab.cli import main as cli_main
from dickelab.lindblad import steady_state, two_time_correlator, vectorize
from dickelab.models import build_dicke_model, resonant_steady_state, validate_elimination
from dickelab.observables import (
    field_composition,
    hp_moments,
    hp_moments_numeric,
    output_spectrum,
    spin_moments,
)
from dickelab.operators import SpinRep, build_spin_operators
from dickelab.parameters import (
    BlochAngles,
    CavityParams,
    EffectiveParams,
    bloch_angles,
    cavity_params_for_effective,
    critical_drive,
    map_cavity_to_effective,
)
from dickelab.sweep import RunConfig, run


def report(k, name, detail):
    print(f"ACCEPTANCE {k} ({name}): PASS  [{detail}]")


def eff(n, ratio, delta_over_gamma=0.0):
    return EffectiveParams(gamma=1.0, Delta=delta_over_gamma, Omega=0.0,
                           N=n).with_drive_ratio(ratio)


def sweep_rows(mode, n_values, delta_values, drive_values, threads=2):
    cfg = RunConfig(
        mode=mode,
        level="effective",
        n_values=list(n_values),
        delta_over_gamma_values=list(delta_values),
        drive_values=[float(x) for x in drive_values],
        threads=threads,
        timestamp=False,
    )
    result = run(cfg)
    assert result.n_failures == 0, [r["error"] for r in result.rows if r.get("error")]
    return result.rows


def test_criterion_1_fig2_reproduction():
    t0 = time.perf_counter()
    drives = np.linspace(0.05, 1.2, 30)
    rows = sweep_rows("sweep-jz", [50], [0.0, 0.5, 1.0], drives)
    elapsed = time.perf_counter() - t0

    curves = {}
    for d in (0.0, 0.5, 1.0):
        sel = [r for r in rows if r["Delta_over_gamma"] == d]
        assert len(sel) == 30
        curves[d] = np.array([r["jz_over_halfN_numeric"] for r in sel])

    # (a) mean-field window
    ratios = np.array([r["Omega_over_Omega_c"] for r in rows if r["Delta_over_gamma"] == 0.0])
    window = ratios <= 0.8
    target = -np.sqrt(1.0 - ratios[window] ** 2)
    dev_mf = np.abs(curves[0.0][window] - target).max()
    assert dev_mf <= 0.03

    # (b) collapse across dipole shifts at matched drive ratio
    dev_collapse = max(
        np.abs(curves[0.0] - curves[0.5]).max(),
        np.abs(curves[0.0] - curves[1.0]).max(),
    )
    assert dev_collapse <= 0.01
    assert elapsed <= 60.0
    report(1, "fig2 inversion", f"mf dev {dev_mf:.4f} <= 0.03, collapse "
                                f"{dev_collapse:.2e} <= 0.01, {elapsed:.1f}s <= 60s")


def test_criterion_2_fig3_reproduction():
    drives = np.linspace(0.05, 1.2, 30)
    rows = sweep_rows("sweep-squeezing", [50], [0.0, 0.5, 1.0], drives)
    curves = {}
    for d in (0.0, 0.5, 1.0):
        sel = [r for r in rows if r["Delta_over_gamma"] == d]
        curves[d] = np.array([r["xi2_numeric"] for r in sel])
    ratios = np.array([r["Omega_over_Omega_c"] for r in rows if r["Delta_over_gamma"] == 0.0])
    xi2 = curves[0.0]

    window = ratios <= 0.7
    dev = np.abs(xi2[window] - np.sqrt(1.0 - ratios[window] ** 2)).max()
    assert dev <= 0.05

    # dipole-shift curves collapse at matched drive ratio
    dev_collapse = max(
        np.abs((curves[0.0] - curves[0.5])[window]).max(),
        np.abs((curves[0.0] - curves[1.0])[window]).max(),
    )
    assert dev_collapse <= 0.01

    k_min = int(np.argmin(xi2))
    assert 0 < k_min < len(xi2) - 1  # interior minimum
    assert ratios[k_min] < 1.0  # below the critical drive
    assert xi2[-1] > xi2[k_min]  # grows afterwards
    report(2, "fig3 squeezing", f"analytic dev {dev:.4f} <= 0.05, collapse "
                                f"{dev_collapse:.1e} <= 0.01, min xi2 "
                                f"{xi2[k_min]:.4f} at {ratios[k_min]:.3f} Omega_c")


def test_criterion_3_squeezing_scaling():
    t0 = time.perf_counter()
    n_values = [20, 40, 80, 160]
    drives = np.arange(0.75, 1.0201, 0.01)
    rows = sweep_rows("sweep-squeezing", n_values, [0.0], drives)
    minima = {}
    for n in n_values:
        sel = [r for r in rows if r["N"] == n]
        xi2 = np.array([r["xi2_numeric"] for r in sel])
        k = int(np.argmin(xi2))
        assert 0 < k < len(xi2) - 1, f"minimum at scan edge for N={n}"
        minima[n] = xi2[k]
    elapsed = time.perf_counter() - t0

    slope = np.polyfit(np.log(n_values), np.log([minima[n] for n in n_values]), 1)[0]
    assert -0.45 <= slope <= -0.20
    assert elapsed <= 600.0
    report(3, "squeezing scaling", "min xi2 " +
           ", ".join(f"N={n}: {minima[n]:.4f}" for n in n_values) +
           f"; slope {slope:.3f} in [-0.45,-0.20], {elapsed:.0f}s <= 600s")


def test_criterion_4_mean_dipole():
    devs = []
    for d in (0.0, 0.5):
        e = eff(50, 0.5, d)
        model = build_dicke_model(e)
        rho, _ = steady_state(model.liouvillian)
        jm = expect(rho, model.ops["J_minus"])
        target = -e.Omega / (e.Delta + 0.5j * e.gamma)
        mod_dev = abs(abs(jm) / abs(target) - 1.0)
        phase_dev = abs(cmath.phase(jm / target))
        assert mod_dev <= 0.05
        assert phase_dev <= 0.05
        devs.append((d, mod_dev, phase_dev))
    report(4, "mean dipole", "; ".join(
        f"Delta={d}g: |mod dev| {m:.2e}, phase dev {p:.2e} rad" for d, m, p in devs))


def _elimination_cavity(n, adiabaticity, drive_ratio, kappa=1.0):
    g = kappa / (adiabaticity * math.sqrt(n))
    gamma = 4 * g * g / kappa
    e = EffectiveParams(gamma=gamma, Delta=0.0, Omega=0.0, N=n).with_drive_ratio(drive_ratio)
    return cavity_params_for_effective(e, kappa)


def test_criterion_5_adiabatic_elimination():
    devs = []
    for ratio in (2.0, 5.0, 10.0, 20.0):
        p = _elimination_cavity(2, ratio, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rep = validate_elimination(p)
        assert rep.cutoff_converged
        devs.append(rep.deviation_rel["Jz"])
    assert devs[-1] <= 0.05  # the adiabatic point passes
    assert all(a > b for a, b in zip(devs, devs[1:]))  # monotone approach
    report(5, "adiabatic elimination",
           "Jz devs vs kappa/(sqrt(N)g) in {2,5,10,20}: " +
           ", ".join(f"{d:.4f}" for d in devs))


def test_criterion_6_coherent_light_finite_n():
    n_values = [10, 20, 40, 80]
    ratios, fractions, verdicts = [], [], []
    for n in n_values:
        e = eff(n, 0.5)
        rho, _ = resonant_steady_state(e)
        mom = spin_moments(rho, SpinRep.for_atoms(n))
        p = cavity_params_for_effective(e, kappa=1000.0)
        fc = field_composition(p, mom.jm)
        spec = output_spectrum(e, p, None, 256, rho_ss=rho)
        # the incoherent weight is the exact |G|^2 var(J_-) of the closed form
        assert spec.incoherent_weight == abs(fc.G) ** 2 * mom.var_jm
        ratios.append(spec.coherence_ratio)
        fractions.append(spec.incoherent_weight / spec.coherent_weight)
        verdicts.append(spec.verdict)

    assert ratios[-1] > 0.95
    for k in range(len(n_values) - 1):
        # the incoherent fraction falls strictly, down to var(J_-) ~ 3e-30
        assert fractions[k + 1] < fractions[k], (fractions, k)
        # the coherent fraction grows strictly until it rounds to 1
        assert ratios[k + 1] >= ratios[k], (ratios, k)
        if ratios[k] < 1.0:
            assert ratios[k + 1] > ratios[k], (ratios, k)
    # var(J_-) is 1.3e-4 and 6.0e-8 at N = 10 and 20, 3.5e-15 and 3.0e-30
    # at N = 40 and 80, below the round-off of the connected correlator
    assert verdicts == ["resolved", "resolved", "coherent", "coherent"]
    report(6, "coherent light", "coherence ratio " +
           ", ".join(f"{r:.9f}" for r in ratios) + "; incoh/coh " +
           ", ".join(f"{w:.2e}" for w in fractions) + "; " + ", ".join(verdicts))


def test_criterion_7_field_theory_identities():
    rng = np.random.default_rng(101)
    # (a) mean output equals mean input for the mean-field dipole
    worst_mean = 0.0
    for _ in range(100):
        p = CavityParams(
            g=complex(rng.normal(), rng.normal()),
            kappa=float(rng.uniform(0.2, 30.0)),
            delta_c=float(rng.uniform(-10.0, 10.0)),
            Omega_L=complex(rng.normal(), rng.normal()),
            N=int(rng.integers(1, 300)),
        )
        e = map_cavity_to_effective(p)
        jm = -e.Omega / (e.Delta + 0.5j * e.gamma)
        fc = field_composition(p, jm)
        target = -1j * p.Omega_L
        worst_mean = max(worst_mean,
                         abs(fc.mean_field_out - target) / max(1.0, abs(target)))
    assert worst_mean <= 1e-12

    # (b) the radiated light is coherent: the anomalous dipole fluctuation
    # |<J_-^2> - <J_->^2| / |<J_->|^2 of the exact resonant state (the closed
    # form's, with no difference of large numbers) falls strictly with N
    # until it is 0, and at N = 10^3 it is below 1e-28 (1.7e-29 at drive
    # 0.9, 0.0 at drive 0.5; 6.9e-3 at N = 10, drive 0.9)
    worst_anom = 0.0
    for ratio in (0.5, 0.9):
        shares = []
        for n in (10, 100, 1000, 10000):
            mom = spin_moments(resonant_steady_state(eff(n, ratio))[0], SpinRep.for_atoms(n))
            shares.append(abs(mom.anom_jm) / abs(mom.jm) ** 2)
        for earlier, later in zip(shares, shares[1:]):
            assert later < earlier or earlier == later == 0.0
        worst_anom = max(worst_anom, shares[2])
    assert worst_anom <= 1e-28

    # (c) bosonic moments reconstruct the closed-form squeezing,
    # 1 + 2<a^dag a> - 2|<a^2>| = cos(theta)
    worst_rec = 0.0
    for _ in range(50):
        theta = float(rng.uniform(0.0, math.asin(0.998)))
        sol = hp_moments(BlochAngles(theta, 0.0))
        rec = 1.0 + 2.0 * sol.occupation - 2.0 * sol.anomalous_magnitude
        worst_rec = max(worst_rec, abs(rec - math.cos(theta)) / math.cos(theta))
    assert worst_rec <= 1e-12
    report(7, "field identities", f"mean-output dev {worst_mean:.1e}, "
                                  f"anomalous dipole share at N=1000 {worst_anom:.1e}, "
                                  f"reconstruction dev {worst_rec:.1e}")


def test_criterion_8_engine_properties(tmp_path):
    # commutators and Casimir
    for j in (25, 250):
        ops = build_spin_operators(SpinRep(j=j))
        jp, jm, jz = ops["J_plus"], ops["J_minus"], ops["J_z"]
        assert norm((jp @ jm - jm @ jp) - 2 * jz) <= 1e-12 * 2 * norm(jz)
        jx, jy = spin_xy(ops)
        j2 = jx @ jx + jy @ jy + jz @ jz
        eye = sp.eye_array(int(round(2 * j)) + 1, dtype=complex, format="csr")
        assert norm(j2 - j * (j + 1) * eye) <= 1e-12 * j * (j + 1)

    # trace and Hermiticity preservation, exact in the generator: the trace
    # row vec(I)^H L vanishes, and L(X^dag) = L(X)^dag for a random X
    L = build_dicke_model(eff(12, 0.6, 0.3)).liouvillian
    drift_tr = float(np.abs(vectorize(np.eye(L.dim)).conj() @ L.superoperator).max())
    rng = np.random.default_rng(8)
    X = rng.normal(size=(L.dim, L.dim)) + 1j * rng.normal(size=(L.dim, L.dim))
    drift_h = float(np.abs(superoperator_action(L, X.conj().T)
                           - superoperator_action(L, X).conj().T).max())
    assert drift_tr <= 1e-12 * L.scale
    assert drift_h <= 1e-12 * L.scale * float(np.abs(X).max())

    # the sparse LU, the resonant closed form and the dense null space of
    # the independently built generator agree
    worst_td = 0.0
    for n, ratio in ((12, 0.55), (20, 0.5)):
        e = eff(n, ratio, 0.25)
        model = build_dicke_model(e)
        ops = dense_spin_ops(n)
        states = [
            steady_state(model.liouvillian)[0],
            resonant_steady_state(model.effective)[0],
            brute_force_steady_state(dicke_hamiltonian(ops, e.Delta, e.Omega),
                                     [(e.gamma, ops["jm"])]),
        ]
        for i in range(len(states)):
            for k in range(i + 1, len(states)):
                worst_td = max(worst_td, trace_distance(states[i], states[k]))
    assert worst_td <= 1e-7

    # regression boundary: the connected correlator at tau = 0, the sum of
    # its pole weights (with the spectrum's Krylov shift)
    e10 = eff(10, 0.5)
    model10 = build_dicke_model(e10)
    rho10, _ = steady_state(model10.liouvillian)
    jp10, jm10 = model10.ops["J_plus"], model10.ops["J_minus"]
    _, weights, _ = two_time_correlator(model10.liouvillian, rho10, jp10, jm10, [0.0],
                                        0.5 / critical_drive(e10))
    val = weights.sum()
    direct = expect(rho10, jp10 @ jm10)
    bound_dev = abs(val - (direct - expect(rho10, jp10) * expect(rho10, jm10)))
    assert bound_dev <= 1e-10 * max(1.0, abs(direct))

    # determinism: serial and parallel sweeps byte-identical
    cfg_file = tmp_path / "det.json"
    cfg_file.write_text(
        '{"mode": "sweep-jz", "params": {"effective": {"gamma": 1.0, "N": 8}}, '
        '"sweep": {"drive": {"values": [0.2, 0.5, 0.8, 1.1]}, '
        '"Delta_over_gamma": [0.0, 0.5]}}'
    )
    blobs = []
    for name, threads in (("s.csv", "1"), ("p.csv", "2")):
        out = tmp_path / name
        assert cli_main(["sweep-jz", "--config", str(cfg_file), "--out", str(out),
                         "--no-timestamp", "--threads", threads]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    report(8, "engine properties",
           f"LU, closed-form and dense-oracle agreement {worst_td:.1e} <= 1e-7, "
           f"trace drift {drift_tr:.1e}, "
           f"herm drift {drift_h:.1e}, regression boundary {bound_dev:.1e}, "
           "serial == parallel bytes")


def test_criterion_9_hp_moment_bridge():
    e = eff(100, 0.5)
    model = build_dicke_model(e)
    rho, _ = steady_state(model.liouvillian)
    occ, anom = hp_moments_numeric(rho, model.rep)
    sol = hp_moments(bloch_angles(e))
    occ_dev = abs(occ / sol.occupation - 1.0)
    anom_dev = abs(anom / sol.anomalous_magnitude - 1.0)
    assert occ_dev <= 0.10
    assert anom_dev <= 0.10
    report(9, "HP moment bridge", f"N=100: occupation dev {occ_dev:.4f}, "
                                  f"anomalous dev {anom_dev:.4f} (<= 0.10)")
