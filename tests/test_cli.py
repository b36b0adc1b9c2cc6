import cmath
import csv
import io
import json
import math
import pathlib
import re
import time

import pytest

from dickelab.cli import main
from dickelab.errors import ConfigError
from dickelab import sweep
from dickelab.lindblad import set_blas_threads
from dickelab.sweep import MODES, RunConfig, _worker_pool, blas_thread_counts, run

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

# the grid coordinates lead every header, the wall-time/error pair ends it
COORDS = ["N", "Delta_over_gamma", "Omega_over_Omega_c"]
TAIL = ["wall_time_s", "error"]
SOLVER = ["solver_residual", "solver_method"]


def read_csv(path):
    lines = [l for l in open(path, encoding="utf-8").read().splitlines()
             if l and not l.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def write_cfg(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


BASE_MF = {
    "mode": "mean-field",
    "params": {"effective": {"gamma": 1.0, "N": 50}},
    "sweep": {"drive": {"values": [0.0, 0.6, 1.1]}, "Delta_over_gamma": [0.0]},
}


def test_mean_field_mode(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", BASE_MF)
    out = tmp_path / "mf.csv"
    assert main(["mean-field", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
    rows = read_csv(out)
    assert list(rows[0]) == COORDS + [
        "jz_over_halfN_analytic", "jminus_re", "jminus_im", "theta", "phi"] + TAIL
    assert len(rows) == 3
    assert float(rows[0]["jz_over_halfN_analytic"]) == -1.0
    assert float(rows[1]["jz_over_halfN_analytic"]) == pytest.approx(-0.8, rel=1e-12)
    # above threshold: analytic cells stay empty instead of fabricated
    assert rows[2]["jz_over_halfN_analytic"] == ""
    assert rows[2]["error"] == ""


def test_determinism_and_parallel_serial_equality(tmp_path):
    payload = {
        "mode": "sweep-jz",
        "params": {"effective": {"gamma": 1.0, "N": 8}},
        "sweep": {"drive": {"values": [0.2, 0.5, 0.8, 1.1]}, "Delta_over_gamma": [0.0, 0.5]},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
        out = tmp_path / name
        code = main(["sweep-jz", "--config", cfg, "--out", str(out),
                     "--no-timestamp", "--threads", threads])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]  # identical config, identical bytes
    assert outs[0] == outs[2]  # parallel equals serial row for row


def test_pool_workers_run_one_blas_thread(monkeypatch):
    parent = blas_thread_counts()
    assert set(parent) == {"numpy", "scipy"}
    with _worker_pool(2) as pool:
        assert pool.submit(blas_thread_counts).result() == {"numpy": 1, "scipy": 1}
    assert blas_thread_counts() == parent  # the calling process is left alone

    # the serial branch computes its points with one thread as well, and
    # gives the caller back its own counts (two here, so a missed restore
    # shows even where the process started with one)
    seen = []
    original = sweep.compute_point

    def counting(point):
        seen.append(blas_thread_counts())
        return original(point)

    monkeypatch.setattr(sweep, "compute_point", counting)
    cfg = RunConfig.from_dict(BASE_MF)
    cfg.threads = 1
    two = {"numpy": 2, "scipy": 2}
    set_blas_threads(two)
    try:
        run(cfg)
        assert blas_thread_counts() == two
    finally:
        set_blas_threads(parent)
    assert seen == [{"numpy": 1, "scipy": 1}] * 3


def test_timestamp_header_and_wall_time(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", BASE_MF)
    out = tmp_path / "mf.csv"
    assert main(["mean-field", "--config", cfg, "--out", str(out)]) == 0
    first = out.read_text().splitlines()[0]
    assert first.startswith("# generated ")
    rows = read_csv(out)
    assert float(rows[0]["wall_time_s"]) >= 0.0
    # suppressed variant drops both volatile pieces
    out2 = tmp_path / "mf2.csv"
    main(["mean-field", "--config", cfg, "--out", str(out2), "--no-timestamp"])
    assert not out2.read_text().startswith("#")
    assert read_csv(out2)[0]["wall_time_s"] == ""


def test_json_mirror(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", BASE_MF)
    out = tmp_path / "mf.csv"
    assert main(["mean-field", "--config", cfg, "--out", str(out),
                 "--no-timestamp", "--json"]) == 0
    mirror = json.loads((tmp_path / "mf.json").read_text())
    rows = read_csv(out)
    assert mirror["columns"] == list(rows[0].keys())
    assert len(mirror["rows"]) == len(rows)
    assert mirror["rows"][1]["jz_over_halfN_analytic"] == pytest.approx(-0.8)
    assert mirror["rows"][2]["jz_over_halfN_analytic"] is None


def test_absolute_drive_flag(tmp_path):
    payload = {
        "mode": "mean-field",
        "params": {"effective": {"gamma": 2.0, "N": 10}},
        "sweep": {"drive": {"values": [1.0]}, "Delta_over_gamma": [0.0]},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "mf.csv"
    assert main(["mean-field", "--config", cfg, "--out", str(out),
                 "--no-timestamp", "--absolute-drive"]) == 0
    rows = read_csv(out)
    assert "Omega_abs" in rows[0]
    # |Omega| = 1 absolute with Omega_c = (10/4)*2 = 5: well below threshold
    assert float(rows[0]["Omega_abs"]) == pytest.approx(1.0)
    assert float(rows[0]["jz_over_halfN_analytic"]) == pytest.approx(
        -math.sqrt(1 - (1.0 / 5.0) ** 2), rel=1e-12
    )


def test_missing_output_directory_exits_before_any_solve(tmp_path, monkeypatch):
    def no_solve(cfg):
        raise AssertionError("run() called with a missing output directory")

    missing = tmp_path / "missing"
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "run", no_solve)
        assert main(["moments", "--config", str(CONFIG_DIR / "moments_scaling.json"),
                     "--out", str(missing / "dir" / "m.csv")]) == 2
    assert not missing.exists()
    # a write that fails after the run is a configuration error as well
    cfg = write_cfg(tmp_path / "cfg.json", BASE_MF)
    assert main(["mean-field", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_worker_pool_capped_at_grid_size(monkeypatch):
    sizes = []

    class InProcess:
        def __init__(self, workers):
            sizes.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(sweep, "_worker_pool", InProcess)
    cfg = RunConfig.from_dict(BASE_MF)
    cfg.threads = 64
    assert len(run(cfg).rows) == 3
    assert sizes == [3]


def test_cavity_drive_grid_keeps_g_and_drive_phase():
    cfg = RunConfig.from_dict({
        "mode": "sweep-jz",
        "params": {"cavity": {"g": [0.0, 0.05], "kappa": 1.0, "Omega_L": 0.0, "N": 4}},
        "sweep": {"drive": {"values": [0.5], "phase": 1.0}},
    })
    [point] = sweep._grid_points(cfg)
    assert point.cavity.g == pytest.approx(0.05j, rel=1e-12)
    assert cmath.phase(point.effective.Omega) == pytest.approx(1.0, rel=1e-12)
    assert point.effective.drive_ratio == pytest.approx(0.5, rel=1e-12)


def test_exit_code_config_error(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["mean-field", "--config", str(missing), "--out", "x.csv"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["mean-field", "--config", str(bad), "--out", "x.csv"]) == 2
    both = write_cfg(tmp_path / "both.json", {
        "mode": "mean-field",
        "params": {"effective": {"gamma": 1.0, "N": 2}, "cavity": {"g": 1, "kappa": 1, "N": 2}},
        "sweep": {"drive": {"values": [0.1]}},
    })
    assert main(["mean-field", "--config", both, "--out", "x.csv"]) == 2
    wrong_mode = write_cfg(tmp_path / "wrong.json", dict(BASE_MF, mode="g2"))
    assert main(["mean-field", "--config", wrong_mode, "--out", "x.csv"]) == 2


@pytest.mark.parametrize(
    "payload",
    [
        # the mean-field and spectrum rows rest on the delta = 0 closed forms
        {"mode": "mean-field",
         "params": {"effective": {"gamma": 1.0, "N": 10, "delta": 0.3}},
         "sweep": {"drive": {"values": [0.5]}}},
        {"mode": "spectrum",
         "params": {"effective": {"gamma": 1.0, "N": 10, "delta": 0.3}},
         "sweep": {"drive": {"values": [0.5]}},
         "spectrum": {"n_tau": 32}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 10}},
         "sweep": {"drive": {"values": [0.5]}},
         "solver": {"method": "sparse"}},
        # g = 0 maps to gamma = 0
        {"mode": "sweep-jz",
         "params": {"cavity": {"g": 0, "kappa": 1.0, "Omega_L": 0.1, "N": 2}}},
        # out-of-range run knobs
        {"mode": "spectrum",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "spectrum": {"n_tau": 32, "tau_max_gamma": 0.0}},
        {"mode": "spectrum",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "spectrum": {"n_tau": 32, "kappa_embed_over_gamma": -1.0}},
        {"mode": "validate-elimination",
         "params": {"cavity": {"g": 0.1, "kappa": 2.0, "Omega_L": 0.1, "N": 2}},
         "elimination": {"fock_cutoff": 0}},
        # a negative drive is not a phase of pi in disguise
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [-0.5, 0.5]}}},
        # a misspelt key would otherwise run at its default (here Delta = 0)
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}, "Delta_over_gama": [1.0]}},
        # values that do not convert, and a block that is not an object
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": "abc", "N": 6}},
         "sweep": {"drive": {"values": [0.5]}}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "solver": {"threads": "two"}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "solver": [1]},
        # the solver route follows from the input; it cannot be named
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "solver": {"method": "sparse-direct"}},
        # an integer key takes no fraction, and a flag takes only a JSON boolean
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0}},
         "sweep": {"N": [2.7], "drive": {"values": [0.5]}}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "solver": {"threads": 1.5}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": {"start": 0.2, "stop": 0.8, "num": 3.9}}}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "output": {"timestamp": "false"}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "output": {"json_mirror": "no"}},
        # a real key takes only a finite JSON number: NaN would disarm the
        # residual gate, and float() would read "nan" and true
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "solver": {"tol": float("nan")}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": "nan", "N": 6}},
         "sweep": {"drive": {"values": [0.5]}}},
        {"mode": "spectrum",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "spectrum": {"n_tau": 32, "tau_max_gamma": float("inf")}},
        {"mode": "sweep-jz",
         "params": {"cavity": {"g": True, "kappa": 20.0, "Omega_L": 0.1, "N": 2}}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0}},
         "sweep": {"N": [10**400], "drive": {"values": [0.5]}}},
        # the residual tolerance and the worker count must be positive
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "solver": {"tol": 0}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "solver": {"threads": 0}},
    ],
    ids=["mean-field-detuned", "spectrum-detuned", "unknown-solver-method", "cavity-g-zero",
         "tau-max-nonpositive", "kappa-embed-nonpositive", "fock-cutoff-zero",
         "negative-drive", "unknown-key", "non-numeric-value", "non-integer-threads",
         "block-not-object", "solver-method-retired", "fractional-n", "fractional-threads",
         "fractional-num", "string-timestamp", "string-json-mirror", "nan-tol",
         "string-nan-gamma", "infinite-tau-max", "boolean-g", "huge-integer-n", "tol-zero",
         "threads-zero"],
)
def test_bad_config_rejected_before_solve(tmp_path, payload):
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "out.csv"
    assert main([payload["mode"], "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_threads_flag_below_one_rejected(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", BASE_MF)
    out = tmp_path / "out.csv"
    assert main(["mean-field", "--config", cfg, "--out", str(out), "--threads", "0"]) == 2
    assert not out.exists()
    assert main(["reproduce-figures", "--outdir", str(tmp_path), "--threads", "0"]) == 2
    assert not (tmp_path / "fig2.csv").exists()


def test_shipped_configs_parse():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert paths
    for path in paths:
        assert RunConfig.from_file(str(path)).mode in MODES


def test_readme_config_example_parses():
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    cfg = RunConfig.from_dict(json.loads(blocks[0]))
    assert cfg.mode == "sweep-jz"
    assert cfg.solver_tol is None and cfg.threads == 2


def test_exit_code_solver_failure_partial_results(tmp_path):
    payload = {
        "mode": "sweep-jz",
        "params": {"effective": {"gamma": 1.0, "N": 6}},
        "sweep": {"drive": {"values": [0.3]}, "Delta_over_gamma": [0.0]},
        "solver": {"tol": 1e-30},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "out.csv"
    assert main(["sweep-jz", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 3
    rows = read_csv(out)
    assert len(rows) == 1
    assert "NoConvergence" in rows[0]["error"]
    assert rows[0]["jz_over_halfN_numeric"] == ""


def test_solver_method_column_names_the_route(tmp_path):
    # every numeric mode shares one row path: resonant rows take the closed
    # form, detuned rows the sparse LU, and each row carries both solver
    # columns
    def payload(mode, delta):
        return {
            "mode": mode,
            "params": {"effective": {"gamma": 1.0, "N": 10, "delta": delta}},
            "sweep": {"drive": {"values": [0.5]}, "Delta_over_gamma": [0.0, 1.0]},
            "spectrum": {"n_tau": 32, "tau_max_gamma": 8.0},
        }

    cases = [(mode, delta, route)
             for mode in ("sweep-jz", "sweep-squeezing", "moments", "g2")
             for delta, route in ((0.0, "closed-form"), (0.3, "sparse-direct"))]
    cases.append(("spectrum", 0.0, "closed-form"))
    for mode, delta, route in cases:
        name = f"{mode}-{delta}"
        cfg = write_cfg(tmp_path / f"{name}.json", payload(mode, delta))
        out = tmp_path / f"{name}.csv"
        assert main([mode, "--config", cfg, "--out", str(out), "--no-timestamp",
                     "--threads", "1"]) == 0, name
        rows = read_csv(out)
        assert len(rows) == (2 * 65 if mode == "spectrum" else 2), name
        assert {r["solver_method"] for r in rows} == {route}, name
        assert all(math.isfinite(float(r["solver_residual"])) for r in rows), name


def test_detuned_sweep_leaves_analytic_cells_empty(tmp_path):
    # the closed forms assume delta = 0; the numeric solve does not
    payload = {
        "mode": "sweep-jz",
        "params": {"effective": {"gamma": 1.0, "N": 10, "delta": 0.3}},
        "sweep": {"drive": {"values": [0.5]}, "Delta_over_gamma": [0.0]},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "out.csv"
    assert main(["sweep-jz", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
    rows = read_csv(out)
    assert list(rows[0]) == COORDS + [
        "jz_over_halfN_numeric", "jz_over_halfN_analytic", "jz_over_halfN_residual",
    ] + SOLVER + TAIL
    assert len(rows) == 1
    assert rows[0]["error"] == ""
    assert -1.0 < float(rows[0]["jz_over_halfN_numeric"]) < 0.0
    assert rows[0]["jz_over_halfN_analytic"] == ""
    assert rows[0]["jz_over_halfN_residual"] == ""


def test_exit_code_above_threshold_spectrum(tmp_path):
    payload = {
        "mode": "spectrum",
        "params": {"effective": {"gamma": 1.0, "N": 6}},
        "sweep": {"drive": {"values": [1.2]}, "Delta_over_gamma": [0.0]},
        "spectrum": {"n_tau": 32},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 4


def test_spectrum_mode_rows(tmp_path):
    payload = {
        "mode": "spectrum",
        "params": {"effective": {"gamma": 1.0, "N": 8}},
        "sweep": {"drive": {"values": [0.5]}, "Delta_over_gamma": [0.0]},
        "spectrum": {"n_tau": 64, "tau_max_gamma": 6.0},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
    rows = read_csv(out)
    assert list(rows[0]) == COORDS + [
        "omega_over_gamma", "incoherent_spectrum", "coherent_weight", "incoherent_weight",
        "coherence_ratio", "correlator_decayed",
    ] + SOLVER + TAIL
    assert len(rows) == 129  # 2*n_tau + 1 frequency bins
    assert {float(r["coherence_ratio"]) for r in rows}  # constant, parseable
    assert rows[0]["correlator_decayed"] in ("true", "false")


def test_validate_elimination_mode(tmp_path):
    # N = 2 resonant cavity with kappa/(sqrt(N) g) = 20 driven at half critical
    n, kappa, adiab = 2, 1.0, 20.0
    g = kappa / (adiab * math.sqrt(n))
    gamma = 4 * g * g / kappa
    omega = 0.5 * (n / 4) * gamma
    omega_l = [0.0, -omega * kappa / (2 * g)]  # Omega (2 d_c + i k)/(-2g) at d_c=0
    payload = {
        "mode": "validate-elimination",
        "params": {"cavity": {"g": g, "kappa": kappa, "delta_c": 0.0,
                               "Omega_L": omega_l, "N": n}},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "elim.csv"
    assert main(["validate-elimination", "--config", cfg, "--out", str(out),
                 "--no-timestamp"]) == 0
    rows = read_csv(out)
    assert list(rows[0]) == COORDS + [
        "observable", "full_re", "full_im", "effective_re", "effective_im",
        "deviation_abs", "deviation_rel", "fock_cutoff", "adiabaticity_ratio",
        "cutoff_converged", "passed",
    ] + TAIL
    assert [r["observable"] for r in rows] == ["Jz", "Jminus", "JpJm"]
    assert all(r["passed"] == "true" for r in rows)
    jz = next(r for r in rows if r["observable"] == "Jz")
    assert float(jz["deviation_rel"]) <= 0.05
    assert float(jz["adiabaticity_ratio"]) == pytest.approx(20.0, rel=1e-9)


def test_elimination_over_the_cap_fails_before_any_cavity_solve(tmp_path):
    # N = 12 at Fock cutoff 8: the lower model (13 * 9 = 117) fits the cap
    # of 144 but takes about 15 s to solve; the cutoff + 5 model
    # (13 * 14 = 182) does not, so the point must fail before either solve
    n, kappa, adiab = 12, 1.0, 20.0
    g = kappa / (adiab * math.sqrt(n))
    omega = 0.9 * (n / 4) * (4 * g * g / kappa)
    payload = {
        "mode": "validate-elimination",
        "params": {"cavity": {"g": g, "kappa": kappa, "delta_c": 0.0,
                               "Omega_L": [0.0, -omega * kappa / (2 * g)], "N": n}},
        "elimination": {"fock_cutoff": 8},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "elim.csv"
    t0 = time.perf_counter()
    assert main(["validate-elimination", "--config", cfg, "--out", str(out),
                 "--no-timestamp"]) == 3
    assert time.perf_counter() - t0 < 5.0
    rows = read_csv(out)
    assert len(rows) == 1
    assert "DimensionCapError" in rows[0]["error"]
    assert "13*14 = 182 exceeds cap 144" in rows[0]["error"]


def test_cavity_level_drive_scaling(tmp_path):
    # the drive grid rescales Omega_L so the mapped drive hits the ratio
    payload = {
        "mode": "sweep-jz",
        "params": {"cavity": {"g": 0.05, "kappa": 2.0, "delta_c": 0.3,
                               "Omega_L": [0.0, 0.1], "N": 4}},
        "sweep": {"drive": {"values": [0.0, 0.6]}},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "cav.csv"
    assert main(["sweep-jz", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
    rows = read_csv(out)
    assert float(rows[0]["Omega_over_Omega_c"]) == pytest.approx(0.0, abs=1e-12)
    assert float(rows[1]["Omega_over_Omega_c"]) == pytest.approx(0.6, rel=1e-9)
    assert float(rows[0]["jz_over_halfN_numeric"]) == pytest.approx(-1.0, abs=1e-9)
    # mapped dipole shift, Delta/gamma = -delta_c/kappa, shows in the row
    assert float(rows[1]["Delta_over_gamma"]) == pytest.approx(-0.15, rel=1e-12)


def test_cavity_level_spectrum_uses_given_cavity(tmp_path):
    payload = {
        "mode": "spectrum",
        "params": {"cavity": {"g": 0.05, "kappa": 2.0, "delta_c": 0.0,
                               "Omega_L": [0.0, 0.1], "N": 6}},
        "sweep": {"drive": {"values": [0.5]}},
        "spectrum": {"n_tau": 48, "tau_max_gamma": 4.0},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
    rows = read_csv(out)
    assert len(rows) == 97
    assert float(rows[0]["coherent_weight"]) > 0.0


def test_g2_mode(tmp_path):
    payload = {
        "mode": "g2",
        "params": {"effective": {"gamma": 1.0, "N": 12}},
        "sweep": {"drive": {"values": [0.5]}, "Delta_over_gamma": [0.0]},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "g2.csv"
    assert main(["g2", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
    rows = read_csv(out)
    assert list(rows[0]) == COORDS + ["g2_numeric"] + SOLVER + TAIL
    assert len(rows) == 1
    assert float(rows[0]["g2_numeric"]) == pytest.approx(1.0, abs=1e-3)


def test_drive_phase_rotates_dipole(tmp_path):
    base = {
        "mode": "moments",
        "params": {"effective": {"gamma": 1.0, "N": 8}},
        "sweep": {"drive": {"values": [0.4]}, "Delta_over_gamma": [0.0]},
    }
    rows = {}
    for tag, phase in (("a", 0.0), ("b", 1.1)):
        payload = dict(base)
        payload["sweep"] = {"drive": {"values": [0.4], "phase": phase},
                            "Delta_over_gamma": [0.0]}
        cfg = write_cfg(tmp_path / f"{tag}.json", payload)
        out = tmp_path / f"{tag}.csv"
        assert main(["moments", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
        rows[tag] = read_csv(out)[0]
    assert list(rows["a"]) == COORDS + [
        "jminus_re", "jminus_im", "jpjm", "var_jm", "anom_jm_re", "anom_jm_im",
        "coherence_ratio", "hp_occupation_numeric", "hp_anomalous_numeric",
        "hp_occupation_analytic", "hp_anomalous_analytic",
    ] + SOLVER + TAIL
    jm_a = complex(float(rows["a"]["jminus_re"]), float(rows["a"]["jminus_im"]))
    jm_b = complex(float(rows["b"]["jminus_re"]), float(rows["b"]["jminus_im"]))
    assert abs(jm_b) == pytest.approx(abs(jm_a), rel=1e-9)
    assert jm_b == pytest.approx(jm_a * complex(math.cos(1.1), math.sin(1.1)), rel=1e-8)
    # gauge-invariant columns agree between the two runs
    assert float(rows["b"]["var_jm"]) == pytest.approx(float(rows["a"]["var_jm"]), abs=1e-10)


def test_cavity_level_sweep_rejects_grid_overrides(tmp_path):
    payload = {
        "mode": "sweep-jz",
        "params": {"cavity": {"g": 0.1, "kappa": 2.0, "Omega_L": 0.1, "N": 2}},
        "sweep": {"drive": {"values": [0.5]}, "N": [4]},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    assert main(["sweep-jz", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


def test_runconfig_validation_direct():
    with pytest.raises(ConfigError):
        RunConfig(mode="unknown", level="effective", n_values=[4])
    with pytest.raises(ConfigError):
        RunConfig(mode="sweep-jz", level="effective", n_values=[])
    with pytest.raises(ConfigError):
        RunConfig(mode="sweep-jz", level="effective", n_values=[4], drive_values=[])
    with pytest.raises(ConfigError):
        RunConfig(mode="validate-elimination", level="effective", n_values=[2])
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"mode": "sweep-jz", "params": {}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"params": {"effective": {"N": 2}}})


def test_reproduce_figures_smoke(tmp_path):
    # full-size reproduction lives in the acceptance suite; here only the
    # plumbing, on a silent in-process run of the same machinery
    cfg = RunConfig(
        mode="sweep-squeezing",
        level="effective",
        n_values=[6],
        delta_over_gamma_values=[0.0],
        drive_values=[0.3, 0.6],
        threads=1,
        timestamp=False,
    )
    result = run(cfg)
    assert result.columns == COORDS + ["xi2_numeric", "xi2_analytic", "xi2_residual"] + SOLVER + TAIL
    assert result.n_failures == 0
    assert len(result.rows) == 2
    xi2 = [row["xi2_numeric"] for row in result.rows]
    assert xi2[0] > xi2[1] > 0.0
