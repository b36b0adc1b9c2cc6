import cmath
import csv
import functools
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from dickelab.cli import BLAS_THREAD_VARIABLES, main
from dickelab.errors import ConfigError
from dickelab import lindblad, sweep
from dickelab.lindblad import blas_thread_counts, set_blas_threads
from dickelab.sweep import MODES, RunConfig, _worker_pool, run

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


# a detuned grid: every point takes the sparse LU and its uniqueness probe
DETUNED = {
    "mode": "sweep-jz",
    "params": {"effective": {"gamma": 1.0, "N": 6, "delta": 0.3}},
    "sweep": {"drive": {"values": [0.4, 0.8]}, "Delta_over_gamma": [0.0]},
}


def _threads_in_lu(call, *args):
    """The OpenBLAS counts that ``call(*args)`` sees in each uniqueness
    probe of its LU solves."""
    seen, probe = [], lindblad._uniqueness_probe

    def probing(*probe_args):
        seen.append(blas_thread_counts())
        return probe(*probe_args)

    lindblad._uniqueness_probe = probing
    try:
        call(*args)
    finally:
        lindblad._uniqueness_probe = probe
    return seen


def test_pool_workers_run_one_blas_thread():
    # the LU of a detuned point runs one thread in every copy, in a serial
    # run and in a pool worker, and the caller keeps its own counts (two
    # here, so a missed restore shows even where the process started with one)
    import scipy.sparse.linalg  # noqa: F401 (loads scipy's OpenBLAS, so both copies are set)

    cfg = RunConfig.from_dict(DETUNED)
    cfg.threads = 1
    one, two = {"numpy": 1, "scipy": 1}, {"numpy": 2, "scipy": 2}
    parent = blas_thread_counts()
    set_blas_threads(two)
    try:
        assert _threads_in_lu(run, cfg) == [one] * 2
        assert blas_thread_counts() == two
        with _worker_pool(1) as pool:
            worker = pool.submit(_threads_in_lu, sweep.compute_point,
                                 sweep._grid_points(cfg)[0]).result()
        assert worker == [one]
        assert blas_thread_counts() == two
    finally:
        set_blas_threads(parent)


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


@pytest.mark.parametrize("out, flags", [("c.csv", ["--json"]), ("sub/../c.json", [])],
                         ids=["json-mirror", "csv"])
def test_output_that_is_the_config_file_exits_before_any_solve(tmp_path, out, flags):
    # the CSV or its JSON mirror resolving to the config file would replace
    # the config; a rerun would then read the output as a config
    (tmp_path / "sub").mkdir()
    cfg = write_cfg(tmp_path / "c.json", {"mode": "g2",
                                          "params": {"effective": {"gamma": 1.0, "N": 12}},
                                          "sweep": {"drive": {"values": [0.5]}}})
    before = (tmp_path / "c.json").read_bytes()
    assert main(["g2", "--config", cfg, "--out", str(tmp_path / out), *flags]) == 2
    assert (tmp_path / "c.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "sub"]


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
        # a real key takes only a finite JSON number: NaN would pass every
        # bound check (each comparison with it is false), and float() would
        # read "nan" and true
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "spectrum": {"kappa_embed_over_gamma": float("nan")}},
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
        # each gate derives its own tolerance, so solver.tol is an unknown
        # key; the worker count must be positive
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "solver": {"tol": 1e-8}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}},
         "solver": {"threads": 0}},
        # the physical parameters and the grids must be usable
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": -1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5]}}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0}},
         "sweep": {"N": [0], "drive": {"values": [0.5]}}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"Delta_over_gamma": [], "drive": {"values": [0.5]}}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": [0.5], "units": "rabi"}}},
        {"mode": "sweep-jz",
         "params": {"effective": {"gamma": 1.0, "N": 6}},
         "sweep": {"drive": {"values": {"start": 0.2, "stop": 0.8, "num": 0}}}},
    ],
    ids=["mean-field-detuned", "spectrum-detuned", "unknown-solver-method", "cavity-g-zero",
         "tau-max-nonpositive", "kappa-embed-nonpositive", "fock-cutoff-zero",
         "negative-drive", "unknown-key", "non-numeric-value", "non-integer-threads",
         "block-not-object", "solver-method-retired", "fractional-n", "fractional-threads",
         "fractional-num", "string-timestamp", "string-json-mirror", "nan-real-key",
         "string-nan-gamma", "infinite-tau-max", "boolean-g", "huge-integer-n",
         "solver-tol-retired", "threads-zero", "gamma-negative", "n-zero", "empty-delta-list",
         "unknown-drive-units", "drive-num-zero"],
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


def test_reproduce_figures_checks_arguments_before_making_outdir(tmp_path):
    outdir = tmp_path / "new"
    assert main(["reproduce-figures", "--outdir", str(outdir), "--threads", "0"]) == 2
    assert not outdir.exists()


def _fresh(args, **env) -> subprocess.CompletedProcess:
    """``python args`` run in a new interpreter on this package, with
    ``env`` added to the environment (a None value removes the variable)."""
    src = str(pathlib.Path(sweep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
               **env)
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def _fresh_interpreter(script: str, *args, **env) -> str:
    """Standard output of ``script`` run as :func:`_fresh` runs it, which
    must exit 0."""
    proc = _fresh(["-c", script, *args], **env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# one delta = 0 config of each mode whose rows need no Liouvillian; the
# spectrum point (N = 40, drive 0.5, as configs/spectrum_n40.json) is coherent
_RESONANT_RUNS = {
    mode: {"mode": mode, "params": {"effective": {"gamma": 1.0, "N": 30}},
           "sweep": {"drive": {"values": [0.3, 0.8]}, "Delta_over_gamma": [0.0, 1.0]}}
    for mode in ("sweep-squeezing", "sweep-jz", "moments", "g2", "mean-field")
}
_RESONANT_RUNS["spectrum"] = {
    "mode": "spectrum", "params": {"effective": {"gamma": 1.0, "N": 40}},
    "sweep": {"drive": {"values": [0.5]}, "Delta_over_gamma": [0.0]},
    "spectrum": {"n_tau": 32},
}


def test_resonant_run_loads_no_scipy(tmp_path):
    # the closed form needs numpy alone: importing the CLI and running a
    # delta = 0 sweep of each such mode, one after the other in one
    # process, leave no scipy module in sys.modules
    cfgs = [write_cfg(tmp_path / f"{mode}.json", payload)
            for mode, payload in _RESONANT_RUNS.items()]
    out = _fresh_interpreter(
        "import json, sys\n"
        "import dickelab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "for cfg in sys.argv[1:]:\n"
        "    mode = json.load(open(cfg))['mode']\n"
        "    code = dickelab.cli.main([mode, '--config', cfg, '--out', cfg[:-5] + '.csv',\n"
        "                              '--threads', '1'])\n"
        "    print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n",
        *cfgs)
    lines = out.splitlines()
    assert lines[0] == "[]"
    assert [line for line in lines if line[:1].isdigit()] == ["0 []"] * len(cfgs)
    for mode in _RESONANT_RUNS:
        rows = read_csv(tmp_path / f"{mode}.csv")
        assert rows and all(r["error"] == "" for r in rows)
        if MODES[mode].columns[-1] == "solver_method":
            assert {r["solver_method"] for r in rows} == {"closed-form"}
    assert {r["verdict"] for r in read_csv(tmp_path / "spectrum.csv")} == {"coherent"}


@pytest.mark.parametrize("code", [0, 2])
def test_console_freezes_the_heap_after_main_returns(monkeypatch, code):
    # the process entry binds numpy's unused submodules before main, returns
    # main's code, and freezes only once main has returned, so no
    # collection of the run itself is skipped
    from dickelab import cli

    calls = []

    def fake_main():
        calls.append("main")
        return code

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(cli, "_bind_numpy_lazily", lambda: calls.append("bind"))
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    assert cli.console() == code
    assert calls == ["bind", "main", "freeze"]


# modules that numpy.f2py, numpy.testing, numpy.ma and numpy.polynomial
# would load if scipy's array-API shim ran them
_UNUSED_NUMPY_MODULES = ["numpy.f2py.crackfortran", "numpy.testing._private.utils",
                         "numpy.ma.core", "numpy.polynomial.polynomial",
                         "charset_normalizer", "unittest"]


def test_console_loads_scipy_without_numpy_submodules_no_mode_reads(tmp_path):
    # a detuned point loads scipy for its LU; through the process entry,
    # scipy's `from numpy import *` gets lazy modules whose code has not
    # run, and each of them still works on its first use
    cfg = write_cfg(tmp_path / "cfg.json", {
        "mode": "sweep-squeezing", "params": {"effective": {"gamma": 1.0, "N": 10, "delta": 0.3}},
        "sweep": {"drive": {"values": [0.5]}, "Delta_over_gamma": [0.0]}})
    out = _fresh_interpreter(
        "import json, os, sys\n"
        "import dickelab.cli\n"
        "cfg, out, unused = sys.argv[1:]\n"
        "sys.argv = ['dicke-lab', 'sweep-squeezing', '--config', cfg, '--out', out,\n"
        "            '--threads', '1']\n"
        "code = dickelab.cli.console()\n"
        "print(json.dumps([code, 'scipy.sparse.linalg' in sys.modules,\n"
        "                  [m for m in json.loads(unused) if m in sys.modules]]))\n"
        "import numpy\n"
        "numpy.testing.assert_allclose(1.0, 1.0)\n"
        "print(json.dumps([float(numpy.ma.masked_array([1.0, 2.0]).sum()),\n"
        "                  float(numpy.polynomial.Polynomial([1, 2])(1.0)),\n"
        "                  os.path.isdir(numpy.f2py.get_include())]))\n",
        cfg, tmp_path / "out.csv", json.dumps(_UNUSED_NUMPY_MODULES))
    status, used = out.splitlines()[-2:]
    assert json.loads(status) == [0, True, []]
    assert json.loads(used) == [3.0, 3.0, True]
    rows = read_csv(tmp_path / "out.csv")
    assert [r["error"] for r in rows] == [""] and rows[0]["solver_method"] == "sparse-direct"


def test_library_import_and_main_bind_nothing_lazily(tmp_path):
    # only the process entry binds lazy modules: importing the package or
    # the CLI, and an in-process main() call that loads scipy, leave numpy
    # as numpy binds it
    cfg = write_cfg(tmp_path / "cfg.json", DETUNED)
    out = _fresh_interpreter(
        "import importlib.util, sys\n"
        "def lazy():\n"
        "    return sorted(name for name, m in list(sys.modules.items())\n"
        "                  if type(m) is importlib.util._LazyModule)\n"
        "import dickelab\n"
        "print(lazy())\n"
        "import dickelab.cli\n"
        "print(lazy())\n"
        "print(dickelab.cli.main(['sweep-jz', '--config', sys.argv[1], '--out', sys.argv[2],\n"
        "                         '--threads', '1']), 'scipy.sparse.linalg' in sys.modules)\n"
        "print(lazy())\n",
        cfg, tmp_path / "out.csv")
    assert out.splitlines() == ["[]", "[]", f"sweep-jz: wrote {tmp_path / 'out.csv'} (2 rows)",
                                "0 True", "[]"]


def test_console_script_is_the_process_entry():
    # read as text: tomllib needs Python 3.11, and the package supports 3.10
    text = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]")[1].split("\n[")[0]
    assert re.findall(r"^dicke-lab\s*=\s*\"([^\"]+)\"", scripts, re.M) == ["dickelab.cli:console"]


def test_module_entry_writes_complete_outputs(tmp_path):
    # a fresh interpreter that exits through console() leaves the same CSV
    # and JSON mirror bytes as an in-process main() call
    cfg = write_cfg(tmp_path / "cfg.json", _RESONANT_RUNS["sweep-jz"])
    flags = ["--threads", "1", "--no-timestamp", "--json"]
    proc = _fresh(["-m", "dickelab.cli", "sweep-jz", "--config", cfg,
                   "--out", tmp_path / "fresh.csv", *flags])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"sweep-jz: wrote {tmp_path / 'fresh.csv'} (4 rows)\n"
    assert main(["sweep-jz", "--config", cfg, "--out", str(tmp_path / "main.csv"), *flags]) == 0
    for suffix in (".csv", ".json"):
        fresh = (tmp_path / ("fresh" + suffix)).read_bytes()
        assert fresh == (tmp_path / ("main" + suffix)).read_bytes()
    rows = read_csv(tmp_path / "fresh.csv")
    assert len(rows) == 4 and all(r["error"] == "" for r in rows)
    assert len(json.loads((tmp_path / "fresh.json").read_text())["rows"]) == 4


def test_module_entry_bad_config_exits_2(tmp_path):
    out = tmp_path / "x.csv"
    proc = _fresh(["-m", "dickelab.cli", "sweep-jz", "--config", tmp_path / "nope.json",
                   "--out", out])
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert not out.exists()


# OpenBLAS starts with one thread per core up to this, so a count left at
# its start shows on a machine with two cores or more
TWO_THREADS = {"OPENBLAS_NUM_THREADS": "2"}


@functools.cache
def _scipy_load_count() -> int:
    """The thread count of scipy's OpenBLAS copy in a fresh interpreter
    right after it is loaded."""
    return int(_fresh_interpreter(
        "import scipy.sparse.linalg\n"
        "from dickelab import lindblad\n"
        "print(lindblad.blas_thread_counts()['scipy'])\n", **TWO_THREADS))


def test_blas_pin_holds_a_copy_loaded_after_it(tmp_path):
    # in a process that has not loaded scipy's OpenBLAS, a detuned point
    # loads it for its LU; the LU must still run one thread in every copy
    # (read during the uniqueness probe), and a serial run gives back the
    # counts it found, scipy's copy the count it was loaded with
    cfg = write_cfg(tmp_path / "cfg.json", DETUNED)
    setup = (
        "import sys\n"
        "from dickelab import lindblad, sweep\n"
        "from dickelab.sweep import RunConfig\n"
        "seen, probe = [], lindblad._uniqueness_probe\n"
        "def probing(*args):\n"
        "    seen.append(lindblad.blas_thread_counts())\n"
        "    return probe(*args)\n"
        "lindblad._uniqueness_probe = probing\n"
        "cfg = RunConfig.from_file(sys.argv[1])\n"
        "print(sorted(lindblad.blas_thread_counts()))\n"
    )
    one = {"numpy": 1, "scipy": 1}
    out = _fresh_interpreter(
        setup
        + "lindblad.set_blas_threads({'numpy': 2})\n"
        "cfg.threads = 1\n"
        "assert sweep.run(cfg).n_failures == 0\n"
        "print(seen)\n"
        "print(lindblad.blas_thread_counts())\n",
        cfg, **TWO_THREADS)
    assert out.splitlines() == [
        "['numpy']", str([one] * 2), str({"numpy": 2, "scipy": _scipy_load_count()})]

    # a pool worker holds the copy that its point loads
    out = _fresh_interpreter(
        setup
        + "def point(pt):\n"
        "    sweep.compute_point(pt)\n"
        "    return seen\n"
        "if __name__ == '__main__':\n"
        "    with sweep._worker_pool(1) as pool:\n"
        "        print(pool.submit(point, sweep._grid_points(cfg)[0]).result())\n"
        "    print(sorted(lindblad.blas_thread_counts()))\n",
        cfg, **TWO_THREADS)
    assert out.splitlines() == ["['numpy']", str([one]), "['numpy']"]


# no OpenBLAS thread variable: the process picks its own count
NO_BLAS_ENV = dict.fromkeys(BLAS_THREAD_VARIABLES)


@pytest.mark.parametrize("env", [{}, TWO_THREADS, {"OMP_NUM_THREADS": "2"}],
                         ids=["unset", "openblas-2", "omp-2"])
def test_cli_loads_openblas_with_one_thread_unless_the_caller_sets_a_count(tmp_path, env):
    # importing the CLI sets one thread before numpy loads, so numpy's copy
    # and scipy's, which a detuned LU point loads later, start with one; a
    # count the caller set stands, and its variables are left as given
    cfg = write_cfg(tmp_path / "cfg.json", DETUNED)
    out = _fresh_interpreter(
        "import json, os, sys\n"
        "import dickelab.cli\n"
        "from dickelab import lindblad, sweep\n"
        "print(json.dumps(lindblad.blas_thread_counts()))\n"
        "point = sweep._grid_points(sweep.RunConfig.from_file(sys.argv[1]))[0]\n"
        "assert not any(row['error'] for row in sweep.compute_point(point))\n"
        "print(json.dumps(lindblad.blas_thread_counts()))\n"
        "print(json.dumps({name: os.environ.get(name)\n"
        "                  for name in dickelab.cli.BLAS_THREAD_VARIABLES}))\n",
        cfg, **{**NO_BLAS_ENV, **env})
    loaded, after_point, variables = map(json.loads, out.splitlines())
    count = _scipy_load_count() if env else 1
    assert loaded == {"numpy": count}
    assert after_point == {"numpy": count, "scipy": count}
    assert variables == {**NO_BLAS_ENV, **(env or {"OPENBLAS_NUM_THREADS": "1"})}


def test_package_import_loads_no_numpy_and_leaves_the_environment():
    # the package resolves its public names on first use, and only the CLI
    # sets a thread variable
    out = _fresh_interpreter(
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import dickelab\n"
        "print('numpy' in sys.modules)\n"
        "from dickelab import lindblad, sweep\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)\n",
        **NO_BLAS_ENV)
    assert out.splitlines() == ["False", "True True"]


# kernel -> (module, name of the function it wraps, set-up, call) of
# test_kernels_import_scipy_before_their_blas_scope. extended_steady_state
# needs the factor of a base solve, which loads scipy before it; it extends
# L by itself, so every entry is embedded.
_KERNEL_CALLS = {
    "steady_state": ("dickelab.lindblad", "_uniqueness_probe", "",
                     "lindblad.steady_state(L)"),
    "extended_steady_state": (
        "scipy.sparse.linalg", "gmres",
        "base, report = lindblad.steady_state(L)\n"
        "lindblad.set_blas_threads({'numpy': 2, 'scipy': 2})\n",
        "lindblad.extended_steady_state(L, np.arange(L.dim ** 2), L, base, report.factor)"),
    "two_time_correlator": (
        "dickelab.lindblad", "_pole_transform", "",
        "lindblad.two_time_correlator(L, rho, ops['J_plus'], ops['J_minus'], [0.0, 1.0], 0.1)"),
}


@pytest.mark.parametrize("kernel", sorted(_KERNEL_CALLS))
def test_kernels_import_scipy_before_their_blas_scope(kernel):
    # each kernel runs one thread in both copies, scipy's included where the
    # call itself loads it, and leaves the counts it found (scipy's copy the
    # count it was loaded with)
    module, name, setup, call = _KERNEL_CALLS[kernel]
    out = _fresh_interpreter(
        "import json, sys\n"
        "import numpy as np\n"
        "from dickelab import lindblad\n"
        "from dickelab.models import build_dicke_model, resonant_steady_state\n"
        "from dickelab.parameters import EffectiveParams\n"
        "e = EffectiveParams(1.0, 0.0, 0.0, 4).with_drive_ratio(0.6)\n"
        "model = build_dicke_model(e)\n"
        "L, ops = model.liouvillian, model.ops\n"
        "rho, _ = resonant_steady_state(e)\n"
        "print(json.dumps(sorted(lindblad.blas_thread_counts())))\n"
        "lindblad.set_blas_threads({'numpy': 2})\n"
        + setup
        + f"owner = sys.modules[{module!r}]\n"
        f"seen, original = [], getattr(owner, {name!r})\n"
        "def watching(*args, **kwargs):\n"
        "    seen.append(lindblad.blas_thread_counts())\n"
        "    return original(*args, **kwargs)\n"
        f"setattr(owner, {name!r}, watching)\n"
        "before = lindblad.blas_thread_counts()\n"
        + call + "\n"
        "print(json.dumps([seen, before, lindblad.blas_thread_counts()]))\n",
        **TWO_THREADS)
    loaded, record = out.splitlines()
    seen, before, after = json.loads(record)
    assert json.loads(loaded) == ["numpy"]  # the model and the closed form load no BLAS of scipy
    assert seen and all(counts == {"numpy": 1, "scipy": 1} for counts in seen)
    assert ("scipy" in before) == (kernel == "extended_steady_state")
    assert before["numpy"] == 2
    assert after == {"scipy": _scipy_load_count(), **before}


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
    assert cfg.threads == 2


def test_exit_code_solver_failure_partial_results(tmp_path):
    # a detuned point needs the Dicke LU, which the atom cap refuses at
    # N = 401 before any build: the row names the error, and the run exits 3
    payload = {
        "mode": "sweep-jz",
        "params": {"effective": {"gamma": 1.0, "N": 401, "delta": 0.1}},
        "sweep": {"drive": {"values": [0.3]}, "Delta_over_gamma": [0.0]},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "out.csv"
    assert main(["sweep-jz", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 3
    rows = read_csv(out)
    assert len(rows) == 1
    assert "DimensionCapError" in rows[0]["error"]
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


def test_spectrum_point_above_threshold_is_an_empty_row(tmp_path):
    # as in mean-field: a point above the critical drive writes one row
    # with empty spectrum cells and no error; the run reports the rest
    payload = {
        "mode": "spectrum",
        "params": {"effective": {"gamma": 1.0, "N": 10}},
        "sweep": {"drive": {"values": [0.5, 1.2]}, "Delta_over_gamma": [0.0]},
        "spectrum": {"n_tau": 32},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
    rows = read_csv(out)
    below = [r for r in rows if float(r["Omega_over_Omega_c"]) == 0.5]
    above = [r for r in rows if float(r["Omega_over_Omega_c"]) == 1.2]
    assert len(below) == 2 * 32 + 1 and len(above) == 1
    for row in below:
        assert row["error"] == "" and row["verdict"] in ("coherent", "resolved")
        assert row["omega_over_gamma"] != "" and row["coherent_weight"] != ""
    (row,) = above
    spectrum_cells = ("omega_over_gamma", "incoherent_spectrum", "coherent_weight",
                      "incoherent_weight", "coherence_ratio", "verdict")
    assert all(row[c] == "" for c in spectrum_cells)
    assert row["error"] == ""


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
        "coherence_ratio", "verdict",
    ] + SOLVER + TAIL
    assert len(rows) == 129  # 2*n_tau + 1 frequency bins
    assert {float(r["coherence_ratio"]) for r in rows}  # constant, parseable
    assert {r["verdict"] for r in rows} == {"resolved"}
    assert all(float(r["incoherent_spectrum"]) >= 0.0 for r in rows)


def test_spectrum_poles_short_of_the_start_are_an_error_row(tmp_path, monkeypatch):
    # a rate floor at half the projected generator's norm drops decaying
    # modes that hold weight: the kept poles no longer sum to the connected
    # start var(J_-), and the point ends as a NoConvergence row instead of
    # a biased spectrum
    monkeypatch.setattr(lindblad, "RATE_FLOOR", 0.5)
    payload = {
        "mode": "spectrum",
        "params": {"effective": {"gamma": 1.0, "N": 8}},
        "sweep": {"drive": {"values": [0.5]}, "Delta_over_gamma": [1.0]},
        "spectrum": {"n_tau": 16},
        "solver": {"threads": 1},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 3
    rows = read_csv(out)
    assert len(rows) == 1
    assert "NoConvergence" in rows[0]["error"]
    assert "not the connected start" in rows[0]["error"]


def test_coherent_spectrum_loads_no_scipy(tmp_path):
    # var(J_-) below the correlator's round-off reads coherent: the rows
    # keep the frequency grid with empty broadband cells, and nothing is
    # propagated, so no scipy module loads and no Dicke atom cap applies
    payload = {
        "mode": "spectrum",
        "params": {"effective": {"gamma": 1.0}},
        "sweep": {"N": [100, 8000], "drive": {"values": [0.55]}, "Delta_over_gamma": [0.0]},
        "spectrum": {"n_tau": 32, "kappa_embed_over_gamma": 1000.0},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = _fresh_interpreter(
        "import sys, warnings\n"
        "import dickelab.cli\n"
        "warnings.simplefilter('error')\n"
        "code = dickelab.cli.main(['spectrum', '--config', sys.argv[1], '--out', sys.argv[2],\n"
        "                          '--threads', '1'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n",
        cfg, tmp_path / "out.csv")
    assert out.splitlines()[-1] == "0 []"
    rows = read_csv(tmp_path / "out.csv")
    assert len(rows) == 2 * 65
    assert {r["verdict"] for r in rows} == {"coherent"}
    assert {r["incoherent_spectrum"] for r in rows} == {""}
    assert {r["error"] for r in rows} == {""}
    assert all(0.0 <= float(r["incoherent_weight"]) < 1e-20 for r in rows)


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
    # N = 12 at Fock cutoff 11: the factored model (13 * 12 = 156) is over
    # the cap of 144, so the point must fail before any cavity solve
    n, kappa, adiab = 12, 1.0, 20.0
    g = kappa / (adiab * math.sqrt(n))
    omega = 0.9 * (n / 4) * (4 * g * g / kappa)
    payload = {
        "mode": "validate-elimination",
        "params": {"cavity": {"g": g, "kappa": kappa, "delta_c": 0.0,
                               "Omega_L": [0.0, -omega * kappa / (2 * g)], "N": n}},
        "elimination": {"fock_cutoff": 11},
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
    assert "13*12 = 156 exceeds cap 144" in rows[0]["error"]


def test_elimination_gmres_without_convergence_is_an_error_row(tmp_path, monkeypatch):
    # restarts of one vector cannot reach the confirmation's residual
    # target (the benchmark's N = 4 drive takes 21 iterations with 80):
    # the point ends as a NoConvergence row, with no LU fallback
    monkeypatch.setattr(lindblad, "GMRES_RESTART", 1)
    n, kappa, adiab = 4, 1.0, 10.0
    g = kappa / (adiab * math.sqrt(n))
    omega = 0.75 * (n / 4) * (4 * g * g / kappa)
    payload = {
        "mode": "validate-elimination",
        "params": {"cavity": {"g": g, "kappa": kappa, "delta_c": 0.0,
                               "Omega_L": [0.0, -omega * kappa / (2 * g)], "N": n}},
        "solver": {"threads": 1},
    }
    cfg = write_cfg(tmp_path / "cfg.json", payload)
    out = tmp_path / "elim.csv"
    assert main(["validate-elimination", "--config", cfg, "--out", str(out),
                 "--no-timestamp"]) == 3
    rows = read_csv(out)
    assert len(rows) == 1
    assert "NoConvergence" in rows[0]["error"]
    assert "GMRES did not reach" in rows[0]["error"]


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
