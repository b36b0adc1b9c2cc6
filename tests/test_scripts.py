"""The scripts under ``scripts/``: the order of the checkouts, the
end-to-end records of ``bench_spectrum`` and ``bench_process``, the layer
record of ``bench_lu``, and the test-only names row of ``design_counts``.
The scripts are imported as they are, from their own directory."""

import json
import os
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
HEADER = ["what", "note", "nproc", "python", "numpy", "scipy", "repeats", "blas_thread_env",
          "pythondontwritebytecode"]


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import harness

    return harness


def test_side_order_flips_on_each_repeat(harness):
    sides = {"parent": "/a", "change": "/b"}
    assert [harness.side_order(sides, r) for r in range(4)] == [
        ["parent", "change"], ["change", "parent"]] * 2


def test_bench_spectrum_writes_the_shared_header(harness, tmp_path):
    import bench_spectrum

    out = tmp_path / "BENCH_spectrum.json"
    assert bench_spectrum.main([str(ROOT), str(ROOT), "--points", "20,0.25,0.8",
                                "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert list(record)[:len(HEADER)] == HEADER
    assert record["repeats"] == 1 and record["note"] == ""
    # the caller's thread variables, which the CLI children inherit
    assert record["blas_thread_env"] == {
        name: os.environ.get(name) for name in harness.BLAS_THREAD_VARIABLES}
    assert record["pythondontwritebytecode"] == os.environ.get("PYTHONDONTWRITEBYTECODE")
    (point,) = record["points"]
    assert point["max_change_over_peak"] == 0.0
    # each side times the correlator that output_spectrum calls
    assert all(point[side]["correlator_s"] > 0.0 for side in ("parent", "change"))
    # each child runs with the one-thread environment the script passes
    assert record["blas_threads"]["change"] == {"numpy": 1, "scipy": 1}


def test_bench_process_writes_both_sides(harness, tmp_path, monkeypatch):
    import bench_process

    # one closed-form call and one that loads scipy, each tiny
    monkeypatch.setattr(bench_process, "CALLS", {
        "sweep_jz": {"mode": "sweep-jz", "params": {"effective": {"gamma": 1.0, "N": 4}},
                     "sweep": {"drive": {"values": [0.5]}}},
        "elimination": {"mode": "validate-elimination",
                        "params": {"cavity": {"g": 0.05, "kappa": 1.0, "N": 2}},
                        "sweep": {"drive": {"values": [0.3]}}},
    })
    out = tmp_path / "BENCH_process.json"
    assert bench_process.main([str(ROOT), str(ROOT), "--repeats", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert list(record)[:len(HEADER)] == HEADER
    assert record["repeats"] == 1
    assert list(record["calls"]) == ["sweep_jz", "elimination"]
    for call in record["calls"].values():
        for side in ("parent", "change"):
            (run,) = call[side]["runs"]
            assert 0.0 < run["exit_s"] < run["wall_s"]
            assert run["peak_rss_mb"] > 10.0  # an interpreter that loaded numpy
            for name in ("wall_s", "cpu_s", "exit_s", "peak_rss_mb"):
                assert call[side][f"{name}_median"] == run[name]
                assert call[side][f"{name}_quartiles"] == [run[name]] * 2


def test_bench_lu_times_each_stage_of_the_library_route(harness, tmp_path):
    import bench_lu

    out = tmp_path / "BENCH_lu.json"
    assert bench_lu.main(["--ns", "10", "--repeats", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert list(record)[:len(HEADER)] == HEADER
    assert record["repeats"] == 1
    # the child runs one OpenBLAS thread in each copy it loads
    assert record["child_env"] == {"OPENBLAS_NUM_THREADS": "1"}
    assert record["blas_threads"] == {"numpy": 1, "scipy": 1}
    (run,) = record["ns"]["10"]["runs"]
    assert all(run[stage] > 0.0 for stage in bench_lu.STAGES)
    assert run["total_s"] == pytest.approx(sum(run[stage] for stage in bench_lu.STAGES))
    assert run["unknowns"] == 121 and run["lu_nnz"] >= run["superop_nnz"] > 0
    assert run["peak_rss_mb"] > 10.0
    # the stages are the library's route: steady_state gives the same bytes
    assert run["matches_steady_state"]
    assert record["ns"]["10"]["factor_s_median"] == run["factor_s"]


def test_design_counts_names_what_only_the_tests_read(monkeypatch, capsys):
    # mean_spin_vector is public and read only by the tests; every other
    # public name has a reader in the package, scripts/ or benchmark/
    import dickelab

    monkeypatch.syspath_prepend(str(SCRIPTS))
    import design_counts

    assert design_counts.main([str(ROOT)]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == str(ROOT)
    rows = {line[:18].strip(): line[18:].split() for line in lines}
    assert rows["public names"] == [str(len(dickelab.__all__))]
    assert rows["test-only names"] == ["1", "mean_spin_vector"]
