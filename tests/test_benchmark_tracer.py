"""The benchmark's traced replay (``benchmark/tracing.py``) wraps package
functions by name and calls some of them with fixed positional arguments.
A rename or a signature change there would only show when the benchmark
runs with ``--trace 1``; this test shows it in the test suite. The module
is imported as it is, and not modified."""

import math
import pathlib

from dickelab import EffectiveParams, build_dicke_model, lindblad, spin_squeezing_numeric, sweep

BENCHMARK_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmark"


def test_tracer_installs_on_the_package_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import tracing

    model = build_dicke_model(EffectiveParams(1.0, 0.0, 0.0, 30).with_drive_ratio(0.5))
    tracer, solves = tracing.Tracer(), []
    try:
        tracing._install(tracer, solves)
        # the wrapped steady-state call records its route, and the wrapped
        # squeezing call passes its arguments through
        rho, _ = sweep.steady_state(model.liouvillian)
        traced_xi2 = sweep.spin_squeezing_numeric(rho, model.rep)
    finally:
        tracer.restore()
    names = [span["name"] for span in tracer.spans]
    assert names == ["lindblad.steady_state", "observables.spin_squeezing_numeric"]
    assert tracer.spans[0]["attrs"]["route"] == "sparse-direct"
    assert solves == [model.liouvillian]
    assert sweep.steady_state is lindblad.steady_state
    assert sweep.spin_squeezing_numeric is spin_squeezing_numeric

    # replay's warm-up call, with the model's operators as third argument
    assert spin_squeezing_numeric(rho, model.rep, model.ops) == traced_xi2


def test_tracer_times_the_correlator_inside_the_spectrum(monkeypatch):
    # a resolved spectrum point calls the regression correlator once, under
    # output_spectrum, at the name the tracer books as lindblad.correlator_s
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import tracing

    cfg = sweep.RunConfig.from_dict({
        "mode": "spectrum",
        "params": {"effective": {"gamma": 1.0, "N": 10}},
        "sweep": {"drive": {"values": [0.9]}, "Delta_over_gamma": [0.5]},
        "spectrum": {"n_tau": 32},
    })
    [point] = sweep._grid_points(cfg)
    tracer = tracing.Tracer()
    try:
        tracing._install(tracer, [])
        rows = sweep.compute_point(point)
    finally:
        tracer.restore()
    assert {row["verdict"] for row in rows} == {"resolved"}
    spans = [index for index, span in enumerate(tracer.spans)
             if span["name"] == "lindblad.two_time_correlator"]
    assert len(spans) == 1
    parent = tracer.spans[tracer.spans[spans[0]]["parent"]]
    assert parent["name"] == "observables.output_spectrum"
    assert tracer.total("lindblad.two_time_correlator") > 0.0


def test_tracer_times_the_one_cavity_build_of_an_elimination(monkeypatch):
    # validate_elimination builds the cavity model once, at cutoff + 5, and
    # factors its block at the Fock cutoff inside lindblad, so the tracer
    # sees one build and no cavity solve at the names it wraps
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import tracing

    n, kappa, ratio = 2, 1.0, 20.0
    g = kappa / (ratio * math.sqrt(n))
    omega = 0.5 * (n / 4) * (4 * g * g / kappa)
    cfg = sweep.RunConfig.from_dict({
        "mode": "validate-elimination",
        "params": {"cavity": {"g": g, "kappa": kappa, "delta_c": 0.0,
                              "Omega_L": [0.0, -omega * kappa / (2 * g)], "N": n}},
    })
    [point] = sweep._grid_points(cfg)
    tracer = tracing.Tracer()
    try:
        tracing._install(tracer, [])
        rows = sweep.compute_point(point)
    finally:
        tracer.restore()
    assert {row["error"] for row in rows} == {None}
    [elimination] = [index for index, span in enumerate(tracer.spans)
                     if span["name"] == "models.validate_elimination"]
    builds = tracer.children(elimination, "models.build_cavity_model")
    assert len(builds) == 1
    assert tracer.children(elimination, "lindblad.steady_state") == []


def test_tracer_sees_the_lu_of_a_detuned_point(monkeypatch):
    # a detuned point takes its state from models.dicke_steady_state, which
    # builds the Dicke model and solves it at the names the tracer wraps in
    # models; each call makes one span, with the route the tracer reads
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import tracing

    cfg = sweep.RunConfig.from_dict({
        "mode": "sweep-jz",
        "params": {"effective": {"gamma": 1.0, "N": 10, "delta": 0.3}},
        "sweep": {"drive": {"values": [0.5]}},
    })
    [point] = sweep._grid_points(cfg)
    tracer, solves = tracing.Tracer(), []
    try:
        tracing._install(tracer, solves)
        [row] = sweep.compute_point(point)
    finally:
        tracer.restore()
    assert row["solver_method"] == "sparse-direct"
    names = [span["name"] for span in tracer.spans]
    assert names.count("models.build_dicke_model") == 1
    [solve] = [span for span in tracer.spans if span["name"] == "lindblad.steady_state"]
    assert solve["attrs"] == {"dim": 11, "route": "sparse-direct"}
    assert len(solves) == 1
