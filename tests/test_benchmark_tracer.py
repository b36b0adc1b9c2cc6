"""The benchmark's traced replay (``benchmark/tracing.py``) wraps package
functions by name and calls some of them with fixed positional arguments.
A rename or a signature change there would only show when the benchmark
runs with ``--trace 1``; this test shows it in the test suite. The module
is imported as it is, and not modified."""

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
