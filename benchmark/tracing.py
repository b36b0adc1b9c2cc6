"""Traced replay of a workload: spans around the calls into each layer.

The replay runs the workload's configs in the benchmark's own process,
serially, through the same entry points the CLI uses (``RunConfig.from_file``
and ``run_and_write``). Spans come from wrappers that this module installs,
for the duration of the replay, at the names under which the package's
modules import each other's public functions; the program files are not
touched. A span records its name, start, end, parent and attributes; spans
stay in memory and are written out when the replay ends. Self time is a
span's duration minus that of its child spans.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import contextmanager

ROUTES = ("dense-nullspace", "sparse-direct", "iterative", "long-time-integration")


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "attrs": attrs}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` by a wrapper that records a span;
        ``before(record, args)`` and ``after(record, result)`` add
        attributes."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                if before is not None:
                    before(record, args)
                result = original(*args, **kwargs)
                if after is not None:
                    after(record, result)
                return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries -----------------------------------------------------------

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, *names) -> float:
        return float(sum(sum(self.durations(n)) for n in names))

    def self_total(self, *names) -> float:
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return float(sum(s["end"] - s["start"] - child_time[i]
                         for i, s in enumerate(self.spans) if s["name"] in names))

    def children(self, index: int, name: str) -> list:
        return [s for s in self.spans if s["parent"] == index and s["name"] == name]


def _install(tracer: Tracer, solves: list):
    """Wrap the public calls of each layer at every name they are used under."""
    from dickelab import models, observables, sweep
    from dickelab.lindblad import SteadyStateOptions

    def note_nnz(record, result):
        record["attrs"]["nnz"] = int(result.superoperator.nnz)

    def note_solve(record, args):
        L, opts = args[0], (args[1] if len(args) > 1 else None)
        record["attrs"].update(dim=L.dim, route=(opts or SteadyStateOptions()).resolve_method(L.dim))
        solves.append(L)

    for owner in (models, observables):
        tracer.wrap(owner, "build_spin_operators", "operators.build_spin_operators")
    tracer.wrap(models, "build_fock_operators", "operators.build_fock_operators")
    tracer.wrap(models, "tensor", "operators.tensor")
    tracer.wrap(models, "build_liouvillian", "lindblad.build_liouvillian", after=note_nnz)
    for owner in (sweep, models):
        tracer.wrap(owner, "build_dicke_model", "models.build_dicke_model")
    tracer.wrap(models, "build_cavity_model", "models.build_cavity_model")
    tracer.wrap(sweep, "validate_elimination", "models.validate_elimination")
    tracer.wrap(sweep, "spin_squeezing_numeric", "observables.spin_squeezing_numeric")
    tracer.wrap(sweep, "output_spectrum", "observables.output_spectrum")
    tracer.wrap(observables, "two_time_correlator", "lindblad.two_time_correlator")
    tracer.wrap(sweep, "compute_point", "sweep.compute_point")
    tracer.wrap(sweep, "run", "sweep.run")
    tracer.wrap(sweep.SweepResult, "write_csv", "sweep.write_csv")
    tracer.wrap(sweep.SweepResult, "write_json", "sweep.write_json")
    for owner in (sweep, models, observables):
        tracer.wrap(owner, "steady_state", "lindblad.steady_state", before=note_solve)


def _elimination_pieces(tracer: Tracer) -> dict:
    """Split each validate_elimination call into its public pieces: the
    Dicke-side solve, and the cavity build and solve at the lower Fock
    cutoff and at the reported one (five more)."""
    out = dict.fromkeys(("models.cavity_build_lo_s", "models.cavity_build_hi_s",
                         "lindblad.cavity_solve_lo_s", "lindblad.cavity_solve_hi_s",
                         "lindblad.dicke_solve_s"), 0.0)
    for index, span in enumerate(tracer.spans):
        if span["name"] != "models.validate_elimination":
            continue
        builds = tracer.children(index, "models.build_cavity_model")
        solves = sorted(tracer.children(index, "lindblad.steady_state"),
                        key=lambda s: s["attrs"]["dim"])
        for label, s in zip(("lo", "hi"), builds):
            out[f"models.cavity_build_{label}_s"] += s["end"] - s["start"]
        if solves:
            dicke, *cavity = solves
            out["lindblad.dicke_solve_s"] += dicke["end"] - dicke["start"]
            for label, s in zip(("lo", "hi"), cavity):
                out[f"lindblad.cavity_solve_{label}_s"] += s["end"] - s["start"]
    return out


def replay(config_paths: list, outdir: str, pooled: bool) -> tuple:
    """Untraced replay, pool measurement at the default worker count (when
    ``pooled``), traced replay and unchecked solves of one round. Returns
    (metrics, raw pool figures, spans, csv paths)."""
    from dickelab import EffectiveParams, build_dicke_model, spin_squeezing_numeric
    from dickelab.lindblad import SteadyStateOptions, steady_state
    from dickelab.sweep import RunConfig, run, run_and_write

    def load(path, tag):
        cfg = RunConfig.from_file(path)
        cfg.threads = 1
        cfg.out_path = os.path.join(outdir, f"{tag}-{os.path.basename(path)[:-5]}.csv")
        return cfg

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # first-call costs (lazy loading, BLAS thread start) land here, not
        # in either replay
        warm = build_dicke_model(EffectiveParams(1.0, 0.0, 0.0, 30).with_drive_ratio(0.5))
        rho, _ = steady_state(warm.liouvillian)
        spin_squeezing_numeric(rho, warm.rep, warm.ops)

        # the same round without spans, for the tracing overhead
        t0 = time.perf_counter()
        for path in config_paths:
            run_and_write(load(path, "untraced"))
        untraced = time.perf_counter() - t0

        # run() falls back to os.cpu_count() workers when threads is None
        workers = (os.cpu_count() or 1) if pooled else 1
        pooled_s = 0.0
        if workers > 1:
            for path in config_paths:
                cfg = load(path, "pooled")
                cfg.threads = None
                t0 = time.perf_counter()
                run(cfg)
                pooled_s += time.perf_counter() - t0

        tracer, solves, csv_paths = Tracer(), [], []
        _install(tracer, solves)
        try:
            t0 = time.perf_counter()
            for path in config_paths:
                with tracer.span("sweep.config"):
                    cfg = load(path, "traced")
                run_and_write(cfg)
                csv_paths.append(cfg.out_path)
            traced = time.perf_counter() - t0
        finally:
            tracer.restore()

        # the same solves without the uniqueness probe
        unchecked = 0.0
        for L in solves:
            t0 = time.perf_counter()
            steady_state(L, SteadyStateOptions(check_unique=False))
            unchecked += time.perf_counter() - t0

    compute = tracer.total("sweep.compute_point")
    if workers > 1:
        pool_overhead = pooled_s - compute / workers
    else:
        pool_overhead = tracer.total("sweep.run") - compute
    solve = tracer.total("lindblad.steady_state")
    routes = [s["attrs"]["route"] for s in tracer.spans if s["name"] == "lindblad.steady_state"]
    metrics = {
        "sweep.points": (len(tracer.durations("sweep.compute_point")), "count"),
        "sweep.compute_s": (compute, "s"),
        "sweep.pool_overhead_s": (pool_overhead, "s"),
        "sweep.config_s": (tracer.total("sweep.config"), "s"),
        "sweep.write_s": (tracer.total("sweep.write_csv", "sweep.write_json"), "s"),
        "operators.build_s": (tracer.total("operators.build_spin_operators",
                                           "operators.build_fock_operators",
                                           "operators.tensor"), "s"),
        "models.build_s": (tracer.self_total("models.build_dicke_model",
                                             "models.build_cavity_model"), "s"),
        "lindblad.assemble_s": (tracer.total("lindblad.build_liouvillian"), "s"),
        "lindblad.superop_nnz": (sum(s["attrs"].get("nnz", 0) for s in tracer.spans), "count"),
        "lindblad.solve_s": (solve, "s"),
        "lindblad.solve_unchecked_s": (unchecked, "s"),
        "lindblad.probe_s": (solve - unchecked, "s"),
        **{f"lindblad.route.{r}": (routes.count(r), "count") for r in ROUTES},
        "lindblad.correlator_s": (tracer.total("lindblad.two_time_correlator"), "s"),
        "observables.spectrum_s": (tracer.self_total("observables.output_spectrum"), "s"),
        "observables.squeezing_s": (tracer.total("observables.spin_squeezing_numeric"), "s"),
        "models.elimination_s": (tracer.total("models.validate_elimination"), "s"),
        **{k: (v, "s") for k, v in _elimination_pieces(tracer).items()},
        "trace.replay_s": (traced, "s"),
        "trace.untraced_s": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    raw = {"pool_workers": workers, "pooled_run_s": pooled_s}
    return metrics, raw, tracer.spans, csv_paths
