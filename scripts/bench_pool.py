"""Pooled-sweep timings: the acceptance grids of criteria 1-3 and
``reproduce-figures``, each run through ``sweep.run`` with one worker per
core, and the whole ``dicke-lab reproduce-figures`` process, for one or two
checkouts of the package.

    python scripts/bench_pool.py BEFORE_ROOT [AFTER_ROOT] [--repeats 3]
        [--out BENCH_pool.json] [--note TEXT]

AFTER_ROOT defaults to the checkout holding this script. Each measurement
runs in a fresh interpreter with PYTHONPATH set to the checkout's ``src``;
wall time covers the ``run`` call, CPU time is user + system of that
process and of the pool workers it joined. Those cases start timing in
a process that has already loaded the package, so they omit its load and
exit; the ``cli_reproduce_figures`` case times the whole ``python -m
dickelab.cli reproduce-figures`` process instead, from start to exit, with
the CPU time of it and of its reaped workers (``harness.timed``). After
the header of ``harness.write``, the record holds the OpenBLAS thread
count of each loaded copy in the calling process (``blas_threads_main``,
read before any run) and the counts a worker of the checkout's sweep pool
sees inside the uniqueness probe of one detuned LU point
(``blas_threads_worker``).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time

import numpy as np

import harness

_FIGURE_GRID = dict(n_values=[50], delta_over_gamma_values=[0.0, 0.5, 1.0],
                    drive_values=[float(x) for x in np.linspace(0.05, 1.2, 30)])
# RunConfig fields of each pooled grid; the detuned case (delta = 0.3) takes
# the sparse LU at every point, so it shows the worker BLAS setting alone
GRIDS = {
    "criterion_1_fig2": dict(mode="sweep-jz", **_FIGURE_GRID),
    "criterion_2_fig3": dict(mode="sweep-squeezing", **_FIGURE_GRID),
    "criterion_3_scaling": dict(
        mode="sweep-squeezing", n_values=[20, 40, 80, 160], delta_over_gamma_values=[0.0],
        drive_values=[float(x) for x in np.arange(0.75, 1.0201, 0.01)]),
    "criterion_1_fig2_detuned_lu": dict(mode="sweep-jz", delta=0.3, **_FIGURE_GRID),
}
# the cases timed inside a child that has loaded the package, then the
# whole CLI process
IN_PROCESS = (*GRIDS, "reproduce_figures")
CASES = (*IN_PROCESS, "cli_reproduce_figures")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _lu_point_threads():
    """The OpenBLAS counts seen inside the uniqueness probe of one detuned
    LU point, run serially in this process."""
    from dickelab import lindblad, sweep

    probe, seen = lindblad._uniqueness_probe, []

    def probing(*args):
        seen.append(lindblad.blas_thread_counts())
        return probe(*args)

    lindblad._uniqueness_probe = probing
    try:
        sweep.run(sweep.RunConfig(level="effective", mode="sweep-jz", delta=0.3, n_values=[8],
                                  delta_over_gamma_values=[0.0], drive_values=[0.5],
                                  threads=1, timestamp=False))
    finally:
        lindblad._uniqueness_probe = probe
    return seen[0] if seen else None


def _child(case: str) -> dict:
    """One measurement in this interpreter (the package comes from PYTHONPATH)."""
    from dickelab import lindblad, sweep

    workers = os.cpu_count() or 1
    with sweep._worker_pool(workers) as pool:  # the pool a sweep of this checkout starts
        worker_blas = pool.submit(_lu_point_threads).result()
    record = {"blas_threads_main": lindblad.blas_thread_counts(),
              "blas_threads_worker": worker_blas}

    with tempfile.TemporaryDirectory() as outdir:
        if case == "reproduce_figures":
            call = lambda: sweep.reproduce_figures(outdir, threads=None, timestamp=False)  # noqa: E731
        else:
            cfg = sweep.RunConfig(level="effective", threads=workers, timestamp=False,
                                  **GRIDS[case])
            call = lambda: sweep.run(cfg)  # noqa: E731
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        call()
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = _cpu_seconds() - cpu0
    return record


def main(argv=None) -> int:
    parser = harness.Arguments(__doc__, "BENCH_pool.json", repeats=3,
                               sides=("before", "after"), child=dict(choices=IN_PROCESS))
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child)))
        return 0

    sides = args.roots
    runs = {side: {case: [] for case in CASES} for side in sides}
    blas = {}
    for repeat in range(args.repeats):
        order = harness.side_order(sides, repeat)
        for case in CASES:
            for side in order:
                if case == "cli_reproduce_figures":
                    with tempfile.TemporaryDirectory() as outdir:
                        rec = harness.timed(sides[side], [
                            "-m", "dickelab.cli", "reproduce-figures", "--outdir", outdir,
                            "--no-timestamp"])
                else:
                    rec = harness.run_child(__file__, sides[side], case)
                    blas[side] = {k: rec[k] for k in ("blas_threads_main", "blas_threads_worker")}
                runs[side][case].append({"wall_s": rec["wall_s"], "cpu_s": rec["cpu_s"]})
                print(f"{side} {case}: wall {rec['wall_s']:.2f} s, cpu {rec['cpu_s']:.2f} s",
                      flush=True)

    harness.write(
        args, "pooled sweeps through sweep.run, one worker per core",
        checkouts={
            side: {**blas[side],
                   "cases": {case: harness.summary(rs) for case, rs in runs[side].items()}}
            for side in sides
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
