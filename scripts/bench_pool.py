"""Pooled-sweep timings: the acceptance grids of criteria 1-3 and
``reproduce-figures``, each run through ``sweep.run`` with one worker per
core, for one or two checkouts of the package.

    python scripts/bench_pool.py BEFORE_ROOT [AFTER_ROOT] [--repeats 3]
        [--out BENCH_pool.json] [--note TEXT]

AFTER_ROOT defaults to the checkout holding this script. Each measurement
runs in a fresh interpreter with PYTHONPATH set to the checkout's ``src``;
wall time covers the ``run`` call, CPU time is user + system of that
process and of the pool workers it joined. The record also holds the core
count and the OpenBLAS thread count of each loaded copy, in the calling
process and in a worker of the checkout's sweep pool.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

_FIGURE_GRID = dict(n_values=[50], delta_over_gamma_values=[0.0, 0.5, 1.0],
                    drive_values=[float(x) for x in np.linspace(0.05, 1.2, 30)])
# RunConfig fields of each pooled grid; the forced-LU case keeps the
# sparse LU of every point, so it shows the worker BLAS setting alone
GRIDS = {
    "criterion_1_fig2": dict(mode="sweep-jz", **_FIGURE_GRID),
    "criterion_2_fig3": dict(mode="sweep-squeezing", **_FIGURE_GRID),
    "criterion_3_scaling": dict(
        mode="sweep-squeezing", n_values=[20, 40, 80, 160], delta_over_gamma_values=[0.0],
        drive_values=[float(x) for x in np.arange(0.75, 1.0201, 0.01)]),
    "criterion_1_fig2_forced_lu": dict(mode="sweep-jz", solver_method="sparse-direct",
                                       **_FIGURE_GRID),
}
CASES = (*GRIDS, "reproduce_figures")


def _blas_threads() -> dict:
    """OpenBLAS thread count of each copy bundled with numpy and scipy.
    (Not ``sweep.blas_thread_counts``: the checkout measured may predate it.)"""
    counts = {}
    for package, suffix in (("numpy", "64_"), ("scipy", "")):
        root = os.path.dirname(os.path.dirname(importlib.import_module(package).__file__))
        for path in glob.glob(os.path.join(root, f"{package}.libs", "libscipy_openblas*.so")):
            getter = getattr(ctypes.CDLL(path), f"scipy_openblas_get_num_threads{suffix}", None)
            if getter is not None:
                counts[package] = int(getter())
    return counts


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _child(case: str) -> dict:
    """One measurement in this interpreter (the package comes from PYTHONPATH)."""
    from concurrent.futures import ProcessPoolExecutor

    from dickelab import sweep

    workers = os.cpu_count() or 1
    # the pool a sweep of this checkout starts (a plain pool where the
    # checkout has no factory of its own)
    make_pool = getattr(sweep, "_worker_pool",
                        lambda n: ProcessPoolExecutor(max_workers=n))
    with make_pool(workers) as pool:
        worker_blas = pool.submit(_blas_threads).result()
    record = {"blas_threads_main": _blas_threads(), "blas_threads_worker": worker_blas}

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


def _measure(root: str, case: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", case],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", nargs="?")
    parser.add_argument("after", nargs="?", default=os.path.dirname(HERE))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=os.path.join(os.path.dirname(HERE), "BENCH_pool.json"))
    parser.add_argument("--note", default="", help="free text stored in the record")
    parser.add_argument("--child", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child)))
        return 0
    if args.before is None:
        parser.error("BEFORE_ROOT is required")

    sides = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    runs = {side: {case: [] for case in CASES} for side in sides}
    blas = {}
    for repeat in range(args.repeats):
        # alternate which checkout goes first
        order = list(sides) if repeat % 2 == 0 else list(reversed(sides))
        for case in CASES:
            for side in order:
                rec = _measure(sides[side], case)
                blas[side] = {k: rec[k] for k in ("blas_threads_main", "blas_threads_worker")}
                runs[side][case].append({"wall_s": rec["wall_s"], "cpu_s": rec["cpu_s"]})
                print(f"{side} {case}: wall {rec['wall_s']:.2f} s, cpu {rec['cpu_s']:.2f} s",
                      flush=True)

    import scipy

    record = {
        "what": "pooled sweeps through sweep.run, one worker per core",
        "note": args.note,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repeats": args.repeats,
        "checkouts": {
            side: {
                **blas[side],
                "cases": {
                    case: {
                        "wall_s_median": statistics.median(r["wall_s"] for r in rs),
                        "cpu_s_median": statistics.median(r["cpu_s"] for r in rs),
                        "runs": rs,
                    }
                    for case, rs in runs[side].items()
                },
            }
            for side in sides
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
