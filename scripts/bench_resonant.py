"""Timings of the closed-form resonant path: the state, its O(D) gate and
the moments record per N, the CLI import, and one large-N sweep point.

    python scripts/bench_resonant.py [--repeats 5] [--out BENCH_resonant.json]
        [--note TEXT]

Runs the checkout holding this script. Each (N, drive) case times
``resonant_steady_state`` (the state and its gate) plus ``spin_moments``
with one thread in each OpenBLAS copy, as a serial sweep runs them, and
keeps the median over the repeats, with the gate's residual over its
tolerance and the exact var(J_-). The import time is the wall time of a
fresh interpreter that runs ``import dickelab.cli``, next to one that runs
``import numpy`` alone, and the record lists the scipy modules that the
import loaded. The sweep point is one ``dicke-lab sweep-squeezing`` call
at N = 10^4 in a fresh interpreter. The record also holds the core count
and the OpenBLAS thread count of each loaded copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

from dickelab import EffectiveParams, resonant_steady_state, spin_moments  # noqa: E402
from dickelab.lindblad import _single_blas_thread, blas_thread_counts  # noqa: E402
from dickelab.models import banded_tolerance  # noqa: E402
from dickelab.operators import SpinRep  # noqa: E402

N_VALUES = (10, 100, 1_000, 10_000, 100_000)
DRIVES = (0.5, 0.9, 0.99, 1.5)
DELTA_OVER_GAMMA = 0.5
SWEEP_POINT = {
    "mode": "sweep-squeezing",
    "params": {"effective": {"gamma": 1.0}},
    "sweep": {"N": [10_000], "drive": {"values": [0.9]}, "Delta_over_gamma": [DELTA_OVER_GAMMA]},
}


def _case(n: int, drive: float, repeats: int) -> dict:
    e = EffectiveParams(1.0, DELTA_OVER_GAMMA, 0.0, n).with_drive_ratio(drive)
    rep, times = SpinRep.for_atoms(n), []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rho, report = resonant_steady_state(e)
        mom = spin_moments(rho, rep)
        times.append(time.perf_counter() - t0)
    return {"N": n, "drive": drive, "seconds_median": statistics.median(times),
            "seconds": times, "residual_over_tolerance": report.residual / banded_tolerance(e, None),
            "var_jm": mom.var_jm}


def _fresh(args: list) -> float:
    """Wall time of a fresh interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(os.path.dirname(HERE),
                                                      "BENCH_resonant.json"))
    parser.add_argument("--note", default="", help="free text stored in the record")
    args = parser.parse_args(argv)

    with _single_blas_thread():
        blas_pinned = blas_thread_counts()
        cases = []
        for n in N_VALUES:
            for drive in DRIVES:
                cases.append(_case(n, drive, args.repeats))
                c = cases[-1]
                print(f"N = {n}, drive {drive}: {c['seconds_median'] * 1e3:.2f} ms, "
                      f"residual/tolerance {c['residual_over_tolerance']:.1e}", flush=True)

    env = dict(os.environ, PYTHONPATH=SRC)
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, dickelab.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, check=True, capture_output=True, text=True).stdout.strip()
    imports = {
        "numpy_s": [_fresh(["-c", "import numpy"]) for _ in range(args.repeats)],
        "dickelab_cli_s": [_fresh(["-c", "import dickelab.cli"]) for _ in range(args.repeats)],
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "point.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(SWEEP_POINT, fh)
        point = [_fresh(["-m", "dickelab.cli", "sweep-squeezing", "--config", cfg, "--out",
                         os.path.join(tmp, "point.csv"), "--threads", "1"])
                 for _ in range(args.repeats)]
    print(f"import dickelab.cli: {statistics.median(imports['dickelab_cli_s']):.3f} s "
          f"(numpy alone {statistics.median(imports['numpy_s']):.3f} s), scipy modules {loaded}; "
          f"N = 10^4 sweep-squeezing call {statistics.median(point):.3f} s")

    record = {
        "what": "resonant closed form: state + O(D) gate + moments record per N, "
                "on one BLAS thread; CLI import; one N = 10^4 sweep-squeezing call",
        "note": args.note,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_thread_counts(),
        "blas_threads_timed": blas_pinned,
        "repeats": args.repeats,
        "delta_over_gamma": DELTA_OVER_GAMMA,
        "cases": cases,
        "import": {**{f"{k}_median": statistics.median(v) for k, v in imports.items()},
                   **imports, "scipy_modules_after_import": loaded},
        "sweep_point_n10000": {"config": SWEEP_POINT, "wall_s_median": statistics.median(point),
                               "wall_s": point},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
