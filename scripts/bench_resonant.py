"""Timings of the closed-form resonant path: the state, its O(D) gate and
the moments record per N, the CLI import, and one large-N sweep point.

    python scripts/bench_resonant.py [--repeats 5] [--out BENCH_resonant.json]
        [--note TEXT]

Runs the checkout holding this script. Each (N, drive) case times
``resonant_steady_state`` (the state and its gate) plus ``spin_moments``
inside ``lindblad._single_blas_thread``, the one-thread scope of the
package's dense kernels (a sweep runs these O(D) steps, which call no
such kernel, at the process's own count), and keeps the median over the
repeats, with the gate's residual over its tolerance and the exact
var(J_-). The import cost is the wall time and the user + system CPU time
(``harness.timed``) of a fresh interpreter that runs ``import
dickelab.cli``, next to one that runs ``import numpy`` alone, and the
record lists the scipy modules and the OpenBLAS thread counts that the
import loaded. ``import numpy`` runs with OPENBLAS_NUM_THREADS=1 unless
the caller sets one of ``harness.BLAS_THREAD_VARIABLES``, the rule by
which ``dickelab.cli`` sets one thread before numpy loads, so the
difference of the two is the package's own import share.
``import dickelab.cli`` is timed twice: with the caller's
``PYTHONDONTWRITEBYTECODE`` (named in the record header; where it is set,
the package's source is compiled at every start) and, as
``dickelab_cli_cached``, with a bytecode cache (``PYTHONPYCACHEPREFIX`` in
a temporary directory, written by one warm-up run). Each repeat times the
two as a pair, in alternating order, and ``compile_share_s`` holds the
median and the quartiles of the paired differences (without the cache
minus with it), the compile share of every ``dicke-lab`` start-up; the
medians of two unpaired sets spread by more than that share. The sweep
point is one ``dicke-lab sweep-squeezing`` call at N = 10^4 in a fresh
interpreter, timed the same way. After the header of ``harness.write``,
the record holds the OpenBLAS thread count of each copy loaded in this
process.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time

import harness

sys.path.insert(0, os.path.join(harness.ROOT, "src"))

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
            "seconds": times, "residual_over_tolerance": report.residual / banded_tolerance(e),
            "var_jm": mom.var_jm}


def main(argv=None) -> int:
    args = harness.Arguments(__doc__, "BENCH_resonant.json", repeats=5).parse_args(argv)

    with _single_blas_thread():
        blas_pinned = blas_thread_counts()
        cases = []
        for n in N_VALUES:
            for drive in DRIVES:
                cases.append(_case(n, drive, args.repeats))
                c = cases[-1]
                print(f"N = {n}, drive {drive}: {c['seconds_median'] * 1e3:.2f} ms, "
                      f"residual/tolerance {c['residual_over_tolerance']:.1e}", flush=True)

    proc = harness.fresh(harness.ROOT, [
        "-c", "import json, sys, dickelab.cli; from dickelab import lindblad; "
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "lindblad.blas_thread_counts()]))"])
    proc.check_returncode()
    loaded, cli_blas = json.loads(proc.stdout)
    # the numpy import at the thread count that dickelab.cli loads it with
    numpy_env = ({} if any(os.environ.get(name) for name in harness.BLAS_THREAD_VARIABLES)
                 else {"OPENBLAS_NUM_THREADS": "1"})
    with tempfile.TemporaryDirectory() as cache:
        cached = {"PYTHONPYCACHEPREFIX": cache, "PYTHONDONTWRITEBYTECODE": ""}
        harness.timed(harness.ROOT, ["-c", "import dickelab.cli"], **cached)  # fills the cache
        runs = {"numpy": [], "dickelab_cli": [], "dickelab_cli_cached": []}
        for repeat in range(args.repeats):
            runs["numpy"].append(harness.timed(harness.ROOT, ["-c", "import numpy"], **numpy_env))
            # the two CLI imports of a repeat form a pair, in alternating order
            for name in harness.side_order(("dickelab_cli", "dickelab_cli_cached"), repeat):
                runs[name].append(harness.timed(harness.ROOT, ["-c", "import dickelab.cli"],
                                                **(cached if name.endswith("cached") else {})))
    imports = {name: harness.summary(rs) for name, rs in runs.items()}
    shares = [u["wall_s"] - c["wall_s"]
              for u, c in zip(runs["dickelab_cli"], runs["dickelab_cli_cached"])]
    compile_share = {"median": statistics.median(shares),
                     "quartiles": harness.quartiles(shares), "pairs": shares}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "point.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(SWEEP_POINT, fh)
        point = harness.summary([harness.timed(harness.ROOT, [
            "-m", "dickelab.cli", "sweep-squeezing", "--config", cfg, "--out",
            os.path.join(tmp, "point.csv"), "--threads", "1"]) for _ in range(args.repeats)])
    for name, rec in (*imports.items(), ("N = 10^4 sweep-squeezing call", point)):
        print(f"{name}: wall {rec['wall_s_median']:.3f} s, cpu {rec['cpu_s_median']:.3f} s")
    print(f"import dickelab.cli loaded scipy modules {loaded}, OpenBLAS threads {cli_blas}")
    print(f"compile share: {compile_share['median'] * 1e3:.1f} ms "
          f"[{compile_share['quartiles'][0] * 1e3:.1f}, {compile_share['quartiles'][1] * 1e3:.1f}]")

    harness.write(
        args, "resonant closed form: state + O(D) gate + moments record per N, "
              "on one BLAS thread; CLI import; one N = 10^4 sweep-squeezing call",
        blas_threads=blas_thread_counts(),
        blas_threads_timed=blas_pinned,
        delta_over_gamma=DELTA_OVER_GAMMA,
        cases=cases,
        **{"import": {**imports, "compile_share_s": compile_share,
                      "scipy_modules_after_import": loaded,
                      "blas_threads_after_import": cli_blas}},
        sweep_point_n10000={"config": SWEEP_POINT, **point})
    return 0


if __name__ == "__main__":
    sys.exit(main())
