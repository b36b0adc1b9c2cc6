"""Atom+cavity solve costs of ``validate_elimination``, one drive at a time,
for one or two checkouts of the package.

    python scripts/bench_cavity.py BEFORE_ROOT [AFTER_ROOT] [--repeats 1]
        [--drives 0.3 0.7 0.9] [--out BENCH_cavity.json] [--note TEXT]

AFTER_ROOT defaults to the checkout holding this script. The cases are a
resonant cavity (kappa = 1, delta_c = 0) with N in {2, 4, 8} atoms at
kappa/(sqrt(N)|g|) = 10 and 20, and N = 15 and 35 at 20, each at the given
drives (ratios to the critical drive of the eliminated model). Every drive
runs in a fresh interpreter with PYTHONPATH set to the checkout's ``src``.
Its record holds the wall time of the ``validate_elimination`` call, the
peak resident set of that process, the L + U nonzeros of each sparse LU it
factorizes (counted around scipy's ``splu``), the iterations of each GMRES
solve (counted around scipy's ``gmres``), both Fock cutoffs, and the
full-model J_z and photon number; a drive that raises a package error
(a model over a cap, a cutoff that does not converge) records the error
instead. The record also holds the core count and the OpenBLAS thread
count of each loaded copy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench_pool import _blas_threads  # noqa: E402

CASES = [(n, ratio) for n in (2, 4, 8) for ratio in (10.0, 20.0)] + [(15, 20.0), (35, 20.0)]


def _child(n: int, ratio: float, drive: float) -> dict:
    """One drive in this interpreter (the package comes from PYTHONPATH)."""
    import scipy.sparse.linalg as spla

    from dickelab.errors import DickeLabError
    from dickelab.models import validate_elimination
    from dickelab.parameters import EffectiveParams, cavity_params_for_effective

    factors, krylov = [], []
    splu, gmres = spla.splu, spla.gmres

    def counting_splu(A, *args, **kwargs):
        lu = splu(A, *args, **kwargs)
        factors.append({"unknowns": A.shape[0], "lu_nnz": int(lu.L.nnz + lu.U.nnz)})
        return lu

    def counting_gmres(A, b, *args, callback=None, callback_type=None, **kwargs):
        count = [0]

        def counted(value):
            count[0] += 1
            if callback is not None:
                callback(value)

        x, info = gmres(A, b, *args, callback=counted, callback_type=callback_type or "pr_norm",
                        **kwargs)
        krylov.append({"unknowns": A.shape[0], "iterations": count[0], "info": int(info)})
        return x, info

    spla.splu, spla.gmres = counting_splu, counting_gmres

    kappa = 1.0
    g = kappa / (ratio * math.sqrt(n))
    e = EffectiveParams(gamma=4 * g * g / kappa, Delta=0.0, Omega=0.0,
                        N=n).with_drive_ratio(drive)
    p = cavity_params_for_effective(e, kappa)
    report, error = None, None
    t0 = time.perf_counter()
    try:
        report = validate_elimination(p)
    except DickeLabError as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error": error,
        "fock_cutoffs": [report.fock_cutoff - 5, report.fock_cutoff] if report else None,
        "factors": factors,
        "gmres": krylov,
        "jz_over_half_n": float(report.full["Jz"]) / (n / 2) if report else None,
        "photons": float(report.full["photons"]) if report else None,
        "blas_threads": _blas_threads(),
    }


def _measure(root: str, n: int, ratio: float, drive: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", str(n), str(ratio), str(drive)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", nargs="?")
    parser.add_argument("after", nargs="?", default=os.path.dirname(HERE))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--drives", type=float, nargs="+", default=[0.3, 0.7, 0.9])
    parser.add_argument("--out", default=os.path.join(os.path.dirname(HERE), "BENCH_cavity.json"))
    parser.add_argument("--note", default="", help="free text stored in the record")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        n, ratio, drive = args.child
        print(json.dumps(_child(int(n), float(ratio), float(drive))))
        return 0
    if args.before is None:
        parser.error("BEFORE_ROOT is required")

    sides = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    runs = {side: {} for side in sides}
    blas = {}
    for n, ratio in CASES:
        for drive in args.drives:
            key = f"N{n}_ratio{ratio:g}_drive{drive:g}"
            for repeat in range(args.repeats):
                # alternate which checkout goes first
                order = list(sides) if repeat % 2 == 0 else list(reversed(sides))
                for side in order:
                    rec = _measure(sides[side], n, ratio, drive)
                    blas[side] = rec.pop("blas_threads")
                    runs[side].setdefault(key, []).append(rec)
                    print(f"{side} {key}: wall {rec['wall_s']:.3f} s, "
                          f"rss {rec['peak_rss_mb']:.0f} MB, cutoffs {rec['fock_cutoffs']}, "
                          f"GMRES iterations {[k['iterations'] for k in rec['gmres']]}"
                          + (f", {rec['error'][:60]}" if rec["error"] else ""), flush=True)

    def summary(recs):
        last = recs[-1]
        return {
            "wall_s_median": statistics.median(r["wall_s"] for r in recs),
            "peak_rss_mb_max": max(r["peak_rss_mb"] for r in recs),
            "fock_cutoffs": last["fock_cutoffs"],
            "lu_nnz": [f["lu_nnz"] for f in last["factors"]],
            "gmres_iterations": [k["iterations"] for k in last["gmres"]],
            "error": last["error"],
            "jz_over_half_n": last["jz_over_half_n"],
            "photons": last["photons"],
            "runs": recs,
        }

    import scipy

    cases = {side: {key: summary(recs) for key, recs in runs[side].items()} for side in sides}
    comparison = {}
    for key in cases["before"]:
        b, a = cases["before"][key], cases["after"][key]
        if b["error"] or a["error"]:
            comparison[key] = {"before_error": b["error"], "after_error": a["error"]}
            continue
        comparison[key] = {
            "speedup": b["wall_s_median"] / a["wall_s_median"],
            "jz_over_half_n_gap": abs(a["jz_over_half_n"] - b["jz_over_half_n"]),
            "photons_rel_gap": abs(a["photons"] - b["photons"]) / max(abs(b["photons"]), 1e-300),
        }
    record = {
        "what": "validate_elimination per drive, resonant cavity, kappa = 1",
        "note": args.note,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repeats": args.repeats,
        "drives": args.drives,
        "comparison": comparison,
        "checkouts": {side: {"blas_threads": blas[side], "cases": cases[side]} for side in sides},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
