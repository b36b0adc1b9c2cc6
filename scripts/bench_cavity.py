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
peak resident set of that process, the stored entries of each sparse LU
it factorizes (``SuperLU.nnz``, counted around scipy's ``splu``), the
iterations of each GMRES solve (counted around scipy's ``gmres``), both
Fock cutoffs, and the full-model J_z and photon number; a drive that
raises a package error (a model over a cap, a cutoff that does not
converge) records the error instead. The record also holds the OpenBLAS thread count of each loaded
copy, after the header of ``harness.write``.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time

import harness

CASES = [(n, ratio) for n in (2, 4, 8) for ratio in (10.0, 20.0)] + [(15, 20.0), (35, 20.0)]


def _child(n: int, ratio: float, drive: float) -> dict:
    """One drive in this interpreter (the package comes from PYTHONPATH)."""
    import scipy.sparse.linalg as spla

    from dickelab.errors import DickeLabError
    from dickelab.lindblad import blas_thread_counts
    from dickelab.models import validate_elimination
    from dickelab.parameters import EffectiveParams, cavity_params_for_effective

    factors, krylov = [], []
    splu, gmres = spla.splu, spla.gmres

    def counting_splu(A, *args, **kwargs):
        lu = splu(A, *args, **kwargs)
        factors.append({"unknowns": A.shape[0], "lu_nnz": int(lu.nnz)})
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
        "blas_threads": blas_thread_counts(),
    }


def main(argv=None) -> int:
    parser = harness.Arguments(__doc__, "BENCH_cavity.json", repeats=1,
                               sides=("before", "after"), child=dict(nargs=3))
    parser.add_argument("--drives", type=float, nargs="+", default=[0.3, 0.7, 0.9])
    args = parser.parse_args(argv)
    if args.child:
        n, ratio, drive = args.child
        print(json.dumps(_child(int(n), float(ratio), float(drive))))
        return 0

    sides = args.roots
    runs = {side: {} for side in sides}
    blas = {}
    for n, ratio in CASES:
        for drive in args.drives:
            key = f"N{n}_ratio{ratio:g}_drive{drive:g}"
            for repeat in range(args.repeats):
                for side in harness.side_order(sides, repeat):
                    rec = harness.run_child(__file__, sides[side], n, ratio, drive)
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
    harness.write(
        args, "validate_elimination per drive, resonant cavity, kappa = 1",
        drives=args.drives, comparison=comparison,
        checkouts={side: {"blas_threads": blas[side], "cases": cases[side]} for side in sides})
    return 0


if __name__ == "__main__":
    sys.exit(main())
