"""Layer record of the detuned Dicke steady state, the sparse LU route of
``lindblad.steady_state``, across N for this checkout.

    python scripts/bench_lu.py [--ns 100 200 300 400] [--repeats 3]
        [--out BENCH_lu.json] [--note TEXT]

The point is Delta/gamma 0.5, delta 0.3 gamma and drive 0.9 of the
critical drive; delta != 0, so no closed form applies and every solve
factors the (N+1)^2 x (N+1)^2 trace-row system. Each N runs in one fresh
interpreter with PYTHONPATH set to this checkout's ``src`` and
OPENBLAS_NUM_THREADS=1, and each repeat runs every N once. The child calls
the route's own functions one after the other, as ``steady_state`` does,
and times each from outside (the package holds no timer):

- ``build_assemble_s``: ``models.build_dicke_model`` (spin operators and
  Liouvillian) and ``lindblad._square_system``;
- ``factor_s``: ``scipy.sparse.linalg.splu`` of that system;
- ``solve_refine_s``: the solve and its one refinement sweep;
- ``probe_s``: ``lindblad._uniqueness_probe``;
- ``gate_s``: the uniqueness threshold and ``lindblad.accept_steady_state``.

It records ``lu_nnz`` (the L + U entries, ``SuperLU.nnz``), the peak
resident set of the child after the stages, the uniqueness ratio and the
gate's residual, and then checks that ``steady_state`` on the same
Liouvillian gives the same matrix bytes (``matches_steady_state``), so the
stages stay those of the library's route. After the header of
``harness.write``, the record holds the child's thread variable, the
OpenBLAS thread count of each copy loaded in a child, and per N the
median of each time over the repeats (``total_s`` is the sum of the
stages) with the runs themselves.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import harness

DELTA_OVER_GAMMA, DETUNING, DRIVE = 0.5, 0.3, 0.9
STAGES = ("build_assemble_s", "factor_s", "solve_refine_s", "probe_s", "gate_s")
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def _child(n: int) -> dict:
    """One N in this interpreter (the package comes from PYTHONPATH)."""
    import scipy.sparse.linalg as spla

    from dickelab import lindblad
    from dickelab.errors import NonUniqueSteadyState
    from dickelab.models import build_dicke_model
    from dickelab.parameters import EffectiveParams

    e = EffectiveParams(1.0, DELTA_OVER_GAMMA, 0.0, n, DETUNING).with_drive_ratio(DRIVE)
    t0 = time.perf_counter()
    L = build_dicke_model(e).liouvillian
    M, b, scale = lindblad._square_system(L)
    t1 = time.perf_counter()
    lu = spla.splu(M)
    t2 = time.perf_counter()
    x = lu.solve(b)
    x = x + lu.solve(b - M @ x)
    t3 = time.perf_counter()
    uniq = lindblad._uniqueness_probe(lu, M.shape[0], scale)
    t4 = time.perf_counter()
    if uniq <= lindblad.uniqueness_threshold(L.dim ** 2):
        raise NonUniqueSteadyState(f"uniqueness ratio {uniq:.2e}")
    rho, _ = lindblad.accept_steady_state(L, lindblad.unvectorize(x, L.dim),
                                          "sparse-direct", uniq)
    t5 = time.perf_counter()
    stamps = [t0, t1, t2, t3, t4, t5]
    times = {stage: end - start for stage, start, end in zip(STAGES, stamps, stamps[1:])}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lu_nnz = int(lu.nnz)
    del lu
    library, _ = lindblad.steady_state(L)
    return {
        **times,
        "total_s": sum(times.values()),
        "unknowns": M.shape[0],
        "superop_nnz": int(L.superoperator.nnz),
        "lu_nnz": lu_nnz,
        "peak_rss_mb": peak,
        "uniqueness_ratio": uniq,
        "residual": L.residual(rho.matrix),
        "matches_steady_state": library.matrix.tobytes() == rho.matrix.tobytes(),
        "blas_threads": lindblad.blas_thread_counts(),
    }


def main(argv=None) -> int:
    parser = harness.Arguments(__doc__, "BENCH_lu.json", repeats=3, child=dict(type=int))
    parser.add_argument("--ns", type=int, nargs="+", default=[100, 200, 300, 400])
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(_child(args.child)))
        return 0

    runs = {n: [] for n in args.ns}
    blas = None
    for _ in range(args.repeats):
        for n in args.ns:
            rec = harness.run_child(__file__, harness.ROOT, n, **CHILD_ENV)
            blas = rec.pop("blas_threads")
            runs[n].append(rec)
            print(f"N {n}: total {rec['total_s']:.3f} s, factor {rec['factor_s']:.3f} s, "
                  f"probe {rec['probe_s']:.3f} s, L+U {rec['lu_nnz'] / 1e6:.1f}M, "
                  f"rss {rec['peak_rss_mb']:.0f} MB", flush=True)

    def medians(recs):
        return {f"{name}_median": statistics.median(r[name] for r in recs)
                for name in ("total_s", *STAGES, "peak_rss_mb")}

    harness.write(
        args, "detuned Dicke steady state (sparse LU route) by stage, one fresh "
              "interpreter per N and repeat",
        point={"Delta_over_gamma": DELTA_OVER_GAMMA, "delta_over_gamma": DETUNING,
               "drive_ratio": DRIVE},
        child_env=CHILD_ENV, blas_threads=blas,
        ns={str(n): {**medians(recs), "lu_nnz": recs[-1]["lu_nnz"], "runs": recs}
            for n, recs in runs.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
