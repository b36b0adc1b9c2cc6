"""Output-spectrum Krylov cost and agreement over a grid of Dicke points,
for two checkouts of the package.

    python scripts/bench_spectrum.py PARENT_ROOT [CHANGE_ROOT] [--repeats 1]
        [--out BENCH_spectrum.json] [--note TEXT] [--points N,D,drive ...]

CHANGE_ROOT defaults to the checkout holding this script. The grid is
N in {20, 60, 100, 150}, drives 0.8 and 0.95 of the critical drive and
Delta/gamma in {0.25, 1, -1, 3}, plus N = 100 at drive 0.9 and
Delta/gamma 0.5 and 2 (the benchmark's near point and the second
resolvent-oracle point); ``--points`` replaces it. Every point is
resonant (delta = 0), so the steady state is the closed form.

Each run is one fresh interpreter with PYTHONPATH set to the checkout's
``src`` and OPENBLAS_NUM_THREADS=1; the checkouts alternate which goes
first. It runs the point as a ``spectrum`` config (``RunConfig.from_dict``,
the default grid of tau_max and n_tau, kappa = 1000 gamma, one thread, so
the rows are computed in the child) through ``sweep.run``, reads the
verdict and the incoherent spectrum from its rows, and wraps
``observables.two_time_correlator``, the regression correlator that
``observables.output_spectrum`` calls, to time that call and read its
poles and ``PropagationReport``. Per point the record holds, for each
side, the Krylov dimension, the L + U entries of the shifted factor, the
seconds of the correlator (``correlator_s``, the smallest over the
repeats), the number of kept poles and the slowest kept rate; and the
largest |F_change - F_parent| over the omega grid divided by the parent's
peak.
``start_round_off`` is eps D <J_+J_-> / var(J_-), the relative round-off
of the correlator's start: the stop rule holds each spectrum only to
max(1e-8, that share) of its peak, so two checkouts may differ by about as
much. A side that raises records the error instead. After the header of
``harness.write``, the record holds the OpenBLAS thread count of each
loaded copy in a child.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import harness

POINTS = [(n, d, drive) for n in (20, 60, 100, 150) for drive in (0.8, 0.95)
          for d in (0.25, 1.0, -1.0, 3.0)] + [(100, 0.5, 0.9), (100, 2.0, 0.9)]
KAPPA_OVER_GAMMA = 1000.0


def _child(point) -> dict:
    """One output spectrum of the checkout on the path, with its regression
    correlator timed."""
    from dickelab import lindblad, observables, sweep
    from dickelab.models import resonant_steady_state
    from dickelab.operators import SpinRep
    from dickelab.parameters import EffectiveParams

    n, d_over_g, drive = point
    cfg = sweep.RunConfig.from_dict({
        "mode": "spectrum", "params": {"effective": {"gamma": 1.0}},
        "sweep": {"N": [n], "Delta_over_gamma": [d_over_g], "drive": {"values": [drive]}},
        "spectrum": {"kappa_embed_over_gamma": KAPPA_OVER_GAMMA}, "solver": {"threads": 1}})
    e = EffectiveParams(gamma=1.0, Delta=d_over_g, Omega=0.0, N=n).with_drive_ratio(drive)
    moments = observables.spin_moments(resonant_steady_state(e)[0], SpinRep.for_atoms(n))
    correlator, calls = observables.two_time_correlator, []

    def timed(*args):
        t0 = time.perf_counter()
        result = correlator(*args)
        calls.append((time.perf_counter() - t0, result))
        return result

    observables.two_time_correlator = timed
    record = {"blas_threads": None, "error": None,
              "start_round_off": float(np.finfo(float).eps * (n + 1) * moments.jp_jm
                                       / moments.var_jm)}
    try:
        rows = sweep.run(cfg).rows
        record["error"] = rows[0]["error"]
    except Exception as exc:  # noqa: BLE001 - a failing side is a result
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["blas_threads"] = lindblad.blas_thread_counts()
    if calls:
        seconds, (lam, _, report) = calls[-1]
        record.update(correlator_s=seconds, krylov_dim=report.krylov_dim, lu_nnz=report.lu_nnz,
                      poles=int(lam.size),
                      slowest_rate=float(-lam.real.max()) if lam.size else None)
    if not record["error"]:
        record["verdict"] = rows[0]["verdict"]
        record["spectrum"] = (None if record["verdict"] == "coherent"
                              else [float(row["incoherent_spectrum"]) for row in rows])
    return record


def _parse_point(text: str):
    n, d_over_g, drive = (float(x) for x in text.split(","))
    return int(n), d_over_g, drive


def main(argv=None) -> int:
    parser = harness.Arguments(__doc__, "BENCH_spectrum.json", repeats=1,
                               sides=("parent", "change"), child={})
    parser.add_argument("--points", nargs="+", type=_parse_point)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(_parse_point(args.child))))
        return 0

    sides = args.roots
    records, blas = [], {}
    for point in args.points or POINTS:
        record = {"N": point[0], "Delta_over_gamma": point[1], "drive": point[2]}
        spectra = {}
        for repeat in range(args.repeats):
            for side in harness.side_order(sides, repeat):
                rec = harness.run_child(__file__, sides[side], ",".join(repr(x) for x in point),
                                        OPENBLAS_NUM_THREADS="1")
                blas[side] = rec.pop("blas_threads")
                record["start_round_off"] = rec.pop("start_round_off")
                spectra[side] = rec.pop("spectrum", None)
                seconds = rec.pop("correlator_s", None)
                if seconds is not None:
                    best = record.get(side, {}).get("correlator_s", seconds)
                    rec["correlator_s"] = min(best, seconds)
                record[side] = rec
        if spectra["parent"] is not None and spectra["change"] is not None:
            before, after = np.array(spectra["parent"]), np.array(spectra["change"])
            record["max_change_over_peak"] = float(np.abs(after - before).max()
                                                   / np.abs(before).max())
        records.append(record)
        summary = "  ".join(
            f"{side} " + (record[side]["error"] or
                          f"{record[side].get('krylov_dim', '-')} vectors "
                          f"{record[side].get('correlator_s', 0.0):.3f} s")
            for side in sides)
        print(f"N={point[0]} D/g={point[1]} drive={point[2]}: {summary}  "
              f"change/peak {record.get('max_change_over_peak', float('nan')):.1e}",
              flush=True)

    dims = [(r["parent"].get("krylov_dim"), r["change"].get("krylov_dim")) for r in records]
    dims = [(p, c) for p, c in dims if p is not None and c is not None]
    harness.write(
        args, "observables.two_time_correlator inside output_spectrum at the default "
              "omega grid, kappa = 1000 gamma; correlator_s is the smallest over the repeats; "
              "max_change_over_peak = max |F_change - F_parent| / max |F_parent|",
        blas_threads=blas,
        fewer_vectors=sum(c < p for p, c in dims),
        same_vectors=sum(c == p for p, c in dims),
        more_vectors=sum(c > p for p, c in dims),
        points=records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
