"""Regression-correlator timings and accuracy over a grid of Dicke points,
for one or two checkouts of the package.

    python scripts/bench_correlator.py BEFORE_ROOT [AFTER_ROOT] [--repeats 1]
        [--out BENCH_correlator.json] [--note TEXT] [--points N,D,drive[,delta] ...]

AFTER_ROOT defaults to the checkout holding this script. The grid is
N in {10, 40, 100, 200}, Delta/gamma in {0, 0.5, 2} and drives 0.55 and
0.9 of the critical drive, plus one detuned point (N = 40, drive 0.5,
delta = 0.3); ``--points`` replaces it. At each point the steady state is
the closed form at delta = 0 and the sparse LU otherwise, and the lag grid
has 512 points up to the default tau_max of ``output_spectrum``,
10 / (N cos(theta) gamma / 2), with the resonant Bloch angle also at
delta != 0.

Each timing runs in a fresh interpreter with PYTHONPATH set to the
checkout's ``src`` and covers one call of
``lindblad.two_time_correlator(L, rho, J_+, J_-, tau)``; the checkouts
alternate which goes first. The connected correlator of each checkout,
``<J_+(0) J_-(tau)> - <J_+><J_->`` (returned as such by current
checkouts; older ones return the first term, and the script subtracts
the second), is compared with a reference that
this script integrates itself, with DOP853 at rtol 1e-13 from the
connected start ``rho J_+ - <J_+> rho`` (state and operators from
AFTER_ROOT). The deviation is the largest one on the grid over the largest
reference magnitude, ``max_connected``. ``resolvable`` marks points whose
connected start lies above the round-off of its terms, eps D <J_+ J_->;
below it both correlators are noise. ``output_round_off`` is
eps |<J_+ J_->| over ``max_connected``: the rounding of a returned
<J_+(0) J_-(tau)>, which holds the disconnected <J_+><J_->, relative to
the connected part; no deviation of an older checkout can fall below it.
After the header of ``harness.write``, the record holds the OpenBLAS
thread count of each loaded copy in a child.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import harness

POINTS = [(n, d, drive, 0.0) for n in (10, 40, 100, 200) for d in (0.0, 0.5, 2.0)
          for drive in (0.55, 0.9)] + [(40, 0.0, 0.5, 0.3)]
N_TAU = 512
REFERENCE_RTOL = 1e-13


def _point(n: int, d_over_g: float, drive: float, delta: float):
    """(model, steady state, lag grid) of one point, from the package on
    the path."""
    from dickelab.lindblad import steady_state
    from dickelab.models import build_dicke_model, resonant_steady_state
    from dickelab.parameters import EffectiveParams, bloch_angles

    resonant = EffectiveParams(gamma=1.0, Delta=d_over_g, Omega=0.0, N=n).with_drive_ratio(drive)
    e = EffectiveParams(gamma=1.0, Delta=d_over_g, Omega=resonant.Omega, N=n, delta=delta)
    model = build_dicke_model(e)
    if delta == 0.0:
        rho, _ = resonant_steady_state(model.effective)
    else:
        rho, _ = steady_state(model.liouvillian)
    tau = np.linspace(0.0, 10.0 / (n * bloch_angles(resonant).cos_theta / 2.0), N_TAU)
    return model, rho, tau


def _means(model, rho):
    from dickelab.lindblad import expect

    ops = model.ops
    jp, jm = expect(rho, ops["J_plus"]), expect(rho, ops["J_minus"])
    return jp, jm, expect(rho, ops["J_plus"] @ ops["J_minus"])


def _child_time(point) -> dict:
    """Time one correlator call of the checkout on the path."""
    from dickelab.lindblad import two_time_correlator

    model, rho, tau = _point(*point)
    ops = model.ops
    t0 = time.perf_counter()
    connected = np.asarray(two_time_correlator(model.liouvillian, rho, ops["J_plus"],
                                               ops["J_minus"], tau))
    wall = time.perf_counter() - t0
    jp, jm, jpjm = _means(model, rho)
    # older checkouts return <J_+(0) J_-(tau)>, which starts at <J_+ J_->
    # rather than at the connected <J_+ J_-> - <J_+><J_->
    if abs(connected[0] - jpjm) < abs(connected[0] - (jpjm - jp * jm)):
        connected = connected - jp * jm
    return {"wall_s": wall, "blas_threads": harness.blas_threads(),
            "connected": [[float(c.real), float(c.imag)] for c in connected]}


def _child_reference(point) -> dict:
    """The connected correlator by DOP853 at rtol 1e-13, evaluated on the
    grid from the dense output of each step (no t_eval array)."""
    from scipy.integrate import DOP853

    from dickelab.lindblad import vectorize

    model, rho, tau = _point(*point)
    S = model.liouvillian.superoperator
    A, B = model.ops["J_plus"].toarray(), model.ops["J_minus"].toarray()
    X0 = rho.matrix @ A
    y0 = vectorize(X0 - X0.trace() * rho.matrix)
    w = vectorize(B.T)
    atol = 1e-16 * max(1.0, float(np.abs(y0).max()))
    t0 = time.perf_counter()
    solver = DOP853(lambda t, v: S @ v, 0.0, y0, tau[-1], rtol=REFERENCE_RTOL, atol=atol)
    values = np.empty(tau.size, dtype=complex)
    values[0] = w @ y0
    k, steps = 1, 0
    while k < tau.size:
        solver.step()
        steps += 1
        if solver.status == "failed":
            raise RuntimeError(f"reference integration failed at t = {solver.t}")
        dense = solver.dense_output()
        while k < tau.size and tau[k] <= solver.t:
            values[k] = w @ dense(tau[k])
            k += 1
    _, _, jpjm = _means(model, rho)
    return {"wall_s": time.perf_counter() - t0, "steps": steps, "dim": model.liouvillian.dim,
            "jpjm": abs(jpjm),
            "connected": [[float(c.real), float(c.imag)] for c in values]}


def _run(root: str, kind: str, point) -> dict:
    return harness.run_child(__file__, root, kind, ",".join(repr(x) for x in point))


def _complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _parse_point(text: str):
    parts = [float(x) for x in text.split(",")]
    if len(parts) == 3:
        parts.append(0.0)
    return int(parts[0]), parts[1], parts[2], parts[3]


def main(argv=None) -> int:
    parser = harness.Arguments(__doc__, "BENCH_correlator.json", repeats=1,
                               sides=("before", "after"), child=dict(nargs=2))
    parser.add_argument("--points", nargs="+", type=_parse_point)
    args = parser.parse_args(argv)
    if args.child:
        kind, point = args.child
        child = _child_time if kind == "time" else _child_reference
        print(json.dumps(child(_parse_point(point))))
        return 0

    sides = args.roots
    eps = float(np.finfo(float).eps)
    records, blas = [], {}
    for point in args.points or POINTS:
        ref = _run(sides["after"], "reference", point)
        exact = _complex(ref["connected"])
        scale = float(np.abs(exact).max())
        floor = eps * ref["dim"] * ref["jpjm"]
        record = {"N": point[0], "Delta_over_gamma": point[1], "drive": point[2],
                  "delta": point[3], "connected_start": float(abs(exact[0])),
                  "max_connected": scale, "round_off_floor": floor,
                  "resolvable": bool(abs(exact[0]) > floor),
                  "output_round_off": eps * ref["jpjm"] / scale,
                  "reference_s": ref["wall_s"], "reference_steps": ref["steps"]}
        for repeat in range(args.repeats):
            for side in harness.side_order(sides, repeat):
                rec = _run(sides[side], "time", point)
                blas[side] = rec["blas_threads"]
                dev = float(np.abs(_complex(rec["connected"]) - exact).max())
                record.setdefault(f"{side}_wall_s", []).append(rec["wall_s"])
                record[f"{side}_deviation"] = dev / scale if scale > 0 else dev
        records.append(record)
        print(f"N={point[0]} D/g={point[1]} drive={point[2]} delta={point[3]}: "
              f"before {min(record['before_wall_s']):.2f} s "
              f"(dev {record['before_deviation']:.1e}), "
              f"after {min(record['after_wall_s']):.2f} s "
              f"(dev {record['after_deviation']:.1e}), "
              f"resolvable {record['resolvable']}", flush=True)

    harness.write(
        args, "lindblad.two_time_correlator(L, rho, J_+, J_-, tau) on 512 lags up to "
              "output_spectrum's default tau_max; deviation = max |connected - DOP853 rtol "
              "1e-13| / max |DOP853|",
        blas_threads=blas, points=records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
