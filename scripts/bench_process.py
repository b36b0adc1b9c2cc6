"""Whole-process cost of the benchmark's three kinds of ``dicke-lab`` call,
teardown included, for two checkouts of the package.

    python scripts/bench_process.py PARENT_ROOT [CHANGE_ROOT] [--repeats 6]
        [--out BENCH_process.json] [--note TEXT]

CHANGE_ROOT defaults to the checkout holding this script. The calls are
the kinds that ``benchmark/run.py`` makes, at fixed drives: a 12-point
closed-form ``sweep-jz`` at N = 50, a resolved ``spectrum`` at N = 100
(drive 0.9, Delta/gamma 0.5, ``n_tau`` 512, kappa = 1000 gamma) and a
2-drive ``validate-elimination`` on the benchmark's N = 4 cavity. Each run
is ``python -m dickelab.cli <mode> --config ... --threads 1`` in a fresh
interpreter on the checkout's ``src``, timed by ``harness.timed``:
``wall_s``, ``cpu_s`` and ``exit_s``, the time from the CLI's ``wrote``
line to the end of the process (interpreter teardown). Each repeat runs
every call once per checkout, the checkouts alternating which goes first.
The OpenBLAS thread variables are the caller's, as in the benchmark. After
the header of ``harness.write``, the record holds per call its config and,
per side, ``harness.summary`` of its runs (medians, quartiles, the runs).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import harness

CALLS = {
    "sweep_jz_n50": {
        "mode": "sweep-jz",
        "params": {"effective": {"gamma": 1.0, "N": 50}},
        "sweep": {"drive": {"values": [0.2, 0.6, 0.87, 1.1]},
                  "Delta_over_gamma": [0.0, 0.5, 1.0]},
    },
    "spectrum_n100": {
        "mode": "spectrum",
        "params": {"effective": {"gamma": 1.0}},
        "sweep": {"N": [100], "drive": {"values": [0.9]}, "Delta_over_gamma": [0.5]},
        "spectrum": {"n_tau": 512, "kappa_embed_over_gamma": 1000.0},
    },
    "elimination_n4": {
        "mode": "validate-elimination",
        "params": {"cavity": {"g": 0.05, "kappa": 1.0, "delta_c": 0.0, "Omega_L": 0.0, "N": 4}},
        "sweep": {"drive": {"values": [0.3, 0.7]}},
        "elimination": {"min_adiabaticity": 5.0},
    },
}


def main(argv=None) -> int:
    args = harness.Arguments(__doc__, "BENCH_process.json", repeats=6,
                             sides=("parent", "change")).parse_args(argv)
    sides = args.roots
    runs = {name: {side: [] for side in sides} for name in CALLS}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in CALLS.items():
            with open(os.path.join(tmp, name + ".json"), "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        for repeat in range(args.repeats):
            for name, config in CALLS.items():
                for side in harness.side_order(sides, repeat):
                    rec = harness.timed(sides[side], [
                        "-m", "dickelab.cli", config["mode"], "--config",
                        os.path.join(tmp, name + ".json"),
                        "--out", os.path.join(tmp, name + ".csv"), "--threads", "1"])
                    runs[name][side].append(rec)
                    print(f"{side} {name}: wall {rec['wall_s']:.3f} s, "
                          f"cpu {rec['cpu_s']:.3f} s, exit {rec['exit_s'] * 1e3:.1f} ms",
                          flush=True)

    harness.write(
        args, "dicke-lab calls of the benchmark's three kinds, one fresh interpreter each; "
              "exit_s = time from the last standard-output line to the process's end",
        calls={name: {"config": CALLS[name], **{side: harness.summary(rs)
                                                 for side, rs in by_side.items()}}
               for name, by_side in runs.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
