"""Command-line front end.

    dicke-lab <mode> --config cfg.json [--out path] [--threads k]
                     [--no-timestamp] [--absolute-drive]
    dicke-lab reproduce-figures [--outdir dir] [--threads k] [--no-timestamp]

Exit codes: 0 success, 2 bad configuration (an output that would overwrite
the config file included), 3 solver failure, 4 no grid point below the
critical drive (every row of a spectrum or mean-field run would be empty).

OpenBLAS threads: each OpenBLAS copy (numpy's, and scipy's where a point
loads it) reads ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
``OMP_NUM_THREADS`` once, when it loads, and otherwise starts one thread per
core. Importing this module sets ``OPENBLAS_NUM_THREADS=1`` before it loads
numpy, unless one of the three is set (non-empty), in which case the
caller's count stands. Pool workers inherit the setting. Every dense kernel
already runs on one thread (``lindblad._single_blas_thread``), so the
threads a copy starts at load only cost the process its start-up and exit.
Importing any other module of the package leaves the environment alone.

Exit: ``dicke-lab`` and ``python -m dickelab.cli`` enter through
:func:`console`, which runs :func:`main` and then calls ``gc.freeze()``.
The collections that interpreter teardown runs then skip the ~40k objects
numpy and scipy leave at import, and the operating system reclaims that
heap with the process: a call that loads scipy exits in ~20 ms instead of
~110 ms. Every output file is closed before ``main`` returns, and the
standard streams are flushed by teardown as before, so no output depends
on the collections it skips. In-process callers of ``main(argv)``
(tests, scripts, the benchmark's tracer) never freeze, so the collector
still reclaims what each call leaves.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace

# the variables OpenBLAS reads for its thread count, highest priority first
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(os.environ.get(name) for name in BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import AboveThresholdError, ConfigError, DickeLabError  # noqa: E402
from .sweep import MODES, RunConfig, reproduce_figures, run_and_write  # noqa: E402

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_THRESHOLD = 4


def _add_common_flags(parser):
    parser.add_argument("--out", help="output CSV path (overrides config)")
    parser.add_argument("--threads", type=int, help="worker count; 1 = serial")
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="suppress the timestamp header and the wall-time column "
        "(byte-reproducible output)",
    )
    parser.add_argument(
        "--absolute-drive",
        action="store_true",
        help="interpret drive values as absolute rates instead of ratios "
        "to the critical drive",
    )
    parser.add_argument(
        "--json", action="store_true", help="also write a JSON mirror of the CSV"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke-lab",
        description="Driven Dicke superradiance: exact steady-state numerics "
        "with closed-form cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run the {mode} mode")
        p.add_argument("--config", required=True, help="JSON run configuration")
        _add_common_flags(p)
    fig = sub.add_parser(
        "reproduce-figures",
        help="emit fig2.csv / fig3.csv (inversion and squeezing vs drive)",
    )
    fig.add_argument("--outdir", default=".", help="directory for the CSV bundles")
    fig.add_argument("--threads", type=int, help="worker count; 1 = serial")
    fig.add_argument("--no-timestamp", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "reproduce-figures":
            paths = reproduce_figures(
                args.outdir,
                threads=args.threads,
                timestamp=not args.no_timestamp,
            )
            for mode, path in paths.items():
                print(f"{mode}: wrote {path}")
            return EXIT_OK

        cfg = RunConfig.from_file(args.config, mode=args.command)
        # a flag overrides its config key and passes the same checks
        flags = {"out_path": args.out or None, "threads": args.threads,
                 "timestamp": False if args.no_timestamp else None,
                 "drive_absolute": args.absolute_drive or None,
                 "json_mirror": args.json or None}
        cfg = replace(cfg, **{key: value for key, value in flags.items() if value is not None})
        if not cfg.out_path:
            raise ConfigError("no output path: set output.path in the config or --out")
        if os.path.realpath(args.config) in map(os.path.realpath, cfg.written_paths):
            raise ConfigError(f"an output path is the config file {args.config}")

        result = run_and_write(cfg)
        print(f"{cfg.mode}: wrote {cfg.out_path} ({len(result.rows)} rows)")
        if result.n_failures:
            print(
                f"{result.n_failures} grid point(s) failed; see the error column",
                file=sys.stderr,
            )
            return EXIT_SOLVER
        return EXIT_OK

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AboveThresholdError as exc:
        print(f"above threshold: {exc}", file=sys.stderr)
        return EXIT_THRESHOLD
    except DickeLabError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console() -> int:
    """The process entry of ``dicke-lab`` and ``python -m dickelab.cli``:
    :func:`main` on ``sys.argv``, then ``gc.freeze()`` (see the module
    docstring); returns ``main``'s exit code."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console())
