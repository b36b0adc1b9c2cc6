"""Command-line front end.

    dicke-lab <mode> --config cfg.json [--out path] [--threads k]
                     [--no-timestamp] [--absolute-drive]
    dicke-lab reproduce-figures [--outdir dir] [--threads k] [--no-timestamp]

Exit codes: 0 success, 2 bad configuration, 3 solver failure,
4 above-threshold analytic request.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import AboveThresholdError, ConfigError, DickeLabError, SolverError
from .sweep import MODES, RunConfig, reproduce_figures, run_and_write

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
        if args.out:
            cfg.out_path = args.out
        if args.threads is not None:
            cfg = replace(cfg, threads=args.threads)  # re-runs the config checks
        if args.no_timestamp:
            cfg.timestamp = False
        if args.absolute_drive:
            cfg.drive_absolute = True
        if args.json:
            cfg.json_mirror = True
        if not cfg.out_path:
            raise ConfigError("no output path: set output.path in the config or --out")

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
        print(f"above-threshold analytic request: {exc}", file=sys.stderr)
        return EXIT_THRESHOLD
    except (SolverError, DickeLabError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
