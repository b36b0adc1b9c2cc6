"""dickelab benchmark: end-to-end cost of the ``dicke-lab`` CLI, per-layer cost
from a traced replay, and closed-form checks of every output row.

    python3 benchmark/run.py --workload figures --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py --workload all

Run from the root of a checkout. With ``--trace 0`` the benchmark times the
set-up of a fresh interpreter several times, then runs whole rounds of the
workload's CLI calls, one fresh process per call, until ``--seconds`` have
passed, and reports medians over rounds. With ``--trace 1`` it replays one
round in its own process with spans around each layer. The last line of
standard output is one JSON object; the full record, with the machine's
core count and BLAS settings, goes to ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import environment  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
SETUP_SCRIPT = (
    "import sys\n"
    "from dickelab.sweep import RunConfig\n"
    "for path in sys.argv[1:]:\n"
    "    RunConfig.from_file(path)\n"
)


def _child_env() -> dict:
    # the package runs from the checkout's source tree; nothing else is set
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _timed(cmd: list, log_path: str) -> tuple:
    """(exit code, wall s, user+system CPU s, peak RSS MB) of a process and
    the children it waited for."""
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def read_rows(path: str) -> list:
    if not os.path.exists(path):
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _write_configs(invocations, outdir: str) -> dict:
    paths = {}
    for inv in invocations:
        paths[inv.name] = os.path.join(outdir, inv.name + ".json")
        with open(paths[inv.name], "w", encoding="utf-8") as fh:
            json.dump(inv.config, fh, indent=1)
    return paths


def measure_setup(config_paths: list, outdir: str) -> list:
    cmd = [sys.executable, "-c", SETUP_SCRIPT, *config_paths]
    times = []
    for k in range(SETUP_REPEATS):
        code, wall, _, _ = _timed(cmd, os.path.join(outdir, f"setup-{k}.log"))
        if code != 0:
            raise RuntimeError(f"set-up failed with exit code {code}")
        times.append(wall)
    return times


def run_round(workload: str, invocations, config_paths: dict, outdir: str, k: int) -> dict:
    outputs, record = {}, {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "calls": []}
    for inv in invocations:
        out = os.path.join(outdir, f"round{k}-{inv.name}.csv")
        cmd = [sys.executable, "-m", "dickelab.cli", inv.mode, "--config", config_paths[inv.name],
               "--out", out, "--threads", "1"]
        code, wall, cpu, rss = _timed(cmd, os.path.join(outdir, f"round{k}-{inv.name}.log"))
        outputs[inv.name] = (code, read_rows(out))
        record["wall_s"] += wall
        record["cpu_s"] += cpu
        record["peak_rss_mb"] = max(record["peak_rss_mb"], rss)
        record["calls"].append({"name": inv.name, "exit": code, "wall_s": wall, "cpu_s": cpu,
                                "peak_rss_mb": rss})
    attempted, failed, problems = checks.check_round(workload, invocations, outputs)
    record.update(attempted=attempted, failed=failed, problems=problems)
    return record


def untraced(workload: str, invocations, config_paths: dict, outdir: str, seconds: float) -> dict:
    setup = measure_setup(list(config_paths.values()), outdir)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, invocations, config_paths, outdir, len(rounds)))
        r = rounds[-1]
        print(f"{workload} round {len(rounds)}: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"peak rss {r['peak_rss_mb']:.1f} MB, attempted {r['attempted']}, failed {r['failed']}",
              flush=True)
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
        metrics[name] = (statistics.median(r[name] for r in rounds), unit)
    return {
        "metrics": metrics,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "problems": [p for r in rounds for p in r["problems"]],
        "raw": {"setup_s": setup, "rounds": rounds},
    }


def traced(workload: str, invocations, config_paths: dict, outdir: str) -> dict:
    sys.path.insert(0, SRC)
    import tracing

    paths = [config_paths[inv.name] for inv in invocations]
    metrics, raw, spans, csv_paths = tracing.replay(
        paths, outdir, pooled=workload in workloads.POOLED_IN_TRACE)
    outputs = {inv.name: (3 if any(r["error"] for r in read_rows(p)) else 0, read_rows(p))
               for inv, p in zip(invocations, csv_paths)}
    attempted, failed, problems = checks.check_round(workload, invocations, outputs)
    with open(os.path.join(outdir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "raw": raw}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    outdir = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{int(trace)}")
    os.makedirs(outdir, exist_ok=True)
    invocations = workloads.build(workload, seed)
    config_paths = _write_configs(invocations, outdir)
    if trace:
        result = traced(workload, invocations, config_paths, outdir)
    else:
        result = untraced(workload, invocations, config_paths, outdir, seconds)
        for name, (value, unit) in result["metrics"].items():
            print(f"{workload} {name} = {value:.6g} {unit}")
    for problem in result["problems"][:20]:
        print(f"{workload} CHECK FAILED: {problem}")
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment.describe(ROOT),
        "grid": {inv.name: inv.config for inv in invocations},
        **result,
    }
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return result


def _summary(result: dict, prefix: str = "") -> dict:
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {prefix + name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.GRIDS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dickelab", "cli.py")):
        print(f"no dickelab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    names = list(workloads.GRIDS) if args.workload == "all" else [args.workload]
    summaries = [_summary(run_workload(name, args.seed, args.seconds, bool(args.trace)),
                          prefix=f"{name}." if len(names) > 1 else "")
                 for name in names]
    combined = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {k: v for s in summaries for k, v in s["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
