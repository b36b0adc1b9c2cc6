"""What the bench scripts share: the command line, the fresh interpreter on
a checkout with its wall time, CPU time and peak resident set, the order of
the checkouts in each repeat and the record header.

Every ``BENCH_*.json`` starts with the header of :func:`write`: ``what``,
``note``, ``nproc``, ``python``, ``numpy``, ``scipy``, ``repeats``,
``blas_thread_env``, the caller's OpenBLAS thread variables (value, or
null where unset), which the fresh interpreters inherit: a ``dicke-lab``
child loads OpenBLAS with one thread unless one of them is set; and
``pythondontwritebytecode``, the caller's ``PYTHONDONTWRITEBYTECODE``
(null where unset), under which a fresh interpreter compiles the
package's source at every start.
This module imports no ``dickelab``, so it works with any checkout, an
older one included.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the variables OpenBLAS reads for its thread count when it loads
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# ``python -S -c _SPAWN FD ARGV...``, the process between this one and a
# timed child: it spawns ARGV, reaps it, and writes to the pipe FD the
# child's exit code, the monotonic times just before the spawn and just
# after the reaping, and the child's CPU time and ru_maxrss (KiB)
_SPAWN = """
import os, sys, time
fd = int(sys.argv[1])
os.set_inheritable(fd, False)
start = time.clock_gettime(time.CLOCK_MONOTONIC)
_, status, usage = os.wait4(os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ), 0)
end = time.clock_gettime(time.CLOCK_MONOTONIC)
os.write(fd, f"{os.waitstatus_to_exitcode(status)} {start!r} {end!r} "
             f"{usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}".encode())
"""


class Arguments(argparse.ArgumentParser):
    """The shared command line: the two checkouts ``sides`` (the second
    defaults to this checkout), ``--repeats``, ``--out`` (a file name
    under this checkout by default), ``--note`` and, when ``child`` holds
    its argparse keywords, the hidden ``--child``. A script adds its own
    arguments to it."""

    def __init__(self, doc: str, out: str, repeats: int, sides: tuple = (),
                 child: dict | None = None):
        super().__init__(description=doc.splitlines()[0])
        self.sides = sides
        if sides:
            self.add_argument(sides[0], nargs="?")
            self.add_argument(sides[1], nargs="?", default=ROOT)
        self.add_argument("--repeats", type=int, default=repeats)
        self.add_argument("--out", default=os.path.join(ROOT, out))
        self.add_argument("--note", default="", help="free text stored in the record")
        if child is not None:
            self.add_argument("--child", help=argparse.SUPPRESS, **child)

    def parse_args(self, argv=None):
        """The arguments plus ``roots``, the absolute root of each checkout
        by side (empty under ``--child``)."""
        args = super().parse_args(argv)
        args.roots = {}
        if self.sides and not getattr(args, "child", None):
            if getattr(args, self.sides[0]) is None:
                self.error(f"{self.sides[0].upper()}_ROOT is required")
            args.roots = {side: os.path.abspath(getattr(args, side)) for side in self.sides}
        return args


def _env(root: str, env: dict) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **env)


def fresh(root: str, args: list, **env) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter that imports the package from
    ``root``'s ``src``, with ``env`` added to the environment; the caller
    reads the exit code."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_env(root, env))


def timed(root: str, args: list, **env) -> dict:
    """``wall_s``, ``cpu_s``, ``exit_s`` and ``peak_rss_mb`` of ``python
    args`` in a fresh interpreter (as :func:`fresh`, with
    ``PYTHONUNBUFFERED=1`` added to the child's environment so each line
    reaches the pipe when printed): wall time from spawn to exit; user +
    system CPU time of the process and of the children it reaped, pool
    workers included (``os.wait4``); the time from the child's last
    standard-output line (its spawn, if it prints none) to its exit, the
    process's teardown; and the peak resident set in MB, ``ru_maxrss /
    1024`` (the largest of the process and the children it reaped).

    The child is spawned and reaped by a small ``python -S`` process of its
    own (``_SPAWN``), so that peak is the child's: on Linux a spawned
    child's ``ru_maxrss`` starts from the peak its parent had reached when
    it was spawned, and this process may have touched far more than the
    ~10 MB of that helper (``benchmark/run.py`` spawns its children
    directly, so its ``peak_rss_mb`` is the larger of the two). Output is
    discarded; a non-zero exit raises with the process's standard error."""
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as report, tempfile.TemporaryFile() as err:
        try:
            proc = subprocess.Popen(
                [sys.executable, "-S", "-c", _SPAWN, str(write_end), sys.executable, *args],
                stdout=subprocess.PIPE, stderr=err, pass_fds=(write_end,),
                env=_env(root, dict(env, PYTHONUNBUFFERED="1")))
        finally:
            os.close(write_end)
        last = None
        for _ in proc.stdout:  # until the helper, which outlives the child, exits
            last = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc.stdout.close()
        proc.wait()
        fields = report.read().split()
        if proc.returncode or len(fields) != 5 or int(fields[0]):
            err.seek(0)
            raise subprocess.CalledProcessError(int(fields[0]) if fields else proc.returncode,
                                                [sys.executable, *args],
                                                stderr=err.read().decode())
    start, end, cpu, maxrss = map(float, fields[1:])
    return {"wall_s": end - start, "cpu_s": cpu, "exit_s": end - (start if last is None else last),
            "peak_rss_mb": maxrss / 1024}


def run_child(script: str, root: str, *args, **env) -> dict:
    """The last JSON line that ``script --child args`` prints in a fresh
    interpreter on ``root`` (see :func:`fresh`); each argument is passed
    as its ``str``."""
    proc = fresh(root, [os.path.abspath(script), "--child", *map(str, args)], **env)
    proc.check_returncode()
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> list:
    """The first and third quartiles of ``values`` (``statistics.quantiles``,
    exclusive method); the one value twice for a single run."""
    if len(values) < 2:
        return [values[0]] * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summary(runs: list) -> dict:
    """The median and the quartiles of each of ``wall_s``, ``cpu_s``,
    ``exit_s`` and ``peak_rss_mb`` that every record of ``runs``
    (:func:`timed`'s form) holds, as ``<name>_median`` and
    ``<name>_quartiles``, and the runs themselves."""
    record = {}
    for name in ("wall_s", "cpu_s", "exit_s", "peak_rss_mb"):
        if all(name in r for r in runs):
            values = [r[name] for r in runs]
            record[f"{name}_median"] = statistics.median(values)
            record[f"{name}_quartiles"] = quartiles(values)
    return {**record, "runs": runs}


def side_order(sides, repeat: int) -> list:
    """The sides in the order repeat number ``repeat`` runs them: as given
    on even repeats and reversed on odd ones, so neither checkout always
    runs first."""
    return list(sides) if repeat % 2 == 0 else list(reversed(sides))


def write(args, what: str, **fields):
    """Write the record to ``args.out``: the shared header, then ``fields``.
    Package versions are read from their metadata, with no import."""
    record = {
        "what": what,
        "note": args.note,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "repeats": args.repeats,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        **fields,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
