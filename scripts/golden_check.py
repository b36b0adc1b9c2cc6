"""Byte-for-byte comparison of the shipped outputs of two checkouts.

    python scripts/golden_check.py BEFORE_ROOT [AFTER_ROOT]

AFTER_ROOT defaults to the checkout holding this script. In each checkout
it runs every ``configs/*.json`` through ``dicke-lab <mode> --threads 1
--no-timestamp --json`` (one CSV and one JSON mirror per config) and
``dicke-lab reproduce-figures --threads 1 --no-timestamp`` (fig2.csv and
fig3.csv), each in a fresh interpreter with PYTHONPATH set to the
checkout's ``src``. It then compares the files of the two checkouts byte
for byte. For a file that differs it lists each column whose cells
differ, with the largest absolute deviation and the largest deviation
scaled by the larger magnitude of the pair. Each stderr line naming a
Warning that only one checkout's run prints is listed under that run
(warnings do not change the exit status). The exit status is 0 when
every file is identical and every run exits with the same code in both
checkouts, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import os
import re
import sys
import tempfile

import harness


def _cli(root: str, args: list) -> tuple:
    """(exit code, the lines of stderr that name a Warning) of one run, each
    without its leading ``file:line:``, which names the checkout."""
    proc = harness.fresh(root, ["-m", "dickelab.cli", *args])
    return proc.returncode, [re.sub(r"^.*?:\d+: ", "", line)
                             for line in proc.stderr.splitlines() if "Warning" in line]


def _produce(root: str, outdir: str) -> dict:
    """Write the outputs of ``root`` into ``outdir``; run name -> (exit code,
    warning lines)."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(root, "configs", "*.json"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            mode = json.load(fh)["mode"]
        runs[stem] = _cli(root, [mode, "--config", path,
                                 "--out", os.path.join(outdir, stem + ".csv"),
                                 "--threads", "1", "--no-timestamp", "--json"])
    runs["reproduce-figures"] = _cli(root, ["reproduce-figures", "--outdir", outdir,
                                            "--threads", "1", "--no-timestamp"])
    return runs


def _table(path: str) -> tuple:
    """(columns, rows) of a CSV file or of a JSON mirror."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        columns = payload["columns"]
        return columns, [[row.get(c) for c in columns] for row in payload["rows"]]
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    table = list(csv.reader(lines))
    return table[0], table[1:]


def _number(cell):
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return None if math.isnan(value) else value


def _column_deviations(before: str, after: str) -> list:
    """Report lines for the columns whose cells differ between two tables."""
    cols_b, rows_b = _table(before)
    cols_a, rows_a = _table(after)
    lines = []
    if cols_b != cols_a:
        lines.append(f"columns differ: {cols_b} -> {cols_a}")
    if len(rows_b) != len(rows_a):
        lines.append(f"row count differs: {len(rows_b)} -> {len(rows_a)}")
    for name in (c for c in cols_a if c in cols_b):
        ib, ia = cols_b.index(name), cols_a.index(name)
        cells, other, worst_abs, worst_scaled = 0, 0, 0.0, 0.0
        for rb, ra in zip(rows_b, rows_a):
            b, a = rb[ib], ra[ia]
            if b == a:
                continue
            cells += 1
            xb, xa = _number(b), _number(a)
            if xb is None or xa is None:
                other += 1
                continue
            dev = abs(xa - xb)
            worst_abs = max(worst_abs, dev)
            worst_scaled = max(worst_scaled, dev / max(abs(xa), abs(xb), 1e-300))
        if cells:
            text = f"{name}: {cells} cells differ"
            if cells > other:
                text += f", max |dev| {worst_abs:.3e}, max scaled {worst_scaled:.3e}"
            if other:
                text += f", {other} not numeric"
            lines.append(text)
    return lines or ["bytes differ outside the rows (header or meta)"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", help="root of the reference checkout")
    parser.add_argument("after", nargs="?", default=harness.ROOT,
                        help="root of the checkout under test (default: this one)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        dirs, produced = {}, {}
        for side, root in (("before", args.before), ("after", args.after)):
            dirs[side] = os.path.join(tmp, side)
            os.makedirs(dirs[side])
            produced[side] = _produce(os.path.abspath(root), dirs[side])
        runs = sorted(set(produced["before"]) | set(produced["after"]))
        code_changes = 0
        for run in runs:
            (b, warned_b), (a, warned_a) = (produced[side].get(run, (None, []))
                                            for side in ("before", "after"))
            code_changes += a != b
            note = "" if a == b else "   <- exit codes differ"
            print(f"exit {run}: {b} -> {a}{note}")
            for side, lines, other in (("before", warned_b, warned_a),
                                       ("after", warned_a, warned_b)):
                for line in lines:
                    if line not in other:
                        print(f"    warning only {side}: {line.strip()}")

        names = sorted(set(os.listdir(dirs["before"])) | set(os.listdir(dirs["after"])))
        differing = 0
        for name in names:
            before, after = (os.path.join(dirs[s], name) for s in ("before", "after"))
            if not (os.path.exists(before) and os.path.exists(after)):
                differing += 1
                side = "after" if os.path.exists(after) else "before"
                print(f"MISSING   {name} (only in {side})")
                continue
            with open(before, "rb") as fb, open(after, "rb") as fa:
                same = fb.read() == fa.read()
            print(f"{'identical' if same else 'DIFFERS  '} {name}")
            if not same:
                differing += 1
                for line in _column_deviations(before, after):
                    print(f"    {line}")
        print(f"{len(names) - differing} of {len(names)} files identical")
        print(f"{len(runs) - code_changes} of {len(runs)} runs with the same exit code")
    return 0 if differing == 0 and code_changes == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
