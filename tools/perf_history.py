#!/usr/bin/env python3
"""Appends the benchmark's medians to the committed perf trajectory.

    python3 tools/perf_history.py REPORT [REPORT ...]
    python3 tools/perf_history.py --run

A REPORT is the standard output of `python3 perfbench/run.py`, saved to a
file: each table's header lines stamp a workload (seed, build type, nproc,
git sha), and the last line is the summary JSON holding the medians.
--run runs `perfbench/run.py --workload all --seed 1 --seconds 30` in this
checkout and reads its output instead, so every --run row is measured
alike; a checkout with uncommitted changes is stamped `<sha>-dirty`, the
tree of the change that follows that commit.

For each workload the tool appends one JSON row to
bench/baselines/BENCH_history.jsonl (or --history): git sha, the UTC time
the row is written, cpus, build type, workload, seed, and the medians of
the end-to-end metrics BENCHMARK.json names.  When a traced (--trace 1)
table of the same tree, workload and seed is given too, as `--workload
all` prints it, the row also gets sim.events and sim.events_per_s.
Nothing is written when a run failed its correctness gate, a workload has
no end-to-end table, or one tree's workload and seed has two tables of
the same kind.
"""

import argparse
import datetime
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HISTORY = os.path.join(ROOT, "bench", "baselines", "BENCH_history.jsonl")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    END_TO_END = tuple(m["name"] for m in json.load(_f)["end_to_end"])
TRACED = ("sim.events", "sim.events_per_s")

# The two header lines perfbench/run.py prints above each table.
HEADER = re.compile(r"perfbench workload=(\S+) seed=(\d+) seconds=\d+ trace=([01])$")
STAMP = re.compile(r"\s*build_type=(\S+) compiler=.* nproc=(\d+) git=(.+)$")


def parse_report(text):
    """Returns one {stamp..., trace, metrics} dict per table in the report."""
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("empty report")
    summary = json.loads(lines[-1])
    if summary.get("correct") is not True:
        raise ValueError("a run failed its correctness gate")
    tables = []
    for line in lines[:-1]:
        m = HEADER.match(line)
        if m:
            tables.append({"workload": m[1], "seed": int(m[2]), "trace": int(m[3])})
            continue
        m = STAMP.match(line)
        if m and tables:
            tables[-1].update(build_type=m[1], cpus=int(m[2]), git=m[3].strip())
    if not tables:
        raise ValueError("no perfbench table header in the report")
    # A --workload all summary prefixes each metric with its workload.
    prefixed = len(tables) > 1
    for t in tables:
        names = TRACED if t["trace"] else END_TO_END
        prefix = f"{t['workload']}." if prefixed else ""
        missing = [n for n in names if prefix + n not in summary["metrics"]]
        if missing or "git" not in t:
            raise ValueError(f"{t['workload']}: table without {missing or 'stamp line'}")
        t["metrics"] = {n: summary["metrics"][prefix + n]["value"] for n in names}
    return tables


def rows_from(tables, date):
    """Merges the tables into one row per (git, workload, seed), in report order."""
    rows = {}
    for t in tables:
        key = (t["git"], t["workload"], t["seed"])
        row = rows.setdefault(key, {})
        kind = "traced" if t["trace"] else "untraced"
        if kind in row:
            raise ValueError(f"{t['workload']} seed {t['seed']} at {t['git']}: "
                             f"two {kind} tables")
        row[kind] = t
    out = []
    for (git, workload, seed), row in rows.items():
        if "untraced" not in row:
            raise ValueError(f"{workload}: no end-to-end (--trace 0) table")
        t = row["untraced"]
        out.append({"git": git, "date": date, "cpus": t["cpus"],
                    "build_type": t["build_type"], "workload": workload, "seed": seed,
                    **t["metrics"], **row.get("traced", {}).get("metrics", {})})
    return out


def run_all():
    """Runs every workload through perfbench/run.py; returns its stdout."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "all",
         "--seed", "1", "--seconds", "30"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout


def dirty():
    try:
        out = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                             capture_output=True, text=True, check=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return False
    return bool(out.stdout.strip())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("reports", nargs="*", help="saved perfbench/run.py outputs")
    ap.add_argument("--run", action="store_true",
                    help="run perfbench/run.py --workload all --seed 1 --seconds 30 "
                         "instead of reading reports")
    ap.add_argument("--history", default=HISTORY)
    args = ap.parse_args()
    if args.run == bool(args.reports):
        ap.error("give either report files or --run")

    try:
        if args.run:
            tables = parse_report(run_all())
            if dirty():
                for t in tables:
                    t["git"] += "-dirty"
        else:
            tables = []
            for path in args.reports:
                with open(path) as f:
                    tables += parse_report(f.read())
        date = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        rows = rows_from(tables, date)
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        print(f"perf_history: {e}; nothing written", file=sys.stderr)
        return 1

    with open(args.history, "a") as f:
        for row in rows:
            line = json.dumps(row)
            f.write(line + "\n")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
