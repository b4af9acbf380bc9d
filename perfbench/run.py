#!/usr/bin/env python3
"""The simulator's benchmark: builds the driver, runs one workload, reports.

    python3 perfbench/run.py --workload <fig3_lfa|syn_flood|ring_tcp> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root.  The driver is built in Release from the
library sources into .bench_build/ (the first run builds; later runs only
check that the build is current).  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics from traced runs.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; everything before it is the human-readable report.
The exit code is non-zero, with no JSON line, when the build or the driver
fails.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import highest_percentile, median, valid_metric_name  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

# Workload and metric names, and the metrics' units, come from the
# benchmark's contract file.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _CONTRACT = json.load(_f)
WORKLOADS = tuple(w["name"] for w in _CONTRACT["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}

# The driver's own limit on top of --seconds: set-up samples, the run that
# is in flight when the window closes, and the traced extras.
DRIVER_SLACK_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def fmt(v):
    return f"{v:.6g}"


def report(workload, seed, seconds, trace, raw, names):
    """Prints the table and returns {name: {value, unit}} of medians."""
    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print(f"  build_type={raw['build_type']} compiler={raw['compiler']} "
          f"nproc={os.cpu_count()} git={git_sha()}")
    if raw["build_type"] != "Release":
        print(f"  WARNING: {raw['build_type']} build; reported timings are Release numbers")
    print(f"  {'metric':34} {'unit':6} {'median':>12} {'high pct':>20} {'n':>4}")
    metrics = {}
    for name, unit in names.items():
        samples = raw["samples"][name]
        value = median(samples)
        hp = highest_percentile(samples)
        hp_text = f"p{hp[0]:g}={fmt(hp[1])}" if hp else "-"
        print(f"  {name:34} {unit:6} {fmt(value):>12} {hp_text:>20} {len(samples):>4}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(workload, seed, seconds, trace):
    """Runs the driver once and prints its report.

    Returns the result object, or None when the driver failed."""
    names = PER_LAYER if trace else END_TO_END
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=seconds + DRIVER_SLACK_S)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        return None
    raw = json.loads(proc.stdout)
    if trace:
        raw["samples"]["telemetry.trace_overhead"] = [
            median(raw["traced_run_s"]) / median(raw["untraced_run_s"])]
    missing = [n for n in names if n not in raw["samples"]]
    if missing:
        log(f"driver reported no samples for {missing}")
        return None

    metrics = report(workload, seed, seconds, trace, raw, names)
    if not trace:
        print(f"  unscaled wall time: run_s {fmt(median(raw['raw_run_s']))} s, "
              f"setup_s {fmt(median(raw['raw_setup_s']))} s; reference kernel "
              f"{fmt(median(raw['ref_s']))} s (nominal {fmt(raw['ref_nominal_s'])} s)")
    failures = raw["failures"]
    for f in failures:
        print(f"  FAILED RUN: {f}")
    if trace:
        trace_path = os.path.join(BUILD_DIR, f"trace-{workload}-seed{seed}.json")
        with open(trace_path, "w") as f:
            json.dump({k: raw[k] for k in ("spans", "walk_ns_by_switch_slice",
                                           "untraced_run_s", "traced_run_s")}, f)
        print(f"  spans and per-(switch, slice) walk times: {os.path.relpath(trace_path, ROOT)}")
    return {
        "correct": not failures,
        "attempted": raw["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs every workload untraced, then traced")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics, 1: per-layer metrics")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload != "all" and args.trace is None:
        ap.error("--trace is required for a single workload")

    bad = [n for n in list(END_TO_END) + list(PER_LAYER) if not valid_metric_name(n)]
    if bad:
        log(f"invalid metric names: {bad}")
        return 2

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 2
        print(json.dumps(result))
        return 0

    # Every workload's end-to-end table, then every per-layer table; the
    # summary line prefixes each metric with its workload.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for workload in WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, trace)
            if result is None:
                return 2
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
