#!/usr/bin/env python3
"""Render a human-readable hotspot report from a profiled telemetry export.

Input: a full telemetry JSON written with profiling enabled (e.g. the
TELEMETRY_fig3_prof.json companion artifact of bench_prof), whose "prof"
section carries the sampled attribution tree, exact per-site call counts
and event-queue occupancy.

Reading the numbers:
  - calls are exact (every site entry increments a flat counter);
  - est_ns estimates a tree node's total inclusive wall time as
    sampled_ns * min(stride, calls / samples of its top-level ancestor):
    each sample stands for the entries it was drawn from, so a site with
    fewer calls than the stride (the first entry always samples) is
    weighted by its calls, not by the stride;
  - a site entered below an un-sampled ancestor appears both as a
    top-level node and as a child node — the per-site rollup merges the
    two, the tree view keeps them apart.

Usage:
  python3 tools/prof_report.py build/TELEMETRY_fig3_prof.json [--top N]
"""

import argparse
import json
import sys


def fmt_ns(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:8.3f} s "
    if ns >= 1e6:
        return f"{ns / 1e6:8.3f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:8.3f} us"
    return f"{ns:8.0f} ns"


def bar(frac, width=24):
    n = int(round(frac * width))
    return "#" * n + "." * (width - n)


def leaf_site(path):
    return path.rsplit(".", 1)[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("export_json", help="full telemetry export with a prof section")
    ap.add_argument("--top", type=int, default=10, help="hotspot rows to show")
    args = ap.parse_args()

    with open(args.export_json, "r", encoding="utf-8") as f:
        doc = json.load(f)
    prof = doc.get("prof")
    if not prof:
        print(f"error: no 'prof' section in {args.export_json} — was the run "
              f"profiled (Profiler::Enable before attach) and exported with "
              f"include_prof?", file=sys.stderr)
        return 1

    stride = prof["stride"]
    tree = prof.get("tree", [])
    sites = {s["site"]: s["calls"] for s in prof.get("sites", [])}
    have_wall = any("est_ns" in n for n in tree)

    print(f"# Profiler report: {args.export_json}")
    print(f"stride {stride} (each sample stands for up to {stride} entries); "
          f"{len(tree)} tree nodes; "
          f"{sum(sites.values())} site entries recorded")
    if not have_wall:
        print("note: export omitted wall-clock fields (deterministic view); "
              "showing counts only")
    print()

    # ---- Per-site rollup: exact calls + merged est_ns across tree nodes ----
    rollup = {}
    for n in tree:
        s = leaf_site(n["path"])
        r = rollup.setdefault(s, {"samples": 0, "est_ns": 0.0})
        r["samples"] += n.get("samples", 0)
        r["est_ns"] += n.get("est_ns", 0) or 0
    for s, calls in sites.items():
        rollup.setdefault(s, {"samples": 0, "est_ns": 0.0})["calls"] = calls
    total_est = sum(r["est_ns"] for r in rollup.values()) or 1.0

    print("## Per-site rollup (merged across tree positions)")
    print(f"{'site':<16} {'calls':>12} {'samples':>9} {'est total':>12} "
          f"{'est/call':>10}  share")
    order = sorted(rollup.items(), key=lambda kv: -kv[1]["est_ns"])
    for s, r in order:
        calls = r.get("calls", 0)
        per = r["est_ns"] / calls if calls else 0.0
        print(f"{s:<16} {calls:>12} {r['samples']:>9} {fmt_ns(r['est_ns'])} "
              f"{per:>8.1f}ns  {bar(r['est_ns'] / total_est)}")
    print()

    # ---- Top-N hotspots by tree path (inclusive) ----
    print(f"## Top {args.top} hotspots (tree paths, inclusive est_ns)")
    hot = sorted(tree, key=lambda n: -(n.get("est_ns", 0) or 0))[: args.top]
    print(f"{'path':<44} {'samples':>9} {'est total':>12}  share")
    for n in hot:
        est = n.get("est_ns", 0) or 0
        print(f"{n['path']:<44} {n.get('samples', 0):>9} {fmt_ns(est)}  "
              f"{bar(est / total_est)}")
    print()

    # ---- Event-queue occupancy ----
    occ = prof.get("queue_occupancy", {})
    if occ.get("samples"):
        mean = occ.get("mean")
        mx = occ.get("max")
        print(f"## Event-queue occupancy: {occ['samples']} samples, "
              f"mean {mean:.1f}, max {mx:.0f} pending")
        print()

    # ---- Exporter self-measurement ----
    if have_wall and "export_ns" in prof:
        print(f"## Export serialization: {fmt_ns(prof['export_ns']).strip()} "
              f"(wall, non-prof sections)")
        print()

    return 0


if __name__ == "__main__":
    sys.exit(main())
