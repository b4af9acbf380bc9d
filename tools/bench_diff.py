#!/usr/bin/env python3
"""Bench-regression gate: diff bench/sweep artifacts against committed baselines.

Reads a gates file (bench/baselines/gates.json) listing checks of four types:

  compare    Walk an artifact and its committed baseline in parallel.
             Structure (keys, array lengths, value types) must match
             exactly; strings and bools must be equal; numeric leaves named
             in `exact_leaves` must be equal; numbers under a subtree named
             in `timing_subtrees` are structure-checked only (wall-clock
             values are machine-dependent); all other numbers must agree
             within `num_rel_tol` / `num_abs_tol` (physics outcomes drift
             slightly across libm versions, so exactness is reserved for
             machine-independent fields like seeds and indices).
  flag       A boolean at a dotted path in an artifact must equal `expect`.
             Used for the in-run determinism verdict (1 vs 8 threads
             bit-identical), which is machine-independent.
  threshold  A number at a dotted path must be >= `min` and/or <= `max`
             (at least one bound required).  With `cpu_scaled`, the lower
             bound becomes min(`min`, factor * cpus) where cpus is read
             from the artifact: a 2-core runner cannot show a 3x thread
             speedup and should not fail for lacking hardware.  Upper
             bounds suit sim-time latencies (failover, reconvergence),
             which are machine-independent.
  ratio      In a google-benchmark JSON artifact, benchmark `numerator`'s
             `field` divided by benchmark `denominator`'s must be >= `min`.
             In-run ratios (two arms of one optimization in the same
             binary) are the machine-independent way to gate it.

Exit code 0 iff every check passes.  A markdown report is always written
(--report), so CI can upload it as an artifact even on failure.  With
--markdown PATH a compact one-row-per-gate table (gate, value, bound,
result) is also written — CI appends it to $GITHUB_STEP_SUMMARY so the gate
outcome is readable without downloading artifacts.

Refreshing baselines after an intended change:
  python3 tools/bench_diff.py --gates bench/baselines/gates.json \
      --artifact-dir build/bench --update-baselines
"""

import argparse
import json
import os
import sys


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def dotted(obj, path):
    cur = obj
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            raise KeyError(f"path '{path}' not found (missing '{part}')")
        cur = cur[part]
    return cur


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_trees(art, base, opts, path, errors):
    """Recursive structural diff; appends human-readable errors."""
    if len(errors) > opts["max_errors"]:
        return
    in_timing = False
    for t in opts["timing_subtrees"]:
        if path == t or path.startswith(t + ".") or path.startswith(t + "["):
            in_timing = True
            opts["seen_timing"].add(t)
    if isinstance(base, dict):
        if not isinstance(art, dict):
            errors.append(f"{path or '$'}: expected object, got {type(art).__name__}")
            return
        for k in sorted(base.keys() | art.keys()):
            sub = f"{path}.{k}" if path else k
            if k not in art:
                errors.append(f"{sub}: missing from artifact")
            elif k not in base:
                errors.append(f"{sub}: not in baseline (unexpected key)")
            else:
                compare_trees(art[k], base[k], opts, sub, errors)
    elif isinstance(base, list):
        if not isinstance(art, list):
            errors.append(f"{path}: expected array, got {type(art).__name__}")
            return
        if len(art) != len(base):
            errors.append(f"{path}: length {len(art)} != baseline {len(base)}")
            return
        for i, (a, b) in enumerate(zip(art, base)):
            compare_trees(a, b, opts, f"{path}[{i}]", errors)
    elif is_number(base):
        leaf = path.rsplit(".", 1)[-1].split("[")[0]
        if leaf in opts["exact_leaves"]:
            opts["seen_exact"].add(leaf)
        if not is_number(art):
            errors.append(f"{path}: expected number, got {type(art).__name__}")
        elif in_timing:
            pass  # machine-dependent wall-clock value: structure only
        else:
            if leaf in opts["exact_leaves"]:
                if art != base:
                    errors.append(f"{path}: {art} != baseline {base} (exact field)")
            else:
                diff = abs(art - base)
                scale = max(abs(art), abs(base))
                if diff > opts["num_abs_tol"] and diff > opts["num_rel_tol"] * scale:
                    errors.append(
                        f"{path}: {art} vs baseline {base} "
                        f"(rel {diff / scale:.3g} > {opts['num_rel_tol']})"
                    )
    else:
        # Non-numeric leaf (string/bool/null): always compared exactly, but
        # still counts as sighting its name for the referenced-metric audit.
        leaf = path.rsplit(".", 1)[-1].split("[")[0]
        if leaf in opts["exact_leaves"]:
            opts["seen_exact"].add(leaf)
        if art != base:
            errors.append(f"{path}: {art!r} != baseline {base!r}")


def bench_entry(gb_json, name):
    for b in gb_json.get("benchmarks", []):
        if b.get("name") == name:
            return b
    raise KeyError(f"benchmark '{name}' not found in artifact")


def run_check(check, args):
    """Returns (ok, detail_lines, (value_str, bound_str)) — the last pair
    feeds the --markdown gate table."""
    kind = check["type"]
    art_path = os.path.join(args.artifact_dir, check["artifact"])
    if not os.path.exists(art_path):
        return False, [f"artifact not found: {art_path}"], ("missing", "artifact present")
    art = load_json(art_path)

    if kind == "compare":
        base_path = os.path.join(args.baseline_dir, check["baseline"])
        if args.update_baselines:
            with open(art_path, "rb") as src, open(base_path, "wb") as dst:
                dst.write(src.read())
            return True, [f"baseline refreshed from {art_path}"], \
                ("refreshed", check["baseline"])
        if not os.path.exists(base_path):
            return False, [f"baseline not found: {base_path}"], \
                ("missing", "baseline present")
        base = load_json(base_path)
        opts = {
            "exact_leaves": set(check.get("exact_leaves", [])),
            "timing_subtrees": check.get("timing_subtrees", []),
            "num_rel_tol": check.get("num_rel_tol", args.num_rel_tol),
            "num_abs_tol": check.get("num_abs_tol", args.num_abs_tol),
            "max_errors": 20,
            "seen_exact": set(),
            "seen_timing": set(),
        }
        errors = []
        compare_trees(art, base, opts, "", errors)
        # A gate naming a metric that exists in NEITHER tree would otherwise
        # pass silently forever — e.g. after an artifact field is renamed but
        # the gate is not.  (Present-in-one-only is already a structural
        # error above.)  Make the dangling reference itself a hard failure.
        for leaf in sorted(opts["exact_leaves"] - opts["seen_exact"]):
            errors.append(
                f"gate error: exact_leaves entry '{leaf}' matches no leaf in "
                f"either artifact or baseline — remove it or fix the artifact"
            )
        for t in check.get("timing_subtrees", []):
            if t not in opts["seen_timing"]:
                errors.append(
                    f"gate error: timing_subtrees entry '{t}' matches no path "
                    f"in either artifact or baseline — remove it or fix the artifact"
                )
        bound = f"matches {check['baseline']}"
        if errors:
            return False, errors[:20], (f"{len(errors)}+ diffs", bound)
        return True, [f"matches {base_path}"], ("identical-within-tol", bound)

    if kind == "flag":
        value = dotted(art, check["path"])
        ok = value == check["expect"]
        return ok, [f"{check['path']} = {value} (expect {check['expect']})"], \
            (str(value), f"== {check['expect']}")

    if kind == "threshold":
        value = dotted(art, check["metric"])
        ok = True
        bounds = []
        if "min" in check:
            required = check["min"]
            note = ""
            scaled = check.get("cpu_scaled")
            if scaled:
                cpus = dotted(art, scaled["cpus_path"])
                required = min(scaled.get("cap", required), scaled["factor"] * cpus)
                note = f" (cpu-scaled: {cpus} cpus -> required {required:.2f})"
            ok = ok and value >= required
            bounds.append(f">= {required:.2f}{note}")
        if "max" in check:
            ok = ok and value <= check["max"]
            bounds.append(f"<= {check['max']:.2f}")
        if not bounds:
            return False, ["threshold check needs 'min' and/or 'max'"], \
                ("?", "min/max given")
        bound = " and ".join(bounds)
        return ok, [f"{check['metric']} = {value:.3f}, required {bound}"], \
            (f"{value:.3f}", bound)

    if kind == "ratio":
        num = bench_entry(art, check["numerator"])[check["field"]]
        den = bench_entry(art, check["denominator"])[check["field"]]
        ratio = num / den if den else float("inf")
        ok = ratio >= check["min"]
        return ok, [
            f"{check['numerator']} / {check['denominator']} "
            f"({check['field']}) = {ratio:.3f}, required >= {check['min']}"
        ], (f"{ratio:.3f}", f">= {check['min']}")

    return False, [f"unknown check type '{kind}'"], ("?", "known check type")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gates", required=True, help="gates.json path")
    ap.add_argument("--artifact-dir", default=".", help="where fresh artifacts live")
    ap.add_argument("--baseline-dir", default=None,
                    help="committed baselines (default: directory of --gates)")
    ap.add_argument("--report", default="bench_diff_report.md")
    ap.add_argument("--markdown", default=None, metavar="PATH",
                    help="also write a one-row-per-gate summary table "
                         "(gate, value, bound, result) — the shape CI appends "
                         "to $GITHUB_STEP_SUMMARY")
    ap.add_argument("--num-rel-tol", type=float, default=0.35,
                    help="default relative tolerance for non-exact numbers")
    ap.add_argument("--num-abs-tol", type=float, default=0.1,
                    help="absolute tolerance floor for near-zero numbers")
    ap.add_argument("--update-baselines", action="store_true",
                    help="copy fresh artifacts over the baselines instead of diffing")
    args = ap.parse_args()
    if args.baseline_dir is None:
        args.baseline_dir = os.path.dirname(os.path.abspath(args.gates))

    gates = load_json(args.gates)
    lines = ["# Bench regression report", ""]
    rows = []
    failures = 0
    for check in gates["checks"]:
        try:
            ok, details, row = run_check(check, args)
        except Exception as e:  # malformed artifact counts as failure
            ok, details, row = False, [f"error: {e}"], ("error", "")
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        name = check.get("name", check["type"])
        rows.append((name, row[0], row[1], status))
        lines.append(f"## {status}: {name}")
        lines.extend(f"- {d}" for d in details)
        lines.append("")
        print(f"[{status}] {name}: {details[0]}")
        for d in details[1:]:
            print(f"         {d}")

    lines.append(f"**{len(gates['checks']) - failures}/{len(gates['checks'])} checks passed.**")
    with open(args.report, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    print(f"report written to {args.report}")

    if args.markdown:
        md = ["| gate | value | bound | result |", "|---|---|---|---|"]
        md.extend(f"| {n} | {v} | {b} | {s} |" for n, v, b, s in rows)
        md.append("")
        md.append(f"**{len(gates['checks']) - failures}/{len(gates['checks'])}"
                  " checks passed.**")
        with open(args.markdown, "w", encoding="utf-8") as f:
            f.write("\n".join(md) + "\n")
        print(f"gate table written to {args.markdown}")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
