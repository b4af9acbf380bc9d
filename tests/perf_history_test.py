#!/usr/bin/env python3
"""Unit tests for tools/perf_history.py, run under ctest.

The tool turns saved perfbench/run.py reports into rows of the committed
perf trajectory.  These tests feed it canned reports; they never run the
benchmark.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TOOL = os.path.join(ROOT, "tools", "perf_history.py")
SHA = "23d08773484226943926609059cc009faa3bbb1e"
OTHER_SHA = "0b86270f1e2d3c4b5a69788796a5b4c3d2e1f0a9"

# One canned median per end-to-end metric of the benchmark's contract.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    END_TO_END = {m["name"]: 0.5 + i
                  for i, m in enumerate(json.load(_f)["end_to_end"])}
TRACED = {"sim.events": 4152503, "sim.events_per_s": 6.1e6}


def table(workload, trace, seed=1, sha=SHA):
    return (f"perfbench workload={workload} seed={seed} seconds=30 trace={trace}\n"
            f"  build_type=Release compiler=GNU 12.2.0 nproc=4 git={sha}\n"
            f"  metric                             unit         median   high pct    n\n")


def summary(metrics, correct=True):
    return json.dumps({"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                       "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}})


def run_tool(tmp, *reports):
    """Writes each report to a file, runs the tool; returns (exit, rows)."""
    paths = []
    for i, text in enumerate(reports):
        paths.append(os.path.join(tmp, f"report{i}.txt"))
        with open(paths[-1], "w") as f:
            f.write(text)
    history = os.path.join(tmp, "history.jsonl")
    proc = subprocess.run([sys.executable, TOOL, *paths, "--history", history],
                          capture_output=True, text=True)
    rows = []
    if os.path.exists(history):
        with open(history) as f:
            rows = [json.loads(line) for line in f]
    return proc.returncode, rows


class PerfHistoryTest(unittest.TestCase):
    def test_single_workload_reports_make_one_row(self):
        untraced = table("fig3_lfa", 0) + summary(END_TO_END) + "\n"
        traced = table("fig3_lfa", 1) + summary(TRACED) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            code, rows = run_tool(tmp, untraced, traced)
        self.assertEqual(code, 0)
        self.assertEqual(len(rows), 1)
        row = rows[0]
        self.assertEqual(list(row), ["git", "date", "cpus", "build_type", "workload", "seed",
                                     *END_TO_END, *TRACED])
        self.assertEqual(row["git"], SHA)
        self.assertRegex(row["date"], r"^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ$")
        self.assertEqual((row["cpus"], row["build_type"]), (4, "Release"))
        self.assertEqual((row["workload"], row["seed"]), ("fig3_lfa", 1))
        for name, value in {**END_TO_END, **TRACED}.items():
            self.assertEqual(row[name], value, name)

    def test_untraced_report_alone_has_no_event_counts(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, rows = run_tool(tmp, table("ring_tcp", 0) + summary(END_TO_END))
        self.assertEqual(code, 0)
        self.assertEqual(rows[0]["run_s"], END_TO_END["run_s"])
        self.assertNotIn("sim.events", rows[0])

    def test_workload_all_report_gives_a_row_per_workload(self):
        # run.py --workload all: every untraced table, then every traced one,
        # and one summary whose metric names carry the workload prefix.
        workloads = ("fig3_lfa", "syn_flood")
        text = "".join(table(w, 0) for w in workloads)
        text += "".join(table(w, 1) for w in workloads)
        metrics = {}
        for i, w in enumerate(workloads):
            for name, value in {**END_TO_END, **TRACED}.items():
                metrics[f"{w}.{name}"] = value + i
        with tempfile.TemporaryDirectory() as tmp:
            code, rows = run_tool(tmp, text + summary(metrics))
        self.assertEqual(code, 0)
        self.assertEqual([r["workload"] for r in rows], list(workloads))
        self.assertEqual(rows[1]["run_s"], END_TO_END["run_s"] + 1)
        self.assertEqual(rows[1]["sim.events"], TRACED["sim.events"] + 1)
        self.assertNotIn("traced", rows[1])

    def test_reports_of_two_trees_keep_a_row_each(self):
        # The same workload and seed measured on a parent and on a change:
        # each tree's untraced and traced tables stay together in its row.
        def report(sha, bump):
            e2e = {k: v + bump for k, v in END_TO_END.items()}
            traced = {k: v + bump for k, v in TRACED.items()}
            return (table("fig3_lfa", 0, sha=sha) + summary(e2e) + "\n",
                    table("fig3_lfa", 1, sha=sha) + summary(traced) + "\n")
        with tempfile.TemporaryDirectory() as tmp:
            code, rows = run_tool(tmp, *report(OTHER_SHA, 0), *report(SHA, 1))
        self.assertEqual(code, 0)
        self.assertEqual([r["git"] for r in rows], [OTHER_SHA, SHA])
        self.assertEqual(rows[0]["run_s"], END_TO_END["run_s"])
        self.assertEqual(rows[0]["sim.events"], TRACED["sim.events"])
        self.assertEqual(rows[1]["run_s"], END_TO_END["run_s"] + 1)
        self.assertEqual(rows[1]["sim.events"], TRACED["sim.events"] + 1)

    def test_two_untraced_tables_of_one_tree_write_nothing(self):
        report = table("fig3_lfa", 0) + summary(END_TO_END)
        with tempfile.TemporaryDirectory() as tmp:
            code, rows = run_tool(tmp, report, report)
        self.assertNotEqual(code, 0)
        self.assertEqual(rows, [])

    def test_rows_are_appended(self):
        report = table("ring_tcp", 0) + summary(END_TO_END)
        with tempfile.TemporaryDirectory() as tmp:
            run_tool(tmp, report)
            code, rows = run_tool(tmp, report)
        self.assertEqual(code, 0)
        self.assertEqual(len(rows), 2)

    def test_failed_run_writes_nothing(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, rows = run_tool(tmp, table("fig3_lfa", 0) + summary(END_TO_END, False))
        self.assertNotEqual(code, 0)
        self.assertEqual(rows, [])

    def test_traced_table_without_untraced_one_writes_nothing(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, rows = run_tool(tmp, table("fig3_lfa", 1) + summary(TRACED))
        self.assertNotEqual(code, 0)
        self.assertEqual(rows, [])

    def test_report_without_table_header_writes_nothing(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, rows = run_tool(tmp, summary(END_TO_END))
        self.assertNotEqual(code, 0)
        self.assertEqual(rows, [])


if __name__ == "__main__":
    unittest.main()
