#!/usr/bin/env python3
"""Self-tests of the benchmark: metric extraction and the correctness gate
on a fixture report, and replay-equals-CLI on a tiny instance of every
workload (these build the CLI and pg_replay first, as run.py does).

    python3 perfbench/test_perfbench.py [-v]
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "report.csv"


class FixtureReport(unittest.TestCase):
    """fixtures/report.csv: rows 0-3 pass; row 4 is infeasible, row 5
    failed, row 6 unverified, row 7 smaller than its exact optimum."""

    def setUp(self):
        self.rows = run.parse_report(FIXTURE.read_text())

    def test_metric_extraction(self):
        m = run.report_metrics(self.rows)
        self.assertEqual(m["rows"], 8)
        self.assertEqual(m["rounds"], 152)
        self.assertEqual(m["messages"], 4180)
        self.assertEqual(m["total_bits"], 46595)
        # Row 5 has no baseline ("-") and is left out of both means.
        self.assertAlmostEqual(m["ratio_mean"], 7.9001 / 7)
        self.assertAlmostEqual(m["ratio_weight_mean"], 7.7334 / 7)

    def test_fail_counting(self):
        reasons = [run.row_failure(r) for r in self.rows]
        self.assertEqual(reasons[:4], ["", "", "", ""])
        self.assertEqual(reasons[4], "infeasible")
        self.assertEqual(reasons[5], "status=failed")
        self.assertEqual(reasons[6], "status=unverified")
        self.assertEqual(reasons[7], "smaller than the exact optimum")
        self.assertEqual(run.fail_count(self.rows), 4)
        self.assertEqual(run.report_metrics(self.rows)["fail_frac"], 0.5)

    def test_uncertified_ok_row_fails(self):
        row = dict(self.rows[0], certified="no")
        self.assertEqual(run.row_failure(row), "not certified")

    def test_check_report_counts_cells(self):
        self.assertEqual(len(run.check_report(self.rows, 8)), 4)
        problems = run.check_report(self.rows, 9)
        self.assertEqual(len(problems), 5)
        self.assertIn("expected cells 0..8", problems[0])

    def test_compare_replay(self):
        self.assertEqual(run.compare_replay(self.rows, self.rows), [])
        other = [dict(r) for r in self.rows]
        other[3]["rounds"] = "30"
        self.assertEqual(run.compare_replay(self.rows, other),
                         ["cell 3: rounds CLI 29 replay 30"])
        self.assertEqual(len(run.compare_replay(self.rows, other[:7])), 1)


class ExpectedCells(unittest.TestCase):
    REGISTRY = {  # name -> (native-r, uses eps, uses weights)
        "clique-mvc": ("2", True, False), "gr-mvc": ("any", True, False),
        "gr-mwvc": ("any", True, True), "matching": ("1", False, False),
        "mds": ("2", False, False), "mvc": ("2", True, False),
        "mvc-rand": ("2", True, False), "mvc53": ("2", False, False),
        "mwvc": ("2", True, True), "naive-mds": ("2", False, False),
        "naive-mvc": ("2", False, False)}

    def test_grid_sizes(self):
        w = run.WORKLOADS
        # 42 cells per (scenario, n, seed) group; 8 x 2 x 24 groups.
        self.assertEqual(run.expected_cells(w["conformance-grid"],
                                            self.REGISTRY), 42 * 8 * 2 * 24)
        self.assertEqual(run.expected_cells(w["congest-g2"], self.REGISTRY),
                         5 * 2 * 8)
        # gr-mvc once and gr-mwvc per weighting, at r = 2 and 3.
        self.assertEqual(run.expected_cells(w["implicit-file"], self.REGISTRY),
                         6)

    def test_seeds_are_disjoint(self):
        w = run.WORKLOADS["conformance-grid"]
        self.assertFalse(set(w.seeds(1)) & set(w.seeds(2)))
        self.assertEqual(w.seeds(3), w.seeds(3))


class BenchmarkJson(unittest.TestCase):
    def test_names_and_units_match_run_py(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        counts = dict.fromkeys(
            ["congest_algorithm_s", "binds", "max_buffer_bytes",
             "import_edges", "power_edges", "exact_calls", "greedy_calls",
             "report_bytes"], 1)
        names = run.layer_metrics(
            {"self_s": {}, "counts": counts, "sweep_layers_s": 0.0}, 1.0, 1.0,
            {"rounds": 1, "messages": 1, "total_bits": 1, "fail_frac": 0.0})
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(names))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.LAYER_UNITS.get(m["name"], "s"))


class TinyReplay(unittest.TestCase):
    """The traced replay reproduces the CLI's report on a small instance of
    each workload, and the CLI's rows pass the gate."""

    @classmethod
    def setUpClass(cls):
        run.OUT_ROOT.mkdir(exist_ok=True)
        cls.cli, cls.replay = run.build()
        cls.registry = run.algorithm_registry(cls.cli)

    def check_workload(self, name):
        workload = run.WORKLOADS[name].tiny()
        prep = run.prepare(workload, 7, self.cli, self.replay)
        cli_report = prep.out / "report.csv"
        stats = run.cli_sweep(self.cli, self.replay, prep, cli_report)
        self.assertEqual(stats.returncode, 0, stats.stderr)
        self.assertGreater(stats.wall_s, 0.0)
        self.assertGreater(stats.peak_rss_mb, 0.0)
        cli_rows = run.parse_report(cli_report.read_text())
        self.assertEqual(
            run.check_report(cli_rows,
                             run.expected_cells(workload, self.registry)), [])

        replay_report = prep.out / "replay.csv"
        trace = prep.out / "trace.json"
        cmd = [str(self.replay), "replay", *prep.flags,
               "--csv", str(replay_report), "--trace", str(trace)]
        if prep.import_text:
            cmd += ["--import", prep.import_text]
        summary = json.loads(run.run_checked(cmd).stdout)
        self.assertEqual(replay_report.read_text(), cli_report.read_text())
        self.assertEqual(
            run.compare_replay(cli_rows,
                               run.parse_report(replay_report.read_text())), [])
        self.assertEqual(summary["counts"]["rows"], len(cli_rows))
        events = json.loads(trace.read_text())["traceEvents"]
        self.assertEqual(len(events), summary["spans"])
        self.assertTrue(all(e["ph"] == "X" and e["dur"] >= 0 for e in events))
        return summary

    def test_congest_g2(self):
        summary = self.check_workload("congest-g2")
        self.assertGreater(summary["counts"]["rounds"], 0)

    def test_implicit_file(self):
        summary = self.check_workload("implicit-file")
        self.assertEqual(summary["counts"]["rounds"], 0)
        self.assertGreater(summary["counts"]["import_edges"], 0)

    def test_conformance_grid(self):
        summary = self.check_workload("conformance-grid")
        self.assertGreater(summary["counts"]["exact_calls"], 0)

    def test_stamp_marks_oversubscription(self):
        cores = run.stamp(run.WORKLOADS["congest-g2"], self.replay)["nproc"]
        too_many = dataclasses.replace(run.WORKLOADS["congest-g2"],
                                       congest_threads=cores + 1)
        context = run.stamp(too_many, self.replay)
        self.assertFalse(context["valid"])
        self.assertEqual(context["requested_threads"], cores + 1)
        self.assertTrue(run.stamp(run.WORKLOADS["congest-g2"],
                                  self.replay)["valid"])


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        """With only BENCHMARK.json and perfbench/: exit non-zero, no result."""
        bare = run.OUT_ROOT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "congest-g2",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("correct", done.stdout)


if __name__ == "__main__":
    unittest.main()
