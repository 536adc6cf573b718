#!/usr/bin/env python3
"""Self-tests for the repository benchmark.

    python3 perfbench/selftest.py

Checks the tail-percentile helper, the metric names and units in
BENCHMARK.json, and runs a smoke size of every workload (untraced and
traced) through run.py: each must finish in seconds, pass its output
checks, and print every declared metric with its unit and direction.
"""

import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"
UNIT_RE = r"^[A-Za-z0-9_/%.-]{1,16}$"
SMOKE_LIMIT_S = 30.0


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        for n, want in [(0, None), (15, None), (20, 50.0), (91, 50.0),
                        (92, 90.0), (1000, 99.0), (10000, 99.9)]:
            with self.subTest(n=n):
                samples = [float(i) for i in range(n)]
                q, value, got_n = run.tail_percentile(samples)
                self.assertEqual((q, got_n), (want, n))
                if q is not None:
                    self.assertGreaterEqual(sum(1 for v in samples if v > value), 10)
                    higher = [p for p in run.TAIL_LADDER if p > q]
                    if higher:
                        above = run.percentile(samples, higher[0])
                        self.assertLess(sum(1 for v in samples if v > above), 10)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(run.percentile([0.0, 10.0], 90), 9.0)
        self.assertEqual(run.percentile([5.0], 99), 5.0)


class MetricNames(unittest.TestCase):
    def test_names_and_units(self):
        names = [w["name"] for w in BENCH["workloads"]]
        for section in ("end_to_end", "per_layer"):
            for e in BENCH[section]:
                names.append(e["name"])
                with self.subTest(metric=e["name"]):
                    self.assertRegex(e["name"], NAME_RE)
                    self.assertRegex(e["unit"], UNIT_RE)
                    self.assertIn(e["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_workloads_match_spec(self):
        self.assertEqual({w["name"] for w in BENCH["workloads"]},
                         set(run.SPEC["workloads"]))

    def test_setup_bound_is_largest(self):
        bounds = {e["name"]: e["bound"] for e in BENCH["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()  # so the timed smoke runs exclude compilation

    def check_output(self, workload, trace):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seconds", "0", "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        elapsed = time.monotonic() - t0
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertLess(elapsed, SMOKE_LIMIT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {e["name"] for e in declared})
        for e in declared:
            self.assertEqual(result["metrics"][e["name"]]["unit"], e["unit"])
            printed = [ln for ln in lines[:-1] if ln.split()[:1] == [e["name"]]]
            self.assertEqual(len(printed), 1, e["name"])
            self.assertIn(f" {e['unit']} ", printed[0])
            self.assertIn(f"{e['better']} is better", printed[0])

    def test_every_workload(self):
        for workload in sorted(run.SPEC["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_output(workload, trace)


if __name__ == "__main__":
    unittest.main()
