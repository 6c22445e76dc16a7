#!/usr/bin/env python3
"""Smoke-size self-test of the end-to-end benchmark.

    python3 e2ebench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny scale and checks that an
untraced run prints every end-to-end metric, and a traced run every
per-layer metric, by name with its unit. It also checks that a planted
output mismatch fails the run.
"""
import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, *extra):
    command = [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload",
               workload, "--seed", "7", "--seconds", "0.2", "--trace",
               str(trace), "--scale", "0.02", *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]),
                         [metric["name"] for metric in expected])
        for metric in expected:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(printed["value"]), metric["name"])

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, expected in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    code, result = run_bench(workload["name"], trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, expected)

    def test_planted_mismatch_fails_the_run(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                code, result = run_bench(workload["name"], 0,
                                         "--plant-mismatch")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
