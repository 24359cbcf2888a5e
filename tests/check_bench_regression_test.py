#!/usr/bin/env python3
"""Tests for tools/check_bench_regression.py on crafted baseline/current pairs.

Runs the gate script as CI does (a subprocess with --suite/--current and a
--baseline-dir) and checks its exit status and report:

  * a missing baseline fails with one line naming the path and --update;
  * a row absent from the current run is one MISSING failure, and the
    remaining rows' wall-time shares are not skewed by it;
  * identical runs pass, and a real share growth is still caught.

Registered with ctest as check_bench_regression_test.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "check_bench_regression.py")


def service_row(scenario, wall_ms, hit_rate=1.0, solves=0):
    return {"scenario": scenario, "wall_ms": wall_ms, "hit_rate": hit_rate,
            "solves": solves, "spearman_min_vs_direct": 1.0}


# Shaped like a SPECTRAL_FAULTS=ON service baseline: the degraded row holds
# more than half of the suite's wall time.
BASELINE = [
    service_row("cold", 160.0, hit_rate=0.94, solves=24),
    service_row("warm", 4.5),
    service_row("warm_restart", 5.0),
    service_row("degraded", 195.0, hit_rate=0.935, solves=26),
]


class GateTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory(prefix="gate_test_")
        self.root = self._dir.name

    def tearDown(self):
        self._dir.cleanup()

    def write(self, relpath, rows):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(rows, f)
        return path

    def gate(self, current_rows, baseline_rows=None):
        """Runs the service-suite gate; returns (exit code, output lines)."""
        if baseline_rows is not None:
            self.write(os.path.join("bench_results",
                                    "BENCH_service_traffic.json"),
                       baseline_rows)
        current = self.write("current.json", current_rows)
        proc = subprocess.run(
            [sys.executable, GATE, "--suite", "service", "--current", current,
             "--baseline-dir", self.root],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return proc.returncode, [l for l in proc.stdout.splitlines() if l]

    def test_missing_baseline_is_one_line(self):
        code, lines = self.gate(BASELINE)
        self.assertNotEqual(code, 0)
        self.assertEqual(len(lines), 1, lines)
        self.assertIn(os.path.join(self.root, "bench_results",
                                   "BENCH_service_traffic.json"), lines[0])
        self.assertIn("--update", lines[0])

    def test_missing_row_is_one_failure_and_no_share_failure(self):
        current = [row for row in BASELINE if row["scenario"] != "degraded"]
        code, lines = self.gate(current, BASELINE)
        self.assertEqual(code, 1)
        self.assertEqual(
            [l for l in lines if l.rstrip().endswith("MISSING")],
            [l for l in lines if l.startswith("degraded")])
        failures = [l for l in lines if l.startswith("  - ")]
        self.assertEqual(len(failures), 1, lines)
        self.assertIn("degraded: row missing", failures[0])
        self.assertFalse([l for l in lines if "REGRESSION" in l], lines)

    def test_identical_runs_pass(self):
        code, lines = self.gate(BASELINE, BASELINE)
        self.assertEqual(code, 0, lines)

    def test_share_growth_is_still_caught(self):
        current = [dict(row) for row in BASELINE]
        current[1]["wall_ms"] = 60.0  # warm: 1% -> 14% of the suite
        code, lines = self.gate(current, BASELINE)
        self.assertEqual(code, 1)
        failures = [l for l in lines if l.startswith("  - ")]
        self.assertEqual(len(failures), 1, lines)
        self.assertIn("warm: cold share", failures[0])


if __name__ == "__main__":
    unittest.main()
