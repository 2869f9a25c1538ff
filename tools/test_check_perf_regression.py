"""Unit tests for check_perf_regression.py.

Run: python3 -m unittest discover -s tools -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import tempfile
import unittest

import check_perf_regression as gate


def row(threads, wall_ms, planarize_ms, hardware_threads=4, n=50_000):
    return {
        "bench": "engine_scaling",
        "mode": "single",
        "n": n,
        "threads": threads,
        "hardware_threads": hardware_threads,
        "wall_ms": wall_ms,
        "stages": {
            "total_ms": wall_ms,
            "stages": [
                {"name": "ldel", "wall_ms": wall_ms / 4, "items": 1, "threads": threads},
                {"name": "planarize", "wall_ms": planarize_ms, "items": 1, "threads": threads},
            ],
        },
    }


class GateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, rows):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            for r in rows:
                fh.write(json.dumps(r) + "\n")
        return path

    def run_gate(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = gate.main(list(argv))
        return code, out.getvalue()


class ScalingTest(GateTest):
    def test_pass_when_more_lanes_are_faster(self):
        path = self.write(
            "run.json",
            [row(1, 1000, 300), row(2, 650, 160), row(4, 400, 90),
             row(1, 980, 290)],  # a second pass: best-of takes the min
        )
        code, out = self.run_gate("--scaling", path)
        self.assertEqual(code, 0, out)
        self.assertNotIn("FAIL", out)
        self.assertIn("threads=1 980.0 ms", out)

    def test_fail_when_a_stage_loses_to_one_lane(self):
        # The whole build still scales; planarize at 2 lanes is 30% slower.
        path = self.write("run.json", [row(1, 1000, 300), row(2, 900, 390), row(4, 600, 100)])
        code, out = self.run_gate("--scaling", path)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL n=50000 planarize: threads=1 300.0 ms, threads=2 390.0 ms", out)

    def test_skip_thread_counts_above_the_hardware(self):
        # Two hardware threads: threads=4 is slower but skipped with the
        # reason; threads=2 is still checked.
        path = self.write(
            "run.json",
            [row(1, 1000, 300, 2), row(2, 700, 170, 2), row(4, 1500, 500, 2)],
        )
        code, out = self.run_gate("--scaling", path)
        self.assertEqual(code, 0, out)
        self.assertIn("SKIP n=50000 threads=4: hardware_threads=2 < 4", out)
        self.assertIn("OK n=50000 planarize: threads=1 300.0 ms, threads=2 170.0 ms", out)

    def test_missing_thread_count_is_malformed_input(self):
        path = self.write("run.json", [row(1, 1000, 300)])
        code, out = self.run_gate("--scaling", path)
        self.assertEqual(code, 2, out)


class BaselineTest(GateTest):
    def test_single_thread_regression_fails(self):
        base = self.write("base.json", [row(1, 1000, 300)])
        fast = self.write("fast.json", [row(1, 1100, 300)])
        slow = self.write("slow.json", [row(1, 1200, 300)])
        self.assertEqual(self.run_gate(base, fast)[0], 0)
        self.assertEqual(self.run_gate(base, slow)[0], 1)


if __name__ == "__main__":
    unittest.main()
