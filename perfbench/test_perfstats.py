"""Tests of the benchmark's own helpers. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import perfstats  # noqa: E402
from perfstats import MetricError  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def span(id_, parent, start, end, name="x", thread=0):
    return {"id": id_, "parent": parent, "start": start, "end": end, "name": name,
            "thread": thread, "items": 0}


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        with self.assertRaises(MetricError):
            perfstats.percentile(list(range(999)), 0.99)
        self.assertAlmostEqual(perfstats.percentile(list(range(1000)), 0.99), 989.01)

    def test_p95_needs_two_hundred_samples(self):
        with self.assertRaises(MetricError):
            perfstats.percentile(list(range(199)), 0.95)
        perfstats.percentile(list(range(200)), 0.95)

    def test_median_has_no_tail_requirement(self):
        self.assertEqual(perfstats.percentile([3.0, 1.0, 2.0], 0.5), 2.0)
        self.assertEqual(perfstats.percentile([1.0, 2.0], 0.5), 1.5)

    def test_interpolates_between_order_statistics(self):
        self.assertAlmostEqual(perfstats.percentile([10.0, 20.0, 30.0, 40.0, 50.0], 0.3), 22.0)

    def test_refuses_empty_and_out_of_range(self):
        with self.assertRaises(MetricError):
            perfstats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            perfstats.percentile([1.0], 1.0)


class StrictJsonTest(unittest.TestCase):
    def test_escapes_strings(self):
        text = perfstats.dumps_strict({'k"ey': 'a"b\\c\nd\te\x01fé'})
        self.assertEqual(text, r'{"k\"ey": "a\"b\\c\nd\te\u0001f\u00e9"}')
        self.assertEqual(json.loads(text), {'k"ey': 'a"b\\c\nd\te\x01fé'})

    def test_refuses_non_finite_numbers(self):
        for bad in (math.nan, math.inf, -math.inf):
            with self.assertRaises(ValueError):
                perfstats.dumps_strict({"metrics": {"m": {"value": bad}}})
            with self.assertRaises(ValueError):
                perfstats.dumps_strict([1.0, bad])

    def test_derive_refuses_non_finite_metric(self):
        run = {"series": {"a": [1.0], "b": [0.0]}, "spans": []}
        with self.assertRaises(MetricError):
            perfstats.derive(run, [("m", "x", perfstats.Reduce("ratio", "a", "b"))])


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30)]
        self.assertEqual(perfstats.self_times(spans), {1: 50, 2: 40, 3: 10})

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 1, 5), span(3, 1, 3, 8, thread=1)]
        self.assertEqual(perfstats.self_times(spans)[1], 3)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 8, 15), span(3, 1, 20, 30)]
        self.assertEqual(perfstats.self_times(spans)[1], 8)

    def test_siblings_and_roots_are_independent(self):
        spans = [span(1, 0, 0, 10), span(2, 0, 5, 20), span(3, 1, 0, 4)]
        self.assertEqual(perfstats.self_times(spans), {1: 6, 2: 15, 3: 4})

    def test_chrome_trace_events(self):
        trace = perfstats.chrome_trace([span(1, 0, 5.0, 7.5, "engine.build", 2)], {"seed": 1})
        (event,) = trace["traceEvents"]
        self.assertEqual((event["ph"], event["ts"], event["dur"], event["tid"], event["cat"]),
                         ("X", 5.0, 2.5, 2, "engine"))
        json.loads(perfstats.dumps_strict(trace))


def synthetic_run(table):
    """Enough samples for every reducer of ``table``."""
    series = {}
    for _, _, reduce in table:
        for name in reduce.series:
            series[name] = [1.0] if reduce.kind == "only" else [float(i) for i in range(1, 1001)]
    spans = [span(1, 0, 0, 5000, "netsim.run_simulation"), span(2, 1, 100, 200, "routing.route")]
    return {"series": series, "spans": spans}


class MetricNamesTest(unittest.TestCase):
    def test_every_printed_metric_is_declared(self):
        for table, key in ((perfstats.END_TO_END, "end_to_end"),
                           (perfstats.PER_LAYER, "per_layer")):
            with self.subTest(key=key):
                metrics = perfstats.derive(synthetic_run(table), table)
                perfstats.check_names(metrics, BENCHMARK[key])
                for name in metrics:
                    self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")

    def test_self_time_metric(self):
        metrics = perfstats.derive(synthetic_run(perfstats.PER_LAYER), perfstats.PER_LAYER)
        self.assertEqual(metrics["netsim.self_ms"]["value"], 4.9)

    def test_check_names_rejects(self):
        declared = [{"name": "a_ms", "unit": "ms"}]
        good = {"value": 1.0, "unit": "ms"}
        for metrics in ({"a ms": good}, {"a_ms": good, "b_ms": good},
                        {"a_ms": {"value": 1.0, "unit": "s"}}, {}):
            with self.assertRaises(MetricError):
                perfstats.check_names(metrics, declared)
        perfstats.check_names({"a_ms": good}, declared)

    def test_calibration_rescales_timings_only(self):
        metrics = {"t": {"value": 12.0, "unit": "ms"}, "r": {"value": 100.0, "unit": "1/s"},
                   "c": {"value": 7.0, "unit": "count"}, "h": {"value": 30.0, "unit": "slots"}}
        run = {"series": {"calibration_ms": [perfstats.NOMINAL_CALIBRATION_MS * 1.2] * 3}}
        scaled, factor = perfstats.calibrate(metrics, run)
        self.assertAlmostEqual(factor, 1.2)
        self.assertAlmostEqual(scaled["t"]["value"], 10.0)
        self.assertAlmostEqual(scaled["r"]["value"], 120.0)
        self.assertEqual((scaled["c"]["value"], scaled["h"]["value"]), (7.0, 30.0))
        with self.assertRaises(MetricError):
            perfstats.calibrate(metrics, {"series": {}})

    def test_end_to_end_contract(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCHMARK["end_to_end"]))
        for m in BENCHMARK["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
