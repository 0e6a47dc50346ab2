#!/usr/bin/env python3
"""Tests for the benchmark's own statistics, naming rules and metadata.

    python3 perfbench/test_stats.py
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_sample_count(self):
        samples = list(range(1000, 0, -1))  # 1..1000, unsorted
        value, n = stats.percentile(samples, 99)
        self.assertEqual(n, 1000)
        self.assertEqual(value, 990)  # exactly 10 samples lie above it
        self.assertEqual(stats.percentile(samples, 50), (500, 1000))

    def test_rank_is_exact_not_floating_point(self):
        # 99 / 100 * 1000 is 990.0000000000001 in floating point; a float
        # ceil would pick rank 991 and leave only 9 samples beyond.
        value, _ = stats.percentile(list(range(1, 1001)), 99)
        self.assertEqual(value, 990)

    def test_rejects_fewer_than_ten_beyond(self):
        with self.assertRaises(stats.PercentileError):
            stats.percentile(list(range(999)), 99)
        with self.assertRaises(stats.PercentileError):
            stats.percentile(list(range(199)), 95)
        stats.percentile(list(range(200)), 95)
        with self.assertRaises(stats.PercentileError):
            stats.percentile([], 50)

    def test_error_names_the_counts(self):
        with self.assertRaisesRegex(stats.PercentileError,
                                    r"999 samples leaves 9 beyond.*>= 1000"):
            stats.percentile(list(range(999)), 99)

    def test_min_samples(self):
        self.assertEqual(stats.min_samples(99), 1000)
        self.assertEqual(stats.min_samples(95), 200)
        self.assertEqual(stats.min_samples(50), 20)

    def test_rejects_out_of_range_percentile(self):
        with self.assertRaises(ValueError):
            stats.percentile([1, 2, 3], 100)
        with self.assertRaises(ValueError):
            stats.percentile([1, 2, 3], 0)


class QuartileTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [3.0, 9.0, 1.0, 7.0, 5.0, 11.0, 2.0, 8.0, 4.0, 6.0]
        q1, mid, q3 = stats.quartiles(values)
        self.assertEqual([q1, mid, q3], statistics.quantiles(values, n=4))
        self.assertEqual(stats.median(values), 5.5)

    def test_spread_is_iqr_over_median(self):
        values = [10.0] * 5 + [12.0] * 5
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 11.0)
        self.assertEqual(stats.spread([4.0, 4.0, 4.0]), 0.0)

    def test_single_value(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "core.service.hold_ticks.wildfire",
                     "sim.ns_per_event", "9lives", "a-b", "x" * 64):
            self.assertTrue(stats.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", ".hidden", "_x", "a b", "a/b", "x" * 65, "µs",
                     "q{a,b}", None):
            self.assertFalse(stats.valid_name(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "MiB", "ticks"):
            self.assertTrue(stats.valid_unit(unit), unit)
        for unit in ("", "milliseconds/op!", "a b", "x" * 17):
            self.assertFalse(stats.valid_unit(unit), unit)


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(HERE.parent / "BENCHMARK.json") as f:
            cls.spec = json.load(f)
        with open(HERE / "layer_map.json") as f:
            cls.layer_map = json.load(f)

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])

    def test_names_units_and_bounds(self):
        names = []
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        self.assertEqual(tuple(names), run.WORKLOADS)
        metric_names = []
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
            metric_names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            metric_names.append(m["name"])
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertTrue(stats.valid_name(m["name"]), m["name"])
            self.assertTrue(stats.valid_unit(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(metric_names + names),
                         len(set(metric_names + names)))

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in e2e.values()))

    def test_layer_map_covers_every_per_layer_metric(self):
        per_layer = [m["name"] for m in self.spec["per_layer"]]
        mapped = [entry["metric"] for entry in self.layer_map["layers"]]
        self.assertEqual(sorted(per_layer), sorted(mapped))
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        e2e |= {"query_ms_p50", "query_ms_p95", "valid_fraction",
                "sim_latency_p99"}
        for entry in self.layer_map["layers"]:
            for move in entry["moves"]:
                self.assertIn(move["metric"], e2e)
                self.assertTrue(set(move["workloads"]) <= set(run.WORKLOADS))
            self.assertTrue(set(entry["absent_on"]) <= set(run.WORKLOADS))
        for prediction in self.layer_map["predictions"]:
            self.assertTrue(set(prediction["moves"] + prediction["still"]) <=
                            set(run.WORKLOADS))


class DerivationTest(unittest.TestCase):
    RAW = {
        "attempted": 8, "failed": 0, "failures": [],
        "values": {"queries_per_rep": 4, "peak_rss_mb": 10.0,
                   "messages_per_query": 100.0},
        "samples": {"setup_s": [0.3, 0.1, 0.2], "rep_s": [2.0, 1.0, 4.0]},
        "absent": {},
    }

    def test_end_to_end_from_median_repetition_and_median_setup(self):
        e2e = run.end_to_end(self.RAW)
        self.assertEqual(e2e["setup_s"], 0.2)
        self.assertEqual(e2e["queries_per_s"], 2.0)  # 4 queries in 2.0 s

    def test_a_slow_repetition_moves_the_median(self):
        raw = json.loads(json.dumps(self.RAW))
        raw["samples"]["rep_s"] = [1.0, 1.0, 4.0, 4.0]
        self.assertEqual(run.end_to_end(raw)["queries_per_s"], 4 / 2.5)

    def test_absent_per_layer_metrics_read_zero(self):
        spec = {"per_layer": [{"name": "a.x", "unit": "ms", "better": "lower"},
                              {"name": "b.y", "unit": "ms", "better": "lower"}]}
        raw = json.loads(json.dumps(self.RAW))
        raw["values"]["a.x"] = 1.5
        raw["absent"]["b.y"] = "not on this workload"
        raw["samples"].update({"topology.generate_ms": [1.0],
                               "topology.diameter_ms": [1.0],
                               "common.zipf_values_ms": [1.0]})
        metrics = run.per_layer(raw, spec)
        self.assertEqual(metrics["a.x"], {"value": 1.5, "unit": "ms"})
        self.assertEqual(metrics["b.y"], {"value": 0.0, "unit": "ms"})


if __name__ == "__main__":
    unittest.main()
