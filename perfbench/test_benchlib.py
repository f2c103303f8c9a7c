"""Tests of the benchmark's metric arithmetic (benchlib.py):
python3 -m unittest discover perfbench, or python3 perfbench/run.py --selftest."""

import json
import os
import unittest

import benchlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(name, cat, start, end, sid, parent=0, **args):
    """One Chrome 'X' event; times in ms."""
    return {"name": name, "cat": cat, "ph": "X", "pid": 1, "tid": 1,
            "ts": start * 1e3, "dur": (end - start) * 1e3,
            "args": {"span_id": sid, "parent_id": parent, **args}}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(benchlib.percentile(values, 0), 1)
        self.assertEqual(benchlib.percentile(values, 50), 3)
        self.assertEqual(benchlib.percentile(values, 100), 5)
        self.assertAlmostEqual(benchlib.percentile(values, 90), 4.6)
        self.assertAlmostEqual(benchlib.percentile(list(range(101)), 99), 99)

    def test_reported_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(benchlib.supported_percentile(1000, 99), 99)
        self.assertEqual(benchlib.supported_percentile(100, 90), 90)
        self.assertAlmostEqual(benchlib.supported_percentile(500, 99), 98)
        self.assertAlmostEqual(benchlib.supported_percentile(50, 90), 80)
        self.assertEqual(benchlib.supported_percentile(12, 90), 50)
        self.assertIsNone(benchlib.supported_percentile(0, 90))
        for n in (20, 37, 100, 250, 999):
            p = benchlib.supported_percentile(n, 99)
            self.assertGreaterEqual(n * (1 - p / 100.0), 10 - 1e-9)

    def test_tail_reports_the_percentile_used(self):
        value, p = benchlib.tail(list(range(1, 51)), 90)
        self.assertAlmostEqual(p, 80)
        self.assertAlmostEqual(value, benchlib.percentile(range(1, 51), 80))

    def test_empty_sample_raises(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)


class EndToEndTest(unittest.TestCase):
    RAW = {"setup_s": [2.0, 1.0, 3.0], "peak_rss_mb": 100.0,
           "run_ms": [100.0, 300.0, 200.0, 400.0], "run_case": [0, 1, 0, 1],
           "coverage_pct": [80.0, 90.0, 70.0, 60.0],
           "topk_ms": [float(v) for v in range(1, 101)],
           "analytics_ms": [0.5] * 40, "burst_cpu_s": 1.0,
           "burst_requests": 500, "update_ms": [10.0, 30.0, 20.0],
           "retrain_update_ms": [50.0]}

    def test_metrics_from_raw_samples(self):
        m = {k: v[0] for k, v in benchlib.end_to_end(self.RAW).items()}
        self.assertEqual(m["setup_s"], 2.0)
        self.assertAlmostEqual(m["runs_per_cpu_s"], 4 / 1.0)
        self.assertAlmostEqual(m["run_cpu_p50_ms"], 250.0)
        # Four runs: the tail falls back to the median.
        self.assertAlmostEqual(m["run_cpu_p90_ms"], 250.0)
        self.assertAlmostEqual(m["coverage_pct"], 75.0)
        self.assertAlmostEqual(m["topk_cpu_p90_ms"],
                               benchlib.percentile(self.RAW["topk_ms"], 90))
        self.assertAlmostEqual(m["analytics_cpu_p90_ms"], 0.5)
        self.assertAlmostEqual(m["mix_cpu_ms"], 2.0)
        self.assertAlmostEqual(m["update_cpu_ms"], 20.0)
        self.assertAlmostEqual(m["retrain_update_cpu_ms"], 50.0)

    def test_notes_state_sample_count_and_percentile(self):
        notes = {k: v[1] for k, v in benchlib.end_to_end(self.RAW).items()}
        self.assertIn("n=100", notes["topk_cpu_p90_ms"])
        self.assertIn("p90", notes["topk_cpu_p90_ms"])
        self.assertIn("n=40", notes["analytics_cpu_p90_ms"])
        self.assertIn("p75", notes["analytics_cpu_p90_ms"])


class TraceTest(unittest.TestCase):
    # phase.primary [0, 100]: a pipeline run [10, 60] with extract
    # [10, 20] and finish [25, 60] inside; two overlapping reads
    # [70, 80] and [75, 90]; an engine timing [92, 93]; nothing covers
    # [0, 10], [60, 70], [90, 92], [93, 100].
    TRACE = {"otherData": {"serve_stats": {
        "completed": 4, "rejected": 0, "touched_nodes": 40,
        "batch_sum": 6, "batch_count": 3,
        "latency_topk_s_sum": 0.0, "latency_topk_s_count": 0,
        "latency_spread_s_sum": 0.030, "latency_spread_s_count": 1,
        "latency_marginal_s_sum": 0.020, "latency_marginal_s_count": 1}},
        "traceEvents": [
        {"name": "process_name", "ph": "M", "pid": 1, "args": {}},
        span("phase.primary", "bench", 0, 100, 1),
        span("core.run", "core", 10, 60, 2, 1),
        span("sampling.extract", "sampling", 10, 20, 3, 2),
        span("core.finish", "core", 25, 60, 4, 2, train_busy_ms=20.0,
             oracle_ms=5.0, train_iterations=4, walks_accepted=3,
             walks_rejected=1),
        span("serve.read", "serve", 70, 80, 5, 1, **{"class": "topk"},
             template=0, cpu_ms=9.0),
        span("serve.read", "serve", 75, 90, 6, 1, **{"class": "mc"},
             template=1, cpu_ms=14.0),
        span("serve.engine", "serve", 92, 93, 7, 1, **{"class": "mc"},
             template=1, engine_ms=12.0),
    ]}

    def test_self_time_subtracts_covered_children(self):
        selfs = benchlib.self_times(benchlib.load_spans(self.TRACE))
        self.assertAlmostEqual(selfs[2], 50 - 10 - 35)
        self.assertAlmostEqual(selfs[3], 10)
        # The phase's children cover [10, 60], [70, 90] and [92, 93].
        self.assertAlmostEqual(selfs[1], 29)

    def test_uncovered_remainder(self):
        spans = benchlib.load_spans(self.TRACE)
        self.assertAlmostEqual(benchlib.uncovered_pct(spans), 29.0)

    def test_union_merges_overlaps(self):
        self.assertEqual(benchlib.union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(benchlib.union_length([]), 0)

    def test_per_layer_from_trace(self):
        m = benchlib.per_layer(self.TRACE, {"untraced_op_ms": 10.0,
                                            "traced_op_ms": 10.5})
        self.assertAlmostEqual(m["sampling.extract_ms"], 10)
        self.assertAlmostEqual(m["finish.other_ms"], 35 - 20 - 5)
        self.assertAlmostEqual(m["sampling.accept_ratio"], 0.75)
        self.assertAlmostEqual(m["trace.uncovered_pct"], 29.0)
        self.assertAlmostEqual(m["trace.overhead_pct"], 5.0)
        self.assertEqual(m["shard.wall_ms"], 0.0)
        self.assertAlmostEqual(m["serve.engine_mc_ms"], 12.0)
        # Mean server latency 25 ms, mean engine time 12 ms.
        self.assertAlmostEqual(m["serve.queue_wait_analytics_ms"], 25 - 12)
        self.assertEqual(m["serve.queue_wait_topk_ms"], 0.0)
        self.assertAlmostEqual(m["serve.batch_size_mean"], 2.0)
        self.assertAlmostEqual(m["serve.touched_nodes_per_query"], 10.0)


class ManifestTest(unittest.TestCase):
    """Every printed metric's name and unit match BENCHMARK.json."""

    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def raw(self):
        return EndToEndTest.RAW

    def named(self, values, declared):
        units = {d["name"]: d["unit"] for d in declared}
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()
                if k in units}

    def test_end_to_end_names(self):
        values = {k: v[0] for k, v in benchlib.end_to_end(self.raw()).items()}
        self.assertEqual(set(values), {d["name"] for d in
                                       self.bench["end_to_end"]})
        self.assertEqual(benchlib.check_names(
            self.named(values, self.bench["end_to_end"]),
            self.bench["end_to_end"]), [])
        self.assertTrue(all(v > 0 for v in values.values()))

    def test_per_layer_names(self):
        values = benchlib.per_layer(TraceTest.TRACE, {"untraced_op_ms": 1.0,
                                                      "traced_op_ms": 1.0})
        self.assertEqual(set(values), {d["name"] for d in
                                       self.bench["per_layer"]})

    def test_check_names_reports_mismatches(self):
        declared = [{"name": "a", "unit": "ms"}, {"name": "b", "unit": "s"}]
        printed = {"a": {"value": 1, "unit": "s"}, "c": {"value": 1,
                                                         "unit": "ms"}}
        self.assertEqual(len(benchlib.check_names(printed, declared)), 3)

    def test_design_covers_every_metric(self):
        with open(os.path.join(os.path.dirname(__file__),
                               "design.json")) as f:
            design = json.load(f)
        self.assertEqual(set(design["per_layer_map"]),
                         {d["name"] for d in self.bench["per_layer"]})
        names = {d["name"] for d in self.bench["end_to_end"]}
        for w in self.bench["workloads"]:
            spec = design["workloads"][w["name"]]
            self.assertEqual(set(spec["primary_metrics"]) |
                             set(spec["companion_metrics"]), names)
            self.assertEqual(spec["why"], w["why"])


if __name__ == "__main__":
    unittest.main()
