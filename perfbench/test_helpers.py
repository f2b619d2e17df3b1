"""Unit tests for the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import gc
import json
import os
import unittest

import harness
import spans
from spans import Span

HERE = os.path.dirname(os.path.abspath(__file__))


class UnionLengthTest(unittest.TestCase):
    def test_overlapping_and_disjoint(self):
        self.assertEqual(spans.union_length([(0, 10), (5, 15), (20, 25)]), 20)

    def test_nested_and_empty(self):
        self.assertEqual(spans.union_length([(0, 10), (2, 3), (4, 4)]), 10)
        self.assertEqual(spans.union_length([]), 0)


class SelfTimeTest(unittest.TestCase):
    def test_same_thread_children_are_unioned(self):
        parent = Span("meta.pipelined.compress", 0, 100, 1, 1, None)
        # two overlapping same-thread children cover 0..40 once
        a = Span("native.stage1", 0, 30, 1, 2, 1)
        b = Span("meta.wait", 20, 40, 1, 3, 1)
        selfs = spans.self_times([parent, a, b])
        self.assertEqual(selfs[1], 60)
        self.assertEqual(selfs[2], 30)

    def test_cross_thread_children_do_not_reduce_self_time(self):
        parent = Span("meta.pipelined.compress", 0, 100, 1, 1, None)
        stage1 = Span("native.stage1", 0, 40, 1, 2, 1)
        wait = Span("meta.wait", 40, 60, 1, 3, 1)
        stage2 = Span("native.stage2", 30, 90, 2, 4, 1)  # worker thread
        all_spans = [parent, stage1, wait, stage2]
        selfs = spans.self_times(all_spans)
        self.assertEqual(selfs[1], 40)
        # busy: self 40 + caller stage1 40 + worker stage2 60; waits idle
        busy = spans.busy_time(parent, spans.children_of(all_spans), selfs)
        self.assertEqual(busy, 140)

    def test_child_clipped_to_parent(self):
        parent = Span("core.compress", 10, 20, 1, 1, None)
        child = Span("native.stage1", 5, 25, 1, 2, 1)
        self.assertEqual(spans.self_times([parent, child])[1], 0)


class RecorderTest(unittest.TestCase):
    def test_executor_carries_parent_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor as base

        class Module:
            ThreadPoolExecutor = base

        rec = spans.Recorder()
        rec.patch_executor(Module)
        work = rec.wrap(lambda: 1, "native.stage2")

        def outer():
            with Module.ThreadPoolExecutor(max_workers=1) as pool:
                return pool.submit(work).result()

        self.assertEqual(rec.wrap(outer, "meta.pipelined.compress")(), 1)
        rec.unpatch()
        self.assertIs(Module.ThreadPoolExecutor, base)
        by_name = {s.name: s for s in rec.spans}
        root = by_name["meta.pipelined.compress"]
        self.assertEqual(by_name["native.stage2"].parent, root.id)
        self.assertNotEqual(by_name["native.stage2"].thread, root.thread)
        self.assertEqual(by_name["meta.wait"].parent, root.id)
        self.assertEqual(by_name["meta.wait"].thread, root.thread)

    def test_layer_metrics_zero_for_bypassed_layers(self):
        m = spans.layer_metrics([], 0, 0)
        self.assertEqual(m["meta.overlap"], 0.0)
        self.assertEqual(m["native.stage1_ms"], 0.0)


class PairedTest(unittest.TestCase):
    def _arms(self, cost_a, cost_b):
        now = [0.0]
        calls = []

        def clock():
            return now[0]

        def arm(name, cost):
            def run(i):
                calls.append((name, gc.isenabled()))
                now[0] += cost(i)
            return run
        return clock, calls, arm("a", cost_a), arm("b", cost_b)

    def test_median_of_ratios_and_alternation(self):
        # B costs 10% more except one outlier pair, which the median of
        # per-pair ratios ignores
        clock, calls, a, b = self._arms(
            lambda i: 1.0, lambda i: 5.0 if i == 3 else 1.1)
        res = harness.paired(a, b, min_pairs=9, clock=clock)
        self.assertEqual(res.n, 9)
        self.assertAlmostEqual(res.median_ratio, 1.1)
        self.assertAlmostEqual(res.overhead_pct, 10.0)
        self.assertEqual(res.order[:3], ["ab", "ba", "ab"])
        self.assertEqual([c[0] for c in calls[:4]], ["a", "b", "b", "a"])
        self.assertTrue(all(not enabled for _, enabled in calls))
        self.assertLess(res.wilcoxon_p, 0.05)

    def test_identical_arms_report_no_overhead(self):
        clock, _, a, b = self._arms(lambda i: 2.0, lambda i: 2.0)
        res = harness.paired(a, b, min_pairs=4, clock=clock)
        self.assertEqual(res.overhead_pct, 0.0)
        self.assertEqual(res.wilcoxon_p, 1.0)

    def test_gc_state_restored(self):
        clock, _, a, b = self._arms(lambda i: 1.0, lambda i: 1.0)
        self.assertTrue(gc.isenabled())
        harness.paired(a, b, min_pairs=2, clock=clock)
        self.assertTrue(gc.isenabled())


class PercentileRuleTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertIsNone(harness.supported_percentile(range(999), 0.99))
        self.assertIsNotNone(harness.supported_percentile(range(1000), 0.99))

    def test_tail_falls_back_and_states_count(self):
        q, value, n = harness.tail_latency(list(range(100)))
        self.assertEqual(n, 100)
        self.assertAlmostEqual(q, 0.9)
        self.assertAlmostEqual(value, harness.quantile(range(100), 0.9))
        q, _, n = harness.tail_latency(list(range(2000)))
        self.assertEqual((q, n), (0.99, 2000))

    def test_tiny_samples_fall_back_to_median(self):
        self.assertEqual(harness.highest_supported_q(5), 0.5)


class MetricMapTest(unittest.TestCase):
    def test_every_metric_names_what_it_moves(self):
        root = os.path.dirname(HERE)
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as f:
            layers = json.load(f)
        workloads = {w["name"] for w in bench["workloads"]}
        # failed_ops_frac is the result line's failed / attempted
        end_to_end = {m["name"] for m in bench["end_to_end"]} | {
            "failed_ops_frac"}
        self.assertEqual(set(layers["workloads"]), workloads)
        self.assertEqual(set(layers["per_layer"]),
                         {m["name"] for m in bench["per_layer"]})
        for name, entry in layers["per_layer"].items():
            self.assertTrue(set(entry["moves"]) <= end_to_end, name)
            self.assertTrue(set(entry["on"]) <= workloads, name)


if __name__ == "__main__":
    unittest.main()
