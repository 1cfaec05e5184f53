#!/usr/bin/env python3
"""Tests of the benchmark harness: its arithmetic (percentile rule,
span self time, write amplification and per-op ratios), its result
line, and the exact repeatability of the deterministic work counters.

    python3 perfbench/test_perfbench.py

The span and determinism tests build the binary first (see run.py).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import ledger  # noqa: E402
import run  # noqa: E402


def round_record(**overrides):
    """A raw round as the binary writes it, with neutral defaults."""
    r = {"traced": True, "setup_s": 1.0, "timed_s": 1.0, "wall_s": 1.0,
         "units": 1, "ops": 0, "failed": 0, "retries": 0,
         "payload_bytes": 0, "device_bytes_written": 0, "samples_ns": {},
         "counters": {}, "hists": {}, "recoveries": [], "spans": []}
    r.update(overrides)
    return r


def span_row(parent, name, calls, total_ns, self_ns):
    return {"parent": parent, "name": name, "calls": calls,
            "total_ns": total_ns, "self_ns": self_ns}


class PercentileRule(unittest.TestCase):
    def test_median_and_p99_with_enough_samples(self):
        values = list(range(1, 1001))
        self.assertEqual(ledger.percentile(values, 50), 500)
        # 990 has exactly 10 samples beyond it.
        self.assertEqual(ledger.percentile(values, 99), 990)

    def test_order_does_not_matter(self):
        self.assertEqual(ledger.percentile([5, 1, 4, 2, 3] * 10, 50), 3)

    def test_tail_falls_back_to_highest_supported_percentile(self):
        values = list(range(1, 501))
        # p99 would be 495 with only 5 beyond; 490 keeps 10 beyond.
        self.assertEqual(ledger.percentile(values, 99), 490)
        self.assertEqual(ledger.percentile(values, 50), 250)

    def test_too_few_samples_report_nothing(self):
        self.assertIsNone(ledger.percentile(list(range(10)), 50))
        self.assertIsNone(ledger.percentile([], 99))
        self.assertEqual(ledger.percentile(list(range(11)), 99), 0)

    def test_latency_is_the_median_over_blocks(self):
        fast = round_record(samples_ns={"x": [1000] * 1000})
        slow = round_record(samples_ns={"x": [9000] * 1000})
        small = round_record(samples_ns={"x": [5000] * 10})
        # Three blocks: fast, fast, slow + the short remainder.
        blocks = ledger.blocks([fast, fast, slow, small])
        self.assertEqual([len(b) for b in blocks], [1000, 1000, 1010])
        self.assertEqual(ledger.latency_us([fast, fast, slow, small], 99), 1.0)
        self.assertEqual(ledger.latency_us([small], 50), 0.0)

    def test_histogram_buckets_expand_to_samples(self):
        samples = ledger.bucket_samples([(10, 2), (100, 3)])
        self.assertEqual(samples, [10, 10, 100, 100, 100])


class Ratios(unittest.TestCase):
    def test_write_amp(self):
        self.assertEqual(ledger.write_amp(4096 * 10, 4096), 10.0)
        self.assertEqual(ledger.write_amp(100, 0), 0.0)

    def test_end_to_end(self):
        rounds = [round_record(traced=False, setup_s=s, ops=100, timed_s=2.0,
                               payload_bytes=1000,
                               device_bytes_written=3000,
                               samples_ns={"meta": [1000 * i for i in
                                                    range(1, 51)]})
                  for s in (0.5, 0.7, 0.6)]
        m = ledger.end_to_end(rounds, peak_rss_kb=2048)
        self.assertEqual(m["setup_s"], 0.6)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["ops_per_s"], 50.0)
        self.assertEqual(m["write_amp"], 3.0)
        self.assertEqual(m["op_p50_us"], 25.0)

    def test_per_layer_ratios(self):
        spans = [
            span_row("", "minixfs.create", 4, 40000, 20000),
            span_row("minixfs.create", "ld.write", 8, 16000, 12000),
            span_row("minixfs.create", "ld.read", 2, 1000, 1000),
            span_row("minixfs.read_at", "ld.read", 6, 3000, 3000),
            span_row("ld.write", "blockdev.write", 2, 4000, 4000),
            span_row("", "blockdev.write", 3, 9000, 9000),
        ]
        counters = {"lld.pred_search_steps": 30, "lld.link_log_replays": 5,
                    "lld.segments_written": 4, "lld.arus_committed": 8,
                    "lld.partial_segments": 1, "dev.write_ops": 5,
                    "dev.bytes_written": 5 * 512, "dev.read_ops": 20,
                    "lld.blocks_written": 10,
                    "lld.blocks_copied_by_cleaner": 5}
        traced = [round_record(ops=10, units=2, spans=spans,
                               counters=counters)]
        m = ledger.per_layer(traced, [], peak_rss_kb=1024)
        self.assertEqual(m["minixfs.self_us_per_op"], 2.0)
        self.assertEqual(m["minixfs.ld_calls_per_op"], 1.6)
        # Only reads outside read_at/write_at are meta-data cache misses.
        self.assertEqual(m["minixfs.ld_reads_per_op"], 0.2)
        self.assertEqual(m["ld.write.calls"], 0.8)
        self.assertEqual(m["ld.write.self_us"], 1.5)
        self.assertEqual(m["lld.pred_search_steps_per_op"], 3.0)
        self.assertEqual(m["lld.link_log_replays_per_op"], 0.5)
        self.assertEqual(m["lld.segments_written"], 2.0)  # per unit
        self.assertEqual(m["lld.group_commit_size"], 2.0)
        self.assertEqual(m["lld.partial_segment_ratio"], 0.25)
        self.assertEqual(m["lld.cleaner_copied_per_user_block"], 0.5)
        self.assertEqual(m["blockdev.write_ops"], 2.5)
        self.assertEqual(m["blockdev.write_bytes_per_op"], 512.0)
        self.assertEqual(m["blockdev.read_ops_per_op"], 2.0)
        # Parentless (flusher) device time is busy time; parented device
        # time is self time on the client's path.
        self.assertEqual(m["blockdev.busy_us"], 4.5)
        self.assertEqual(m["blockdev.self_us_per_op"], 0.4)

    def test_tracing_overhead_compares_traced_with_untraced(self):
        traced = [round_record(ops=90, samples_ns={"x": [2000] * 20})]
        untraced = [round_record(traced=False, ops=100,
                                 samples_ns={"x": [1000] * 20})]
        m = ledger.per_layer(traced, untraced, peak_rss_kb=1024)
        self.assertAlmostEqual(m["trace.overhead_ops_per_s_pct"], 100 / 9)
        self.assertEqual(m["trace.overhead_op_p50_pct"], 100.0)


class ResultLine(unittest.TestCase):
    def raw(self, errors, trace=False):
        return {"trace": trace, "peak_rss_kb": 1024, "errors": errors,
                "rounds": [round_record(traced=trace, ops=40, failed=0,
                                        samples_ns={"x": [1] * 40})]}

    def test_clean_run(self):
        result = ledger.summarize(self.raw([]))
        self.assertEqual((result["correct"], result["attempted"],
                          result["failed"]), (True, 40, 0))

    def test_failed_check_fails_every_operation(self):
        result = ledger.summarize(self.raw(["fsck: orphan i-node"]))
        self.assertEqual((result["correct"], result["attempted"],
                          result["failed"]), (False, 40, 40))

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            metrics = ledger.summarize(self.raw([], trace))["metrics"]
            declared = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(
                {name: v["unit"] for name, v in metrics.items()}, declared)


class SpanSelfTime(unittest.TestCase):
    def test_ledger_self_time(self):
        run.build()
        subprocess.run([os.path.join(run.BUILD, "perfbench_selftest")],
                       check=True)


class DeterministicCounters(unittest.TestCase):
    COUNTERS = ["lld.pred_search_steps_per_op", "lld.link_log_replays_per_op",
                "lld.segments_written", "blockdev.write_ops",
                "lld.recovery.records_replayed"]

    def test_same_seed_repeats_exactly(self):
        run.build()
        for workload in ("fs_meta", "recovery"):
            results = []
            for _ in range(2):
                raw = run.run_binary(workload, seed=7, seconds=0.5, trace=1)
                results.append(ledger.summarize(raw))
            for result in results:
                self.assertTrue(result["correct"], workload)
            for name in self.COUNTERS:
                first, second = (r["metrics"][name]["value"] for r in results)
                self.assertEqual(first, second, f"{workload}: {name}")
            self.assertGreater(
                results[0]["metrics"]["blockdev.write_ops"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
