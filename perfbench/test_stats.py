"""Tests for the benchmark's own arithmetic (perfbench/stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import stats

HERE = os.path.dirname(os.path.abspath(__file__))


def rung(rate, lat_ms, failed=0, backlog_end=1, achieved=None, fill=1.0):
    ok = len(lat_ms)
    return {"rate": rate, "duration_s": 1.0, "sent": ok + failed, "ok": ok,
            "failed": failed, "backlog_end": backlog_end,
            "achieved_per_s": achieved if achieved is not None else rate * 0.999,
            "fill": fill, "steal": 0.0, "harness_holds": 1, "lat_ms": lat_ms,
            "lag_ms": [0.1] * (ok + failed), "submit_us": [5.0] * (ok + failed)}


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)  # order-free
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(999, 99), 9)
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertEqual(stats.beyond(99, 90), 9)
        self.assertEqual(stats.beyond(1, 50), 0)

    def test_tail_takes_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail(list(range(1000)), (99, 90, 50))[0], 99)
        self.assertEqual(stats.tail(list(range(999)), (99, 90, 50))[0], 90)
        self.assertEqual(stats.tail(list(range(99)), (99, 90, 50))[0], 50)
        q, value, n = stats.tail(list(range(1, 1001)), (99, 90, 50))
        self.assertEqual((q, value, n), (99, 990, 1000))
        self.assertIsNone(stats.tail(list(range(19)), (99, 90, 50)))
        self.assertIsNone(stats.tail([], (99,)))


class RungSelection(unittest.TestCase):
    LIMIT, BATCH = 10.0, 16

    def holds(self, r):
        return stats.rung_holds(r, self.LIMIT, self.BATCH)

    def test_healthy_rung_holds(self):
        self.assertTrue(self.holds(rung(1000, [1.0] * 1000)))

    def test_p99_over_limit_breaks(self):
        lat = [1.0] * 980 + [20.0] * 20  # p99 = 20 ms, 10 samples beyond
        self.assertFalse(self.holds(rung(1000, lat)))
        lat = [1.0] * 995 + [20.0] * 5  # only the top 5 exceed: p99 = 1 ms
        self.assertTrue(self.holds(rung(1000, lat)))

    def test_short_rung_judged_at_p90(self):
        # 150 samples: p99 has 1 sample beyond it, so the rung is judged at
        # p90 and two stalled requests do not break it.
        lat = [1.0] * 148 + [30.0] * 2
        self.assertTrue(self.holds(rung(250, lat)))
        lat = [1.0] * 130 + [30.0] * 20
        self.assertFalse(self.holds(rung(250, lat)))

    def test_any_failure_breaks(self):
        self.assertFalse(self.holds(rung(1000, [1.0] * 999, failed=1)))
        self.assertFalse(self.holds(rung(1000, [], failed=0)))

    def test_growing_backlog_breaks(self):
        # Little's law allowance at 1000/s and 10 ms: 10 + one batch (16).
        self.assertTrue(self.holds(rung(1000, [1.0] * 1000, backlog_end=26)))
        self.assertFalse(self.holds(rung(1000, [1.0] * 1000, backlog_end=27)))

    def test_walk_stops_at_first_rung_that_breaks(self):
        rungs = [rung(4000, [1.0] * 1000),                   # holds again, but
                 rung(1000, [1.0] * 1000, achieved=998.0),
                 rung(2000, [1.0] * 1000, backlog_end=500),  # breaks first
                 rung(500, [1.0] * 1000)]
        best = stats.rung_at_slo(rungs, self.LIMIT, self.BATCH)
        self.assertEqual(best["rate"], 1000)
        self.assertEqual(best["achieved_per_s"], 998.0)

    def test_failure_on_a_rung_caps_the_rate(self):
        rungs = [rung(500, [1.0] * 1000), rung(1000, [1.0] * 1000, failed=3),
                 rung(2000, [1.0] * 1000)]
        self.assertEqual(stats.rung_at_slo(rungs, self.LIMIT, self.BATCH)["rate"], 500)

    def test_no_rung_holds(self):
        rungs = [rung(250, [50.0] * 1000), rung(500, [1.0] * 1000)]
        self.assertIsNone(stats.rung_at_slo(rungs, self.LIMIT, self.BATCH))

    def test_retried_rate_holds_if_either_attempt_holds(self):
        stalled = rung(2000, [1.0] * 900 + [80.0] * 100)
        retry = rung(2000, [1.0] * 1000, achieved=1995.0)
        rungs = [rung(1000, [1.0] * 1000), stalled, retry, rung(4000, [90.0] * 1000)]
        best = stats.rung_at_slo(rungs, self.LIMIT, self.BATCH)
        self.assertIs(best, retry)
        broken_twice = [rung(1000, [1.0] * 1000), stalled, stalled]
        self.assertEqual(stats.rung_at_slo(broken_twice, self.LIMIT, self.BATCH)["rate"], 1000)

    def test_all_rungs_hold(self):
        rungs = [rung(r, [1.0] * 1000) for r in (250, 500, 1000)]
        self.assertEqual(stats.rung_at_slo(rungs, self.LIMIT, self.BATCH)["rate"], 1000)


class StealFilter(unittest.TestCase):
    def test_drops_stolen_units(self):
        self.assertEqual(stats.least_stolen([0.0, 0.2, 0.01, 0.05, 0.0]), [0, 2, 3, 4])

    def test_keeps_least_stolen_when_too_few_are_clean(self):
        self.assertEqual(stats.least_stolen([0.3, 0.1, 0.2, 0.0, 0.4]), [1, 2, 3])
        self.assertEqual(stats.least_stolen([0.3, 0.1]), [0, 1])
        self.assertEqual(stats.least_stolen([]), [])


class FailRatio(unittest.TestCase):
    def test_counts_across_processes(self):
        ops = [{"attempted": 5, "failed": 0, "reasons": {}},
               {"attempted": 90, "failed": 3,
                "reasons": {"row_mismatch": 2, "rejected": 1}},
               {"attempted": 5, "failed": 1, "reasons": {"row_mismatch": 1}}]
        attempted, failed, reasons = stats.combine_ops(ops)
        self.assertEqual((attempted, failed), (100, 4))
        self.assertEqual(reasons, {"row_mismatch": 3, "rejected": 1})
        self.assertAlmostEqual(stats.fail_ratio(attempted, failed), 0.04)

    def test_zero_failures(self):
        self.assertEqual(stats.fail_ratio(12, 0), 0.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.fail_ratio(0, 0)
        with self.assertRaises(ValueError):
            stats.combine_ops([{"attempted": 1, "failed": 2, "reasons": {}}])


def search_raw(traced=False):
    res = {
        "setup_s": [0.005, 0.006],
        "search": {"k": 16, "batch": 24, "cnn_width": 4, "ranks": 4, "problems": 8,
                   "steps_per_search": 32, "footprint": 800.0,
                   "footprint_min": 672.0, "footprint_max": 840.0,
                   "wall_s": [0.5, 0.4, 2.0, 0.6, 0.5],
                   "steal": [0.0, 0.01, 0.3, 0.02, 0.0],
                   "untraced_wall_s": [0.5, 0.5, 0.5],
                   "step_ms": [10.0] * 31 * 2 + [99.0] * 31 + [10.0] * 31 * 2},
    }
    if traced:
        res["search_layers"] = {
            "step_ms": [10.0] * 100, "rank_skew_ms": [1.0, 2.0, 3.0],
            "forward_ms_per_step": 3.0, "comm_ms_per_step": 1.0,
            "other_ms_per_step": 6.0, "shard_calls_per_step": 8.0,
            "comm_calls_per_step": 3.0, "comm_bytes_per_step": 12000.0}
        res["layers"] = probes()
    return {"ops": {"attempted": 4, "failed": 0, "reasons": {}},
            "peak_rss_mb": 40.0, "spans": 0, "result": res}


def probes():
    return {"parallel_for_launch_us": 2.0, "cgemm_batched_k16_gflops": 25.0,
            "gemm_packed_b16_gflops": 120.0, "evaluate_ms": 100.0,
            "checkpoint_save_ms": 1.0, "checkpoint_load_ms": 1.5, "freeze_ms": 0.1,
            "plan_run_b1_us": 350.0, "plan_run_b16_us": 5000.0}


def deploy_raw(traced=False):
    stream = [0.6] * 2000
    res = {
        "setup_s": [0.02, 0.03],
        "train": {"samples_per_call": 384, "batch": 32, "wall_s": [1.0, 1.2, 0.8, 9.0],
                  "steal": [0.0, 0.0, 0.0, 0.5], "accuracy": 0.9, "phase_noise": 0.02},
        "stream": {"lat_ms": stream + [50.0] * 500 + [0.6] * 500,
                   "block_n": [1000, 1000, 500, 500], "block_steal": [0.01, 0.0, 0.2, 0.0],
                   "untraced_lat_ms": [0.5] * 2000 if traced else []},
        "ladder": {"limit_ms": 50.0, "max_batch": 16,
                   "rungs": [rung(1000, [1.0] * 1000, fill=1.0),
                             rung(2000, [2.0] * 2000, fill=1.5, achieved=1990.0),
                             rung(4000, [90.0] * 4000, backlog_end=900)]},
        "nominal": rung(1000, [0.8] * 3000),
        "saturation": [rung(16000, [200.0] * 3000, backlog_end=1024, achieved=a, fill=f)
                       for a, f in ((5000.0, 15.5), (4000.0, 15.0), (6000.0, 15.9))],
        "queue_wait_p99_ms": 0.5,
    }
    if traced:
        res["layers"] = probes()
    return {"ops": {"attempted": 9000, "failed": 0, "reasons": {}},
            "peak_rss_mb": 200.0, "spans": 0, "result": res}


class WorkloadMetrics(unittest.TestCase):
    E2E = {name for name, _, _, _ in stats.END_TO_END} - {"setup_s", "peak_rss_mb"}
    LAYERS = {name for name, _, _ in stats.PER_LAYER}

    def test_search_end_to_end(self):
        named, generic, _, _ = stats.search_metrics(search_raw())
        self.assertEqual(set(generic), self.E2E)
        self.assertAlmostEqual(generic["throughput_per_s"], 64.0)  # median 32/0.5
        self.assertEqual(generic["tail_ms"], 10.0)  # the stolen search is left out
        self.assertAlmostEqual(generic["train_samples_per_s"], 64.0 * 24)
        self.assertEqual(named["search_steps_per_s"][0], generic["throughput_per_s"])
        self.assertIn("search_step_p90_ms", named)

    def test_deploy_end_to_end(self):
        named, generic, _, rows = stats.deploy_metrics(deploy_raw())
        self.assertEqual(set(generic), self.E2E)
        self.assertEqual(generic["throughput_per_s"], 5000.0)
        self.assertEqual(named["serve_saturation_qps"][0], 5000.0)
        self.assertEqual(named["serve_qps_at_slo"][0], 1990.0)
        self.assertAlmostEqual(generic["train_samples_per_s"], 384.0)
        self.assertEqual(generic["p50_ms"], 0.6)
        self.assertEqual(generic["tail_ms"], 0.6)  # the stolen block is left out
        self.assertIn("stream_p99_ms", named)
        self.assertIn("stream_p90_ms", named)
        self.assertEqual([r["holds"] for r in rows],
                         [True, True, False, True, False, False, False])

    def test_saturation_median_leaves_out_stolen_bursts(self):
        raw = deploy_raw()
        bursts = raw["result"]["saturation"]
        bursts.append(dict(bursts[0], achieved_per_s=900.0, steal=0.3))
        bursts.append(dict(bursts[0], achieved_per_s=5500.0))
        _, generic, _, _ = stats.deploy_metrics(raw)
        self.assertEqual(generic["throughput_per_s"], 5250.0)  # of 4000, 5000, 5500, 6000

    def test_every_layer_metric_on_every_workload(self):
        for raw in (search_raw(traced=True), deploy_raw(traced=True)):
            values = stats.layer_metrics(raw)
            self.assertEqual(set(values), self.LAYERS)
            self.assertTrue(all(math.isfinite(v) for v in values.values()))

    def test_layer_attribution(self):
        search = stats.layer_metrics(search_raw(traced=True))
        self.assertEqual(search["comm.rank_skew_ms"], 2.0)
        self.assertEqual(search["runtime.batch_fill"], 0.0)  # idle layer
        self.assertAlmostEqual(search["bench.trace_overhead_pct"], 0.0)  # 0.5 vs 0.5
        deploy = stats.layer_metrics(deploy_raw(traced=True))
        self.assertEqual(deploy["runtime.batch_fill"], 15.5)  # median over the bursts
        self.assertAlmostEqual(deploy["runtime.server_overhead_us"], 500.0 - 350.0)
        self.assertAlmostEqual(deploy["bench.trace_overhead_pct"], 20.0)
        self.assertEqual(deploy["search.step_ms_p50"], 0.0)  # idle layer


class BenchmarkFile(unittest.TestCase):
    def test_matches_metric_tables(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in doc["end_to_end"]], list(stats.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         list(stats.PER_LAYER))
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         ["search_k16", "search_k16_r4", "deploy_serve"])


if __name__ == "__main__":
    unittest.main()
