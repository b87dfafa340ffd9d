"""Tests of the benchmark's own rules (perfbench/stats.py, run.py).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

import run  # noqa: E402
import stats  # noqa: E402

MS = 1_000_000  # ns per ms


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(stats.percentile(v, 50), 50)
        self.assertEqual(stats.percentile(v, 99), 99)
        self.assertEqual(stats.percentile(v, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))

    def test_median_over_passes_ignores_one_disturbed_pass(self):
        calm = [float(i) for i in range(1, 101)]
        disturbed = [x * 10 for x in calm]
        self.assertEqual(stats.median_percentile([calm, calm, disturbed], 99), 99.0)
        self.assertEqual(stats.windows(list(range(2500)), 1000),
                         [list(range(1000)), list(range(1000, 2000))])

    def test_summary_states_count(self):
        s = stats.summarize([float(i) for i in range(1000)])
        self.assertEqual((s["n"], s["tail_p"]), (1000, 99.0))
        self.assertEqual(s["tail"], 989.0)


BASE = 1000.0  # ms; a receive time of 0 marks an unanswered request


def rung(rate, sched_ms, sent_ms, recv_ms):
    return {"rate": rate,
            "sched_ns": [int((BASE + x) * MS) for x in sched_ms],
            "sent_ns": [int((BASE + x) * MS) for x in sent_ms],
            "recv_ns": [int((BASE + x) * MS) if x else 0 for x in recv_ms]}


class ScheduledSendLatency(unittest.TestCase):
    def test_latency_counts_generator_stall(self):
        # The second request was due at 10 ms but the generator only sent
        # it at 30 ms; its latency runs from 10 ms.
        r = rung(100, [0, 10], [0, 30], [2, 32])
        self.assertEqual(stats.latencies_ms(r), [2.0, 22.0])
        self.assertEqual(stats.lateness_ms(r), [0.0, 20.0])

    def test_unanswered_request_misses_the_limit(self):
        r = rung(100, [0, 10], [0, 10], [1, 0])
        self.assertFalse(stats.rung_passes(r, 1000.0))


class Ladder(unittest.TestCase):
    def steady(self, rate, latency_ms, n=200):
        gap = 1000.0 / rate
        sched = [i * gap for i in range(n)]
        return rung(rate, sched, sched, [t + latency_ms for t in sched])

    def test_highest_rung_meeting_the_limit(self):
        rungs = [self.steady(100, 1), self.steady(200, 2), self.steady(400, 50)]
        got = stats.max_rate(rungs, limit_ms=10.0)
        self.assertAlmostEqual(got, stats.achieved_rate(rungs[1]))
        self.assertAlmostEqual(got, 200.0, delta=5.0)

    def test_rung_above_a_failing_rung_is_ignored(self):
        rungs = [self.steady(100, 1), self.steady(200, 50), self.steady(400, 1)]
        self.assertAlmostEqual(stats.max_rate(rungs, 10.0), 100.0, delta=3.0)

    def test_one_stalled_window_does_not_fail_a_rung(self):
        r = self.steady(1000, 1, n=3 * stats.WINDOW)
        stall = [0] * len(r["recv_ns"])
        for i in range(100):  # 100 requests of the first window wait 200 ms
            stall[i] = 200 * MS
        r["recv_ns"] = [t + s for t, s in zip(r["recv_ns"], stall)]
        self.assertGreater(stats.percentile(stats.latencies_ms(r), 99), 10.0)
        self.assertTrue(stats.rung_passes(r, 10.0))
        for i in range(stats.WINDOW, stats.WINDOW + 100):  # and of the second
            r["recv_ns"][i] += 200 * MS
        self.assertFalse(stats.rung_passes(r, 10.0))

    def test_none_when_the_lowest_rung_fails(self):
        self.assertIsNone(stats.max_rate([self.steady(100, 50)], 10.0))

    def test_growing_backlog_fails_even_under_the_limit(self):
        n = 200
        sched = [i * 1.0 for i in range(n)]
        recv = [t + 0.5 * i for i, t in enumerate(sched)]  # queue grows
        r = rung(1000, sched, sched, recv)
        self.assertTrue(stats.backlog_growing(r))
        self.assertFalse(stats.rung_passes(r, 1e9))
        self.assertFalse(stats.backlog_growing(self.steady(1000, 0.5)))


def span(name, start_ms, end_ms, sid, parent):
    return [name, int(start_ms * MS), int(end_ms * MS), sid, parent, 1]


class SelfTime(unittest.TestCase):
    def test_nested_spans_add_up_to_root(self):
        spans = [span("run", 0, 100, 1, 0),
                 span("core.kfold", 10, 90, 2, 1),
                 span("ml.gnn.fit", 20, 60, 3, 2)]
        got = stats.self_times(spans, 1)
        self.assertAlmostEqual(got["unattributed"], 0.020)
        self.assertAlmostEqual(got["core"], 0.040)
        self.assertAlmostEqual(got["ml"], 0.040)
        self.assertAlmostEqual(sum(got.values()), 0.100)

    def test_parallel_children_share_wall_time(self):
        spans = [span("run", 0, 100, 1, 0),
                 span("ml.gnn.fit", 0, 100, 2, 1),
                 span("verify.must.check", 50, 100, 3, 1)]
        got = stats.self_times(spans, 1)
        self.assertAlmostEqual(got["ml"], 0.075)
        self.assertAlmostEqual(got["verify"], 0.025)
        self.assertAlmostEqual(sum(got.values()), 0.100)

    def test_spans_outside_the_root_are_ignored(self):
        spans = [span("run", 0, 10, 1, 0), span("ml.probe", 20, 30, 2, 0)]
        self.assertEqual(stats.self_times(spans, 1), {"unattributed": 0.010})


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_the_runner(self):
        with open(os.path.join(os.path.dirname(ROOT), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.per_layer_spec())
        for w in bench["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
