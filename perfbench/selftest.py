"""Self-tests of the benchmark's own arithmetic (no simulator needed).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    Tracer,
    beyond,
    open_loop_accounting,
    percentile,
    poisson_schedule,
    self_times,
    span_table,
    tail_percentile,
)


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self) -> None:
        data = list(range(1, 101))
        self.assertEqual(percentile(data, 50), 50)
        self.assertEqual(percentile(data, 99), 99)
        self.assertEqual(percentile(data, 100), 100)
        self.assertEqual(percentile([7.0], 99), 7.0)

    def test_samples_beyond(self) -> None:
        self.assertEqual(beyond(1000, 99), 10)
        self.assertEqual(beyond(999, 99), 9)
        self.assertEqual(beyond(100, 90), 10)

    def test_highest_percentile_with_ten_beyond(self) -> None:
        self.assertEqual(tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(tail_percentile(list(range(999)))[0], 95.0)
        self.assertEqual(tail_percentile(list(range(10_000)))[0], 99.9)
        self.assertEqual(tail_percentile(list(range(100)))[0], 90.0)
        self.assertEqual(tail_percentile(list(range(40)))[0], 75.0)
        p, value = tail_percentile(list(range(1000)))
        self.assertEqual(value, percentile(list(range(1000)), p))

    def test_tiny_sample_falls_back_to_median(self) -> None:
        self.assertEqual(tail_percentile([3.0, 1.0, 2.0]), (50.0, 2.0))


class OpenLoop(unittest.TestCase):
    def test_schedule_is_seeded_and_bounded(self) -> None:
        a = poisson_schedule(random.Random(5), 200.0, 3.0)
        b = poisson_schedule(random.Random(5), 200.0, 3.0)
        self.assertEqual(a, b)
        self.assertTrue(all(0 < t < 3.0 for t in a))
        self.assertEqual(a, sorted(a))
        self.assertLess(abs(len(a) - 600) / 600, 0.15)

    def test_latency_counts_from_due_time(self) -> None:
        # The generator stalled: the second request went out 50 ms late.
        due = [0.000, 0.010, 0.020]
        sent = [0.000, 0.060, 0.061]
        received = [0.005, 0.065, None]
        acc = open_loop_accounting(due, sent, received)
        self.assertEqual(len(acc["latencies"]), 2)
        self.assertAlmostEqual(acc["latencies"][0], 0.005)
        # 55 ms from due, although the answer took 5 ms after sending
        self.assertAlmostEqual(acc["latencies"][1], 0.055)
        self.assertAlmostEqual(max(acc["late"]), 0.050)
        self.assertAlmostEqual(acc["late"][0], 0.0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self) -> None:
        spans = [
            {"name": "batch", "id": 1, "parent": None, "t0": 0.0, "dur": 10.0},
            {"name": "get", "id": 2, "parent": 1, "t0": 1.0, "dur": 2.0},
            # overlaps the next child: the union (4..8) is 4, not 3 + 3
            {"name": "put", "id": 3, "parent": 1, "t0": 4.0, "dur": 3.0},
            {"name": "put", "id": 4, "parent": 1, "t0": 5.0, "dur": 3.0},
            # pokes past the parent's end: only 9..10 counts
            {"name": "get", "id": 5, "parent": 1, "t0": 9.0, "dur": 5.0},
            {"name": "leaf", "id": 6, "parent": 3, "t0": 4.5, "dur": 1.0},
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[1], 10.0 - 2.0 - 4.0 - 1.0)
        self.assertAlmostEqual(own[3], 2.0)
        self.assertAlmostEqual(own[6], 1.0)
        rows = {name: (count, total, mine) for name, count, total, mine in span_table(spans)}
        self.assertEqual(rows["put"][0], 2)
        self.assertAlmostEqual(rows["put"][1], 6.0)
        self.assertAlmostEqual(rows["put"][2], 5.0)

    def test_tracer_nests_spans_and_tallies_calls(self) -> None:
        ticks = iter(float(t) for t in range(100))
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        spans = {s["name"]: s for s in tracer.spans}
        self.assertEqual(spans["inner"]["parent"], outer)
        self.assertIsNone(spans["outer"]["parent"])
        self.assertAlmostEqual(self_times(tracer.spans)[outer], 2.0)
        double = tracer.wrap("double", lambda x: 2 * x)
        self.assertEqual(double(4), 8)
        self.assertEqual(double(5), 10)
        self.assertEqual(tracer.calls("double"), 2)
        self.assertAlmostEqual(tracer.us_per_call("double"), 1e6)


if __name__ == "__main__":
    unittest.main()
