"""Unit checks for the benchmark's statistics.

Run with:  python3 perfbench/test_stats.py
perfbench/run.py also runs them before every measurement.
"""

import statistics
import unittest

import stats


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([7.5]), 7.5)

    def test_empty(self):
        with self.assertRaises(ValueError):
            stats.median([])


class QuartileTest(unittest.TestCase):
    def test_known_values(self):
        # Exclusive method: positions (n + 1) / 4 and 3 (n + 1) / 4.
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5, 6, 7]), (2, 6))
        self.assertEqual(stats.quartiles(list(range(1, 11))), (2.75, 8.25))

    def test_matches_statistics_quantiles(self):
        values = [0.91, 1.04, 0.99, 1.2, 0.87, 1.01, 0.95, 1.1, 0.98, 1.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q3))

    def test_spread(self):
        self.assertAlmostEqual(stats.spread(list(range(1, 11))), 5.5 / 5.5)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class TailTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile([5, 1], 1), 1)

    def test_highest_percentile_with_ten_beyond(self):
        # 100 samples: p90 leaves exactly 10 above it, p95 only 5.
        self.assertEqual(stats.tail(list(range(1, 101))), (90.0, 90))
        # 200 samples: p95 leaves 10 above it.
        self.assertEqual(stats.tail(list(range(1, 201))), (95.0, 190))
        # 1000 samples: p99 leaves 10.
        self.assertEqual(stats.tail(list(range(1, 1001))), (99.0, 990))
        # 40 samples: p75 leaves 10, p90 only 4.
        self.assertEqual(stats.tail(list(range(1, 41))), (75.0, 30))

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(100, 0, -1)]
        self.assertEqual(stats.tail(values), (90.0, 90.0))

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail([]))
        self.assertIsNone(stats.tail([1.0] * 10))
        # 19 samples: even the median leaves only 9 above it.
        self.assertIsNone(stats.tail(list(range(19))))
        self.assertEqual(stats.tail(list(range(1, 21))), (50.0, 10))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            {"id": 0, "parent": -1, "start_ns": 0, "stop_ns": 10_000_000_000},
            {"id": 1, "parent": 0, "start_ns": 1_000_000_000, "stop_ns": 4_000_000_000},
            {"id": 2, "parent": 0, "start_ns": 5_000_000_000, "stop_ns": 9_000_000_000},
            {"id": 3, "parent": 2, "start_ns": 6_000_000_000, "stop_ns": 7_000_000_000},
        ]
        self.assertEqual(stats.self_times(spans), {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})


if __name__ == "__main__":
    unittest.main()
