"""Unit tests for the report helpers, on fixed synthetic inputs.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolated_with_sample_count(self):
        p = stats.percentile(list(range(1, 101)), 0.9)
        self.assertAlmostEqual(p.value, 90.1)
        self.assertEqual(p.n, 100)
        self.assertEqual(p.beyond, 10)
        self.assertTrue(p.resolved)

    def test_unresolved_when_fewer_than_ten_beyond(self):
        p = stats.percentile(list(range(1, 51)), 0.9)
        self.assertAlmostEqual(p.value, 45.1)
        self.assertEqual(p.beyond, 5)
        self.assertFalse(p.resolved)

    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(stats.percentile([5, 1, 3, 2, 4], 0.5).value, 3)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_single_sample(self):
        p = stats.percentile([7.0], 0.9)
        self.assertEqual((p.value, p.n, p.beyond, p.resolved), (7.0, 1, 0, False))

    def test_empty(self):
        p = stats.percentile([], 0.5)
        self.assertTrue(math.isnan(p.value))
        self.assertEqual(p.n, 0)
        self.assertFalse(p.resolved)


class GeomeanTest(unittest.TestCase):
    def test_geomean_of_per_kind_medians(self):
        samples = {"Q1": [1.0, 100.0, 4.0], "Q2": [9.0], "Q3": []}
        # medians 4 and 9; the empty kind is skipped
        self.assertAlmostEqual(stats.geomean_of_medians(samples), 6.0)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])


class SelfTimeTest(unittest.TestCase):
    def span(self, i, parent, start, end):
        return {"id": i, "parent": parent, "start_us": start, "end_us": end}

    def test_children_subtracted(self):
        spans = [
            self.span(0, -1, 0, 100),
            self.span(1, 0, 10, 30),
            self.span(2, 0, 50, 90),
            self.span(3, 2, 60, 70),
        ]
        st = stats.self_times(spans)
        self.assertEqual(st[0], 40)
        self.assertEqual(st[1], 20)
        self.assertEqual(st[2], 30)
        self.assertEqual(st[3], 10)

    def test_overlapping_children_counted_once(self):
        spans = [
            self.span(0, -1, 0, 100),
            self.span(1, 0, 10, 60),
            self.span(2, 0, 40, 80),
        ]
        self.assertEqual(stats.self_times(spans)[0], 30)

    def test_child_clipped_to_parent(self):
        spans = [self.span(0, -1, 10, 20), self.span(1, 0, 0, 15)]
        self.assertEqual(stats.self_times(spans)[0], 5)


class RatioTest(unittest.TestCase):
    def test_zero_base(self):
        self.assertEqual(stats.ratio(0, 0), 0.0)
        self.assertEqual(stats.ratio(7, 0), 0.0)

    def test_counter_delta_ratio(self):
        before = {"hits": 10, "misses": 5}
        after = {"hits": 40, "misses": 15}
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        self.assertAlmostEqual(stats.ratio(hits, hits + misses), 0.75)


if __name__ == "__main__":
    unittest.main()
