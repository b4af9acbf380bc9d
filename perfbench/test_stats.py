"""Self-tests for the benchmark's statistics helpers.

Run: python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import highest_percentile, median, valid_metric_name  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_count_is_middle_value(self):
        self.assertEqual(median([3.0, 1.0, 2.0]), 2.0)

    def test_even_count_is_mean_of_middle_pair(self):
        self.assertEqual(median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_single_value(self):
        self.assertEqual(median([7.5]), 7.5)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            median([])


class HighestPercentileTest(unittest.TestCase):
    def test_too_few_samples_gives_none(self):
        self.assertIsNone(highest_percentile(list(range(10))))
        self.assertIsNone(highest_percentile(list(range(19))))

    def test_twenty_samples_support_only_the_median(self):
        # Nearest rank 10 of 20 leaves exactly 10 samples beyond it.
        self.assertEqual(highest_percentile([float(i) for i in range(1, 21)]), (50.0, 10.0))

    def test_hundred_samples_support_p90(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(highest_percentile(values), (90.0, 90.0))

    def test_thousand_samples_support_p99(self):
        values = [float(i) for i in range(1, 1001)]
        self.assertEqual(highest_percentile(values), (99.0, 990.0))

    def test_order_of_input_does_not_matter(self):
        values = [float(i) for i in range(100, 0, -1)]
        self.assertEqual(highest_percentile(values), (90.0, 90.0))

    def test_at_least_ten_samples_lie_beyond_the_quoted_value(self):
        for n in (20, 37, 100, 250, 1000, 1234):
            p, v = highest_percentile([float(i) for i in range(n)])
            self.assertGreaterEqual(sum(1 for x in range(n) if x > v), 10, (n, p))


class MetricNameTest(unittest.TestCase):
    def test_accepts_letters_digits_and_separators(self):
        for name in ("run_s", "sim.ns_per_hop", "sim.wall_per_sim_s.pre_attack",
                     "a-b", "9lives", "x" * 64):
            self.assertTrue(valid_metric_name(name), name)

    def test_rejects_other_characters_and_bad_shapes(self):
        for name in ("", "_lead", ".lead", "-lead", "has space", "slash/name",
                     "colon:name", "x" * 65, "ünï", None):
            self.assertFalse(valid_metric_name(name), name)


if __name__ == "__main__":
    unittest.main()
