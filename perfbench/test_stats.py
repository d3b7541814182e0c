"""Tests of the benchmark's statistics: ``python3 -m unittest discover -s perfbench``."""

import statistics
import unittest

import stats


class MedianAndQuartiles(unittest.TestCase):
    def test_median_of_odd_and_even_samples(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_of_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q3))
        self.assertEqual(stats.quartiles([2.0, 4.0]), (1.5, 4.5))

    def test_quartiles_of_a_single_sample(self):
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0))

    def test_spread_is_quartile_distance_over_median(self):
        values = [10.0] * 5 + [11.0] * 5
        q1, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 10.5)
        self.assertEqual(stats.spread([7.0, 7.0, 7.0]), 0.0)
        self.assertEqual(stats.spread([0.0, 0.0]), 0.0)


class TailPercentile(unittest.TestCase):
    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(stats.tail_percentile([1.0] * 10))

    def test_leaves_at_least_ten_samples_beyond(self):
        for n in (11, 12, 20, 37, 100, 1000):
            values = [float(i) for i in range(1, n + 1)]
            p, value = stats.tail_percentile(values)
            beyond = sum(1 for v in values if v > value)
            self.assertGreaterEqual(beyond, 10, n)
            # The next whole percentile would leave fewer than ten beyond.
            if p < 99:
                rank = -(-(p + 1) * n // 100)
                self.assertLess(n - rank, 10, n)

    def test_known_values(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(stats.tail_percentile(values), (90, 90.0))
        self.assertEqual(stats.tail_percentile(values[:20]), (50, 10.0))

    def test_order_does_not_matter(self):
        values = [float(i) for i in range(50, 0, -1)]
        self.assertEqual(stats.tail_percentile(values), (80, 40.0))


class Names(unittest.TestCase):
    def test_valid_metric_names(self):
        for name in ("run_s", "bo.ask_ms", "gp.append_ms", "trace.run_s", "9x", "a-b"):
            self.assertTrue(stats.valid_name(name), name)

    def test_invalid_metric_names(self):
        for name in ("", "_x", ".x", "a b", "a/b", "ms$", "x" * 65, None, 3):
            self.assertFalse(stats.valid_name(name), name)
        self.assertTrue(stats.valid_name("x" * 64))

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "usd/hr", "queries/s", "%"):
            self.assertTrue(stats.valid_unit(unit), unit)
        for unit in ("", "$/hr", "q per s", "x" * 17):
            self.assertFalse(stats.valid_unit(unit), unit)


class RegressionRule(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertFalse(stats.regressed(10.0, 11.0, 0.1, "lower"))
        self.assertTrue(stats.regressed(10.0, 11.01, 0.1, "lower"))
        self.assertFalse(stats.regressed(10.0, 5.0, 0.1, "lower"))

    def test_higher_is_better(self):
        self.assertFalse(stats.regressed(100.0, 90.0, 0.1, "higher"))
        self.assertTrue(stats.regressed(100.0, 89.9, 0.1, "higher"))
        self.assertFalse(stats.regressed(100.0, 200.0, 0.1, "higher"))

    def test_unknown_direction_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.regressed(1.0, 1.0, 0.1, "sideways")


class AbRule(unittest.TestCase):
    def test_win_share_counts_ties_for_neither(self):
        pairs = [(10.0, 9.0), (10.0, 10.0), (10.0, 11.0), (10.0, 8.0)]
        self.assertEqual(stats.win_share(pairs, "lower"), 0.5)
        self.assertEqual(stats.win_share(pairs, "higher"), 0.25)
        self.assertEqual(stats.win_share([], "lower"), 0.0)

    def test_gain_needs_nine_tenths_and_a_gap_beyond_the_parent_spread(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        faster = [(p, p * 0.8) for p in parent]
        self.assertTrue(stats.gain_shown(faster, "lower"))
        # Every pair won, but by less than the parent's own quartile distance.
        barely = [(p, p - 0.01) for p in parent]
        self.assertFalse(stats.gain_shown(barely, "lower"))
        # A large gap, but only eight of ten pairs won.
        mixed = faster[:8] + [(p, p * 1.5) for p in parent[8:]]
        self.assertFalse(stats.gain_shown(mixed, "lower"))
        higher = [(p, p * 1.3) for p in parent]
        self.assertTrue(stats.gain_shown(higher, "higher"))


if __name__ == "__main__":
    unittest.main()
