"""Unit tests for the run-set statistics in compare.py."""

import statistics
import unittest

import compare


class SpreadTest(unittest.TestCase):
    def test_iqr_share_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(compare.iqr_share(values),
                               (q3 - q1) / statistics.median(values))

    def test_iqr_share_of_constant_values_is_zero(self):
        self.assertEqual(compare.iqr_share([5.0] * 10), 0.0)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(compare.worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(compare.worse_by(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(compare.worse_by(100, 80, "higher"), 0.20)


class PairWinTest(unittest.TestCase):
    def test_counts_wins_losses_and_ties_per_pair(self):
        base = [10, 10, 10, 10]
        new = [9, 11, 10, 8]
        self.assertEqual(compare.pair_wins(base, new, "lower"), (2, 1, 1))
        self.assertEqual(compare.pair_wins(base, new, "higher"), (1, 2, 1))


class VerdictTest(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_regression_beyond_bound(self):
        new = [v * 1.3 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, new, "lower", 0.1),
                         "regression")

    def test_change_within_bound_is_not_a_regression(self):
        new = [v * 1.05 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, new, "lower", 0.1),
                         "unchanged")

    def test_gain_needs_nine_tenths_of_pairs(self):
        faster = [v * 0.9 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, faster, "lower", 0.1),
                         "gain")
        mixed = faster[:8] + [v * 1.01 for v in self.BASE[8:]]
        self.assertEqual(compare.verdict(self.BASE, mixed, "lower", 0.1),
                         "unchanged")

    def test_wide_spread_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0]
        same = list(reversed(noisy))
        self.assertEqual(compare.verdict(noisy, same, "lower", 0.1),
                         "unresolved")

    def test_higher_is_better_direction(self):
        slower = [v * 0.7 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, slower, "higher", 0.1),
                         "regression")

    def test_compare_rows_cover_shared_metrics(self):
        base = [{"workload": "w", "seed": s, "metrics": {"m": v}}
                for s, v in enumerate(self.BASE)]
        new = [{"workload": "w", "seed": s, "metrics": {"m": v * 1.3}}
               for s, v in enumerate(self.BASE)]
        rows = compare.compare(base, new, [
            {"name": "m", "better": "lower", "bound": 0.1},
            {"name": "absent", "better": "lower", "bound": 0.1}])
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0][-1], "regression")

    def test_compare_rejects_incorrect_runs(self):
        base = [{"workload": "w", "seed": s, "correct": True,
                 "metrics": {"m": v}} for s, v in enumerate(self.BASE)]
        new = [dict(r) for r in base]
        new[3]["correct"] = False
        spec = [{"name": "m", "better": "lower", "bound": 0.1}]
        with self.assertRaises(ValueError):
            compare.compare(base, new, spec)
        self.assertEqual(len(compare.compare(base, base, spec)), 1)


if __name__ == "__main__":
    unittest.main()
