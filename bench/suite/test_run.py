#!/usr/bin/env python3
"""Unit tests for bench/suite/run.py: statistics, verdicts, parsing and
the result schema check. Run: python3 bench/suite/test_run.py"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "ops_s", "unit": "1/s", "better": "higher", "bound": 0.05},
        {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.05},
    ],
    "per_layer": [
        {"name": "storage.read.calls", "unit": "count", "better": "lower"},
    ],
}


def result(metrics, correct=True, attempted=3, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


class StatisticsTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertEqual(run.quartiles(values), (2.75, 5.5, 8.25))

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(run.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               5.5 / 5.5)
        self.assertEqual(run.spread([4.0] * 10), 0.0)

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(run.worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(run.worse_by(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(run.worse_by(100, 90, "higher"), 0.10)
        self.assertEqual(run.worse_by(0, 1, "lower"), math.inf)

    def test_wins_ignore_ties(self):
        parent = [10, 10, 10, 10]
        change = [9, 10, 11, 8]
        self.assertEqual(run.wins(parent, change, "lower"), 2)
        self.assertEqual(run.wins(parent, change, "higher"), 1)


class VerdictTest(unittest.TestCase):
    parent = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7,
              100.0]

    def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr(self):
        change = [v - 5 for v in self.parent]
        self.assertEqual(run.verdict(self.parent, change, "lower", 0.05),
                         "gain")
        # 8/10 wins is not enough, even with a large gap.
        mixed = change[:8] + [200.0, 200.0]
        self.assertNotEqual(
            run.verdict(self.parent, mixed, "lower", 0.05), "gain")

    def test_small_gap_within_the_parent_iqr_is_no_gain(self):
        change = [v - 0.05 for v in self.parent]
        self.assertEqual(run.verdict(self.parent, change, "lower", 0.05),
                         "unchanged")

    def test_worse_beyond_bound(self):
        change = [v * 1.08 for v in self.parent]
        self.assertEqual(run.verdict(self.parent, change, "lower", 0.05),
                         "worse")
        self.assertEqual(run.verdict(self.parent, change, "higher", 0.05),
                         "gain")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0,
                 100.0]
        change = [v * 1.02 for v in noisy]
        self.assertEqual(run.verdict(noisy, change, "lower", 0.05),
                         "unresolved")

    def test_noisy_but_every_change_run_better_is_reported_better(self):
        # Skewed parent: its IQR (~43) dwarfs the 2-unit gap, so no gain.
        skewed = [99.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 140.0,
                  150.0, 160.0]
        change = [98.0] * 10
        self.assertEqual(run.verdict(skewed, change, "lower", 0.05),
                         "better")
        change[0] = 101.0
        self.assertEqual(run.verdict(skewed, change, "lower", 0.05),
                         "unresolved")


class JudgeWorkloadTest(unittest.TestCase):
    metrics = SPEC["end_to_end"][:1]

    @staticmethod
    def runs(values, failed, attempted=100):
        return [{"metrics": {"ops_s": v}, "failed": failed,
                 "attempted": attempted} for v in values]

    def test_more_failures_is_worse_and_denies_the_gain(self):
        parent = self.runs(VerdictTest.parent, failed=0)
        change = self.runs([v + 10 for v in VerdictTest.parent], failed=1)
        self.assertEqual(run.judge_workload(parent, change, self.metrics),
                         [("failed_frac", "worse"),
                          ("ops_s", "denied: more failures")])

    def test_failures_compare_as_shares_of_attempts(self):
        parent = self.runs(VerdictTest.parent, failed=1, attempted=100)
        change = self.runs([v + 10 for v in VerdictTest.parent], failed=1,
                           attempted=200)
        self.assertEqual(run.judge_workload(parent, change, self.metrics),
                         [("failed_frac", "better"), ("ops_s", "gain")])
        self.assertEqual(run.failed_share(change), (10, 2000))


class SetsTest(unittest.TestCase):
    def test_agreeing_steady_sets_pass(self):
        sets = [[100, 101, 99, 100, 100], [100, 100, 101, 99, 100]]
        self.assertEqual(run.sets_failures(sets, "higher", 0.05), [])

    def test_median_gap_fails(self):
        sets = [[100, 101, 99, 100, 100], [90, 91, 89, 90, 90]]
        problems = run.sets_failures(sets, "higher", 0.05)
        self.assertEqual(len(problems), 1)
        self.assertIn("median", problems[0])

    def test_spread_fails_unless_exempt(self):
        sets = [[50, 150, 100, 80, 120], [100, 100, 100, 100, 100]]
        self.assertTrue(run.sets_failures(sets, "lower", 0.05))
        self.assertEqual(
            run.sets_failures(sets, "lower", 0.05, exempt_spread=True), [])


class ParseTest(unittest.TestCase):
    def test_results_follow_their_audit_lines(self):
        stdout = "\n".join([
            "# pccheck_bench build=RelWithDebInfo",
            "a ops_s 1.5 1/s",
            "a audit ok attempted=3 failed=0: fine",
            '{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}',
            "b audit FAIL attempted=1 failed=1: broken",
            '{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}',
        ])
        parsed = run.parse_results(stdout)
        self.assertEqual(sorted(parsed), ["a", "b"])
        self.assertFalse(parsed["b"]["correct"])

    def test_stray_json_without_audit_line_is_ignored(self):
        self.assertEqual(run.parse_results('{"x": 1}\n'), {})


class SchemaTest(unittest.TestCase):
    def test_valid_result(self):
        r = result({"ops_s": (12.5, "1/s"), "op_ms_p50": (3.0, "ms")})
        self.assertEqual(run.check_result(r, SPEC, traced=False), [])

    def test_missing_metric_only_fails_when_required(self):
        r = result({"ops_s": (12.5, "1/s")})
        self.assertEqual(run.check_result(r, SPEC, False, require_all=False),
                         [])
        self.assertEqual(run.check_result(r, SPEC, False),
                         ["missing metric op_ms_p50"])

    def test_bad_unit_zero_value_and_unknown_metric(self):
        r = result({"ops_s": (0, "1/s"), "op_ms_p50": (3.0, "s"),
                    "extra": (1, "s")})
        errors = run.check_result(r, SPEC, traced=False)
        self.assertEqual(len(errors), 3)

    def test_per_layer_metrics_may_be_zero(self):
        r = result({"storage.read.calls": (0, "count")})
        self.assertEqual(run.check_result(r, SPEC, traced=True), [])

    def test_top_level_keys_and_counts(self):
        self.assertTrue(run.check_result({"metrics": {}}, SPEC, False))
        r = result({"ops_s": (1.0, "1/s"), "op_ms_p50": (1.0, "ms")},
                   attempted=0)
        self.assertEqual(run.check_result(r, SPEC, False),
                         ["attempted is below 1"])
        r = result({"ops_s": (1.0, "1/s"), "op_ms_p50": (1.0, "ms")},
                   failed=1.5)
        self.assertEqual(len(run.check_result(r, SPEC, False)), 1)


if __name__ == "__main__":
    unittest.main()
