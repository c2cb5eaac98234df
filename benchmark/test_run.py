#!/usr/bin/env python3
"""Unit tests for run.py's statistics, verdicts and pin check.

  python3 benchmark/test_run.py
"""
import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class SummarizeTest(unittest.TestCase):
    def test_odd_count_matches_statistics_module(self):
        v = [5.0, 1.0, 4.0, 2.0, 3.0]
        s = run.summarize(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        self.assertEqual(s, {"median": 3.0, "q1": q1, "q3": q3, "n": 5})

    def test_even_count(self):
        s = run.summarize([1.0, 2.0, 3.0, 4.0])
        self.assertEqual(s["median"], 2.5)
        self.assertEqual((s["q1"], s["q3"]), (1.25, 3.75))

    def test_single_sample_has_zero_spread(self):
        s = run.summarize([7.0])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["n"]),
                         (7.0, 7.0, 7.0, 1))
        self.assertEqual(run.rel_spread([7.0]), 0.0)

    def test_rel_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(run.rel_spread([1.0, 2.0, 3.0, 4.0]), 2.5 / 2.5)


class VerdictTest(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]

    def test_identical_runs_are_same(self):
        self.assertEqual(
            run.verdict(self.parent, list(self.parent), "lower", 0.1), "same")

    def test_clear_gain_with_ten_pairs_is_better(self):
        change = [x * 0.8 for x in self.parent]
        self.assertEqual(run.verdict(self.parent, change, "lower", 0.1),
                         "better")

    def test_gain_needs_ten_pairs(self):
        change = [x * 0.8 for x in self.parent[:5]]
        self.assertEqual(run.verdict(self.parent[:5], change, "lower", 0.1),
                         "same")

    def test_gain_needs_nine_tenths_of_pairs(self):
        change = [x * 0.95 for x in self.parent]
        change[0], change[1] = 11.0, 11.0  # two losing pairs of ten
        self.assertEqual(run.verdict(self.parent, change, "lower", 0.1),
                         "same")

    def test_loss_beyond_bound_is_worse(self):
        change = [x * 1.2 for x in self.parent]
        self.assertEqual(run.verdict(self.parent, change, "lower", 0.1),
                         "worse")

    def test_loss_within_bound_is_same(self):
        change = [x * 1.05 for x in self.parent]
        self.assertEqual(run.verdict(self.parent, change, "lower", 0.1),
                         "same")

    def test_higher_is_better_direction(self):
        change = [x * 1.3 for x in self.parent]
        self.assertEqual(run.verdict(self.parent, change, "higher", 0.1),
                         "better")
        change = [x * 0.7 for x in self.parent]
        self.assertEqual(run.verdict(self.parent, change, "higher", 0.1),
                         "worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0]
        self.assertEqual(run.verdict(noisy, [6.0, 14.0, 9.0, 11.0, 10.0],
                                     "lower", 0.1), "unresolved")

    def test_wide_spread_but_disjoint_samples(self):
        # Too few pairs to claim a gain, but clear of a regression.
        noisy = [50.0, 60.0, 70.0, 80.0]
        self.assertEqual(run.verdict(noisy, [10.0, 12.0, 14.0, 16.0],
                                     "lower", 0.1), "same")
        self.assertEqual(run.verdict(noisy, [100.0, 120.0, 140.0, 160.0],
                                     "lower", 0.1), "worse")

    def test_wide_spread_gain_with_ten_pairs_is_better(self):
        noisy = [50.0, 80.0, 60.0, 70.0, 55.0, 75.0, 65.0, 52.0, 78.0, 68.0]
        change = [x / 2 for x in noisy]
        self.assertEqual(run.verdict(noisy, change, "lower", 0.1), "better")


class PinTest(unittest.TestCase):
    def test_count_failed(self):
        ref = ["a", "b", "c"]
        self.assertEqual(run.count_failed([ref, ref], ref), 0)
        self.assertEqual(run.count_failed([ref, ["a", "x", "c"]], ref), 1)
        self.assertEqual(run.count_failed([["a", "b"]], ref), 3)

    def test_pins_apply_only_at_their_seed(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "pins.json")
            with open(path, "w") as f:
                json.dump({"w": {"seed": 1, "cells": ["p0", "p1"]}}, f)
            saved, run.PINS = run.PINS, path
            try:
                self.assertEqual(run.reference_digests("w", 1, ["x"]),
                                 ["p0", "p1"])
                self.assertEqual(run.reference_digests("w", 2, ["x"]), ["x"])
                self.assertEqual(run.reference_digests("v", 1, ["x"]), ["x"])
            finally:
                run.PINS = saved

    def test_result_line_reports_failure(self):
        line = json.loads(run.result_line(
            {"attempted": 4, "failed": 1}, {"m": {"value": 1.5, "unit": "s"}}))
        self.assertEqual(sorted(line), ["attempted", "correct", "failed",
                                        "metrics"])
        self.assertFalse(line["correct"])


if __name__ == "__main__":
    unittest.main()
