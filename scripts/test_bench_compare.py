#!/usr/bin/env python3
"""Unit checks of scripts/bench_compare.py's verdict rule.

    python3 scripts/test_bench_compare.py
"""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_compare import verdict  # noqa: E402

HIGHER = {"better": "higher", "bound": 0.24}
LOWER = {"better": "lower", "bound": 0.24}


class Verdict(unittest.TestCase):
    def test_ten_won_pairs_beyond_the_parents_iqr_are_a_gain(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [120, 121, 119, 120, 122, 118, 120, 121, 119, 120]
        self.assertEqual(verdict(HIGHER, parent, change), ("gain", 10))
        self.assertEqual(verdict(LOWER, change, parent), ("gain", 10))

    def test_nine_of_ten_is_still_a_gain(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [120, 121, 119, 120, 122, 118, 120, 121, 119, 99]
        self.assertEqual(verdict(HIGHER, parent, change), ("gain", 9))

    def test_fewer_than_ten_pairs_cannot_claim_a_gain(self):
        parent = [100, 101, 99, 100, 102]
        change = [120, 121, 119, 120, 122]
        self.assertEqual(verdict(HIGHER, parent, change), ("too few pairs", 5))
        self.assertEqual(verdict(HIGHER, parent * 2, change * 2), ("gain", 10))

    def test_eight_of_ten_is_within(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [110, 111, 109, 110, 112, 108, 110, 111, 90, 90]
        self.assertEqual(verdict(HIGHER, parent, change), ("within", 8))

    def test_a_gain_inside_the_parents_iqr_is_within(self):
        parent = [80, 120, 80, 120, 80, 120, 80, 120, 80, 120]
        change = [121, 121, 121, 121, 121, 121, 121, 121, 121, 121]
        # Spread 0.4 over a 0.24 bound, but every change run beats every
        # parent run, so the spread does not leave it unresolved.
        self.assertEqual(verdict(HIGHER, parent, change), ("within", 10))

    def test_worse_than_the_bound_is_a_regression(self):
        parent = [100] * 10
        change = [70] * 10
        self.assertEqual(verdict(HIGHER, parent, change), ("regression", 0))
        self.assertEqual(verdict(LOWER, change, parent), ("regression", 0))

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        parent = [60, 140, 60, 140, 60, 140, 60, 140, 60, 140]
        change = [100] * 10
        self.assertEqual(verdict(HIGHER, parent, change), ("unresolved", 5))


if __name__ == "__main__":
    unittest.main()
