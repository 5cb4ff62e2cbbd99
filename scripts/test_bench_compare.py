#!/usr/bin/env python3
"""Unit checks of scripts/bench_compare.py's verdict rule and family table.

    python3 scripts/test_bench_compare.py
"""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_compare import family_table, verdict  # noqa: E402

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


class FamilyTable(unittest.TestCase):
    def test_each_class_reads_each_sides_median(self):
        parent = [{"family_ms_per_op": {"hit": 0.5, "miss": 3.0, "trace": 2.0},
                   "host_speed": {"scale": 0.8}},
                  {"family_ms_per_op": {"hit": 0.7, "miss": 3.4, "trace": 2.2},
                   "host_speed": {"scale": 0.6}},
                  {"family_ms_per_op": {"hit": 0.6, "miss": 3.2, "trace": 2.1},
                   "host_speed": {"scale": 0.7}}]
        change = [{"family_ms_per_op": {"hit": 0.1, "miss": 3.1, "trace": 2.1}},
                  {"family_ms_per_op": {"hit": 0.09, "miss": 3.3, "bind": 1.0}},
                  {"family_ms_per_op": {"hit": 0.11, "miss": 3.2, "trace": 2.1}}]
        self.assertEqual(family_table(parent, change), [
            "  host speed scale, median: parent 0.7  change -",
            "  bind           parent - ms/op  change 1 ms/op  n/a",
            "  hit            parent 0.6 ms/op  change 0.1 ms/op  -83.3%",
            "  miss           parent 3.2 ms/op  change 3.2 ms/op  +0.0%",
            "  trace          parent 2.1 ms/op  change 2.1 ms/op  +0.0%",
        ])

    def test_runs_without_families_print_nothing(self):
        self.assertEqual(family_table([{}, {}], [{}, {}]), [])


if __name__ == "__main__":
    unittest.main()
