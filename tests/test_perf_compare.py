#!/usr/bin/env python3
"""The verdict rule of ci/perf_compare.py on synthetic paired samples.

Every case runs twice: as written for a metric where higher is better,
and reflected about the base median (v -> 200 - v) for one where lower
is better, which keeps the base spread and the winner of every pair.
"""
import importlib.util
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "perf_compare", os.path.join(ROOT, "ci", "perf_compare.py"))
perf_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_compare)

# Ten offsets whose quartiles, interpolated linearly, lie 5.5 apart.
OFFSETS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)


def samples(median, spread):
    """Ten values around `median` whose IQR / median is `spread`."""
    scale = spread * median / 5.5
    return [median + scale * offset for offset in OFFSETS]


class VerdictRule(unittest.TestCase):
    def check(self, base, change, bound, expected):
        for better, b, c in (
                ("higher", base, change),
                ("lower", [200.0 - v for v in base],
                 [200.0 - v for v in change])):
            with self.subTest(better=better):
                result = perf_compare.compare(b, c, better, bound)
                self.assertEqual(result["verdict"], expected, result)

    def test_nine_wins_beyond_the_spread_is_better(self):
        base = samples(100.0, 0.065)
        change = [v + 10.0 for v in base]
        change[0] = base[0] - 1.0
        result = perf_compare.compare(base, change, "higher", 0.24)
        self.assertEqual(result["wins"], 9)
        self.assertGreater(result["change"][1] - result["base"][1],
                           result["base"][2] - result["base"][0])
        self.check(base, change, 0.24, "better")

    def test_eight_wins_is_within_bound(self):
        base = samples(100.0, 0.065)
        change = [v + 10.0 for v in base]
        change[0] = base[0] - 1.0
        change[9] = base[9] - 1.0
        self.assertEqual(
            perf_compare.compare(base, change, "higher", 0.24)["wins"], 8)
        self.check(base, change, 0.24, "within bound")

    def test_thirty_percent_worse_with_a_tight_base_is_worse(self):
        base = samples(100.0, 0.05)
        self.assertAlmostEqual(
            perf_compare.compare(base, base, "higher", 0.24)["spread"], 0.05)
        self.check(base, samples(70.0, 0.05), 0.24, "worse")

    def test_spread_beyond_the_bound_is_unresolved(self):
        base = samples(100.0, 0.30)
        change = list(reversed(base))
        self.check(base, change, 0.25, "unresolved")

    def test_spread_beyond_the_bound_resolves_when_every_change_run_wins(self):
        base = samples(100.0, 0.30)
        # 127.75 .. 130.25, above the base's highest run (~127.3), but a
        # median gain (29) below the base IQR (30): not better either.
        change = [129.0 + 0.25 * offset for offset in OFFSETS]
        self.check(base, change, 0.25, "within bound")

    def test_spread_beyond_the_bound_is_worse_when_every_change_run_loses(self):
        base = samples(100.0, 0.30)
        change = [70.0 + 0.5 * offset for offset in OFFSETS]
        self.check(base, change, 0.25, "worse")

    def test_all_ties_are_within_bound(self):
        ones = [1.0] * 10
        self.check(ones, ones, 0.01, "within bound")


class Usage(unittest.TestCase):
    def test_wrong_argument_count_exits_2(self):
        self.assertEqual(perf_compare.main([]), 2)


if __name__ == "__main__":
    unittest.main()
