"""Self-tests of the benchmark's metric arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import metrics  # noqa: E402


def loop(kinds, ns, insts=None, fresh=None, cached=None, keys=None,
         ok=None, pass_ns=(1,), loop_ns=10**9):
    n = len(kinds)
    return {
        "kind": kinds, "ns": ns, "insts": insts or [0] * n,
        "fresh": fresh or [1] * n, "cached": cached or [0] * n,
        "key": keys or [0] * n, "ok": ok or [1] * n,
        "pass_ns": list(pass_ns), "loop_ns": loop_ns,
    }


def verdict(parent, change):
    """verdict() of lower-is-better runs paired by position, bound 0.2."""
    return metrics.verdict(parent, change, "lower", 0.2,
                           metrics.win_rate(parent, change, "lower"))


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))      # 1..100
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([7], 90), 7)

    def test_order_does_not_matter(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(metrics.percentile(values, 90), 5)
        self.assertEqual(metrics.percentile(values, 40), 2)

    def test_p90_has_ten_samples_beyond_at_one_hundred(self):
        # The driver runs at least 100 operations so the reported p90
        # has ten samples beyond it; 99 would leave only nine.
        self.assertEqual(metrics.beyond(100, 90), 10)
        self.assertEqual(metrics.beyond(99, 90), 9)
        self.assertGreaterEqual(metrics.beyond(1000, 90), 10)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)


class Geomean(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(metrics.geomean([2, 8]), 4.0)
        self.assertAlmostEqual(metrics.geomean([5]), 5.0)
        self.assertAlmostEqual(metrics.geomean([1, 10, 100]), 10.0)

    def test_rejects_non_positive(self):
        for bad in ([], [0, 1], [-1, 2]):
            with self.assertRaises(ValueError):
                metrics.geomean(bad)

    def test_sim_mips_takes_each_proxys_median_run(self):
        # Proxy 0: 1000 insts in 2000, 1000 and 500 ns; proxy 1: 4000
        # insts in 1000 ns. Per-proxy MIPS 1000 and 4000.
        raw = loop([0, 0, 0, 0], [2000, 1000, 500, 1000],
                   insts=[1000, 1000, 1000, 4000], keys=[0, 0, 0, 1])
        self.assertAlmostEqual(metrics.sim_mips(metrics._ops(raw)), 2000.0)

    def test_sim_mips_of_requests(self):
        # Requests (kind 1/2): only those that simulated count.
        raw = loop([1, 2, 3], [2000, 1000, 10],
                   insts=[2000, 4000, 0], fresh=[2, 1, 0])
        self.assertAlmostEqual(metrics.sim_mips(metrics._ops(raw)),
                               math.sqrt(1000.0 * 4000.0))


class Failures(unittest.TestCase):
    def test_failure_count(self):
        self.assertEqual(metrics.failure_count([1, 1, 1]), 0)
        self.assertEqual(metrics.failure_count([1, 0, 0, 1]), 2)
        self.assertEqual(metrics.failure_count([]), 0)

    def test_ok_frac_counts_failed_against_attempted(self):
        raw = {"loop": loop([3, 1, 1, 1], [10, 20, 30, 40],
                            fresh=[0, 1, 1, 1], cached=[2, 0, 0, 0],
                            ok=[1, 0, 1, 1]),
               "setup_ns": [5, 7, 6], "peak_rss_kb": 2048}
        e2e = metrics.end_to_end(raw)
        self.assertAlmostEqual(e2e["ok_frac"], 0.75)
        self.assertAlmostEqual(e2e["setup_s"], 6e-9)
        self.assertAlmostEqual(e2e["peak_rss_mb"], 2.0)
        self.assertEqual(e2e["sim_mips"], 0.0)     # nothing simulated

    def test_loop_metrics_of_requests(self):
        raw = loop([3, 3, 2, 1], [2e6, 4e6, 100e6, 50e6],
                   fresh=[0, 0, 2, 2], cached=[10, 10, 0, 0],
                   insts=[0, 0, 5000, 5000], pass_ns=[4e9, 1e9, 1e9],
                   loop_ns=2 * 10**9)
        m = metrics.loop_metrics(raw)
        self.assertAlmostEqual(m["req_ms_p50"], 27.0)
        self.assertAlmostEqual(m["cold_ms_p50"], 75.0)
        self.assertAlmostEqual(m["suite_s"], 2.0)
        self.assertAlmostEqual(m["req_per_s"], 2.0)
        self.assertAlmostEqual(m["cells_per_s"], 2.0)

    def test_cell_latencies_and_rates(self):
        # Proxy 0 ran in 1..7 ms, proxy 1 in 11..17 ms (shuffled);
        # their median runs are 4 and 14 ms. p90 is over every run.
        ns = [7, 3, 1, 6, 2, 5, 4, 17, 11, 15, 13, 12, 16, 14]
        raw = loop([0] * 14, [v * 1e6 for v in ns], insts=[10] * 14,
                   keys=[0] * 7 + [1] * 7, loop_ns=10**12)
        m = metrics.loop_metrics(raw)
        self.assertAlmostEqual(m["req_ms_p50"], 9.0)
        self.assertAlmostEqual(m["cold_ms_p50"], 9.0)
        self.assertAlmostEqual(m["req_ms_p90"], 16.0)
        # An 18 ms pass of two cells, whatever the loop took.
        self.assertAlmostEqual(m["suite_s"], 18e-3)
        self.assertAlmostEqual(m["req_per_s"], 2 / 18e-3)
        self.assertAlmostEqual(m["cells_per_s"], 2 / 18e-3)

    def test_cell_latency_median_is_over_proxy_medians(self):
        # Four proxies, two runs each; median runs 1.5, 3.5, 16 and
        # 30.5 ms. The median of every run, (4 + 12) / 2, would pair
        # proxy 1's slowest run with proxy 2's fastest.
        ns = [1, 2, 3, 4, 12, 20, 30, 31]
        raw = loop([0] * 8, [v * 1e6 for v in ns], insts=[10] * 8,
                   keys=[0, 0, 1, 1, 2, 2, 3, 3])
        m = metrics.loop_metrics(raw)
        self.assertAlmostEqual(m["req_ms_p50"], 9.75)
        self.assertAlmostEqual(m["cold_ms_p50"], 9.75)

    def test_repeated_passes_add_each_proxys_median_run(self):
        # Three passes over proxies 0 and 1: 3+1 ms, 2+2 ms, 9+9 ms.
        raw = loop([0] * 6, [3e6, 1e6, 2e6, 2e6, 9e6, 9e6],
                   insts=[10] * 6, keys=[0, 1] * 3,
                   pass_ns=[4e6, 4e6, 18e6])
        self.assertAlmostEqual(metrics.loop_metrics(raw)["suite_s"], 5e-3)


class BoundCheck(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(metrics.quartiles(values), (q1, q3))
        self.assertEqual(metrics.quartiles([7]), (7, 7))

    def test_spread_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(metrics.spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(metrics.worse_by([10] * 3, [11] * 3,
                                                "lower"), 0.1)
        self.assertAlmostEqual(metrics.worse_by([10] * 3, [11] * 3,
                                                "higher"), -0.1)

    def test_regression_beyond_bound(self):
        parent = [100, 101, 99, 100, 100, 102, 98, 100, 101, 99]
        slower = [v * 1.3 for v in parent]
        self.assertEqual(verdict(parent, slower), "regressed")
        self.assertEqual(verdict(parent, parent), "unchanged")

    def test_within_bound_is_not_a_regression(self):
        parent = [100, 101, 99, 100, 100, 102, 98, 100, 101, 99]
        slower = [v * 1.1 for v in parent]
        self.assertEqual(verdict(parent, slower), "unchanged")

    def test_nine_in_ten_win_rule(self):
        parent = [100, 101, 99, 100, 100, 102, 98, 100, 101, 99]
        nine = [v * 0.8 for v in parent[:9]] + [200]
        eight = [v * 0.8 for v in parent[:8]] + [200, 200]
        self.assertEqual(metrics.win_rate(parent, nine, "lower"), 0.9)
        self.assertEqual(verdict(parent, nine), "improved")
        self.assertEqual(verdict(parent, eight), "unchanged")
        # Runs of other seeds make no pairs, so no gain is claimed.
        self.assertEqual(metrics.verdict(parent, nine, "lower", 0.2, 0.0),
                         "unchanged")

    def test_ties_count_for_neither(self):
        self.assertEqual(metrics.win_rate([1, 2], [1, 1], "lower"), 0.5)

    def test_unresolved_when_spread_exceeds_bound(self):
        parent = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
        change = [v * 1.05 for v in parent]
        self.assertEqual(verdict(parent, change), "unresolved")


if __name__ == "__main__":
    unittest.main()
