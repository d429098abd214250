"""The seed sweep's statistics on a table of pulls worked by hand.

Only ``scenarios.pull_report`` runs: no worker process starts.
"""

import math

import pytest

from scenarios import pull_report


def _phi(x):
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def test_pull_report_matches_hand_computed_statistics():
    seeds = [7, 8, 9]
    rows = [{"50": -1.0, "800": -1.5}, {"50": -1.2, "800": -2.5}, {"50": -1.5, "800": -3.0}]
    report = pull_report(seeds, rows, gate_sigma=2.0)

    # Every sample's largest pull m has Phi(m) < 1/n, so its KS distance from
    # N(0, 1) is D = 1 - Phi(m) > 1 - 1/n, where the exact law is
    # P(D_n >= D) = 2 (1 - D)**n = 2 Phi(m)**n.
    def expected(n, mean, sum_sq_dev, largest):
        sd = math.sqrt(sum_sq_dev / (n - 1))
        return {"n": n, "mean": mean, "mean_se": sd / math.sqrt(n), "sd": sd,
                "ks_p_vs_unit_normal": 2.0 * _phi(largest) ** n}

    # "50": mean -3.7/3, deviations (0.7, 0.1, -0.8)/3
    # "800": mean -7/3, deviations (2.5, -0.5, -2.0)/3
    # all six: sum of squares 22.19, sum -10.7
    hand = {"50": expected(3, -3.7 / 3, (0.49 + 0.01 + 0.64) / 9, -1.0),
            "800": expected(3, -7.0 / 3, (6.25 + 0.25 + 4.0) / 9, -1.5)}
    assert report["per_point"] == {p: pytest.approx(v, rel=1e-9) for p, v in hand.items()}
    assert report["all_points"] == pytest.approx(
        expected(6, -10.7 / 6, 22.19 - 10.7**2 / 6, -1.0), rel=1e-9)
    # |pull| > 2 at seeds 8 (-2.5) and 9 (-3.0)
    assert report["gate_failures"] == 2
    assert report["gate_failure_share"] == pytest.approx(2 / 3, rel=1e-15)
    assert report["failing_master_seeds"] == [8, 9]
