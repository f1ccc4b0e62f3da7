"""Empirical-distribution kernel checks."""

from __future__ import annotations

import numpy as np
import pytest

from cfrenewal.stats import (
    EmpiricalDistribution,
    TailReport,
    ks_statistic,
    ks_two_sample,
    ks_uniform,
    uniform_cdf,
)


def test_cdf_right_continuous():
    ed = EmpiricalDistribution.from_samples([0.2, 0.2, 0.6])
    assert ed.cdf(0.1) == 0.0
    assert ed.cdf(0.2) == pytest.approx(2 / 3)
    assert ed.cdf(0.5) == pytest.approx(2 / 3)
    assert ed.cdf(0.6) == 1.0
    assert ed.cdf(2.0) == 1.0


def test_ks_point_mass_at_zero_vs_uniform():
    ed = EmpiricalDistribution.from_samples(np.zeros(50))
    assert ks_uniform(ed) == pytest.approx(1.0)


def test_ks_single_sample_at_half():
    ed = EmpiricalDistribution.from_samples([0.5])
    assert ks_uniform(ed) == pytest.approx(0.5)


def test_ks_exact_uniform_grid():
    m = 100
    ed = EmpiricalDistribution.from_samples([(i - 0.5) / m for i in range(1, m + 1)])
    assert ks_uniform(ed) == pytest.approx(0.005)


def test_ks_statistic_against_custom_cdf():
    ed = EmpiricalDistribution.from_samples([0.25, 0.75])
    d = ks_statistic(ed, lambda t: np.asarray(t) ** 2)
    # F(0.25) = 0.0625 -> D+ = 0.5 - 0.0625; F(0.75) = 0.5625 -> gaps smaller
    assert d == pytest.approx(0.5 - 0.0625)


def test_two_sample_ks():
    a = EmpiricalDistribution.from_samples([0.1, 0.2, 0.3])
    assert ks_two_sample(a, a) == 0.0
    b = EmpiricalDistribution.from_samples([0.6, 0.7, 0.8])
    assert ks_two_sample(a, b) == pytest.approx(1.0)
    c = EmpiricalDistribution.from_samples([0.15, 0.7, 0.9])
    assert 0 < ks_two_sample(a, c) < 1


def test_two_sample_ks_matches_bruteforce():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=37)
    y = rng.uniform(size=61) ** 2
    ex, ey = EmpiricalDistribution.from_samples(x), EmpiricalDistribution.from_samples(y)
    grid = np.concatenate((x, y))
    brute = max(
        abs(np.mean(x <= t) - np.mean(y <= t)) for t in grid
    )
    assert ks_two_sample(ex, ey) == pytest.approx(brute)


def test_tail_report_fields():
    rep = TailReport.build(0.5, 10**6, 0.05, 10**5)
    assert rep.theoretical == pytest.approx(0.050171, abs=1e-5)
    assert rep.ratio == pytest.approx(0.05 / rep.theoretical)
    assert rep.std_error == pytest.approx(np.sqrt(0.05 * 0.95 / 10**5))


def test_uniform_cdf_clamped():
    assert uniform_cdf(np.asarray([-1.0, 0.5, 2.0])).tolist() == [0.0, 0.5, 1.0]


def _seeded_samples():
    rng = np.random.default_rng(27)
    for size in (1, 2, 3, 5000):
        yield rng.standard_normal(size)
        # ties: few distinct values
        yield rng.integers(-3, 4, size).astype(np.float64)
        yield rng.standard_cauchy(size)


@pytest.mark.parametrize("q", [0, 1, 50, 99, 100])
def test_percentile_equals_numpy_bit_for_bit(q):
    for x in _seeded_samples():
        assert EmpiricalDistribution.from_samples(x).percentile(q) == float(np.percentile(x, q)), (len(x), q)


def test_median_equals_numpy_bit_for_bit():
    for x in _seeded_samples():
        assert EmpiricalDistribution.from_samples(x).median() == float(np.median(x)), len(x)


@pytest.mark.parametrize("q", [-1e-9, 100.5, float("nan")])
def test_percentile_outside_0_to_100_is_rejected(q):
    # numpy.percentile rejects these too; without the check -1e-9 would extrapolate below the minimum
    with pytest.raises(ValueError, match=r"q must lie in \[0, 100\]"):
        EmpiricalDistribution.from_samples([0.0, 1.0, 2.0]).percentile(q)
    with pytest.raises(ValueError):
        np.percentile([0.0, 1.0, 2.0], q)
