"""Conditional-law digit sampler: exact marginals and agreement with the
certified extraction path."""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest

from cfrenewal import sampling
from cfrenewal.bits import block64, stream_key, uniform_from_block
from cfrenewal.exact import DigitStream
from cfrenewal.experiments import ExperimentConfig, fluctuation_samples
from cfrenewal.farey import ly_orbit, ly_spent_time
from cfrenewal.sampling import (
    digit_sum_crossings,
    digit_sums_at,
    ly_last_visits,
    orbit_checkpoints,
    sampled_digits,
)
from cfrenewal.stats import EmpiricalDistribution, ks_two_sample


def test_first_digit_matches_lebesgue_cell_measures():
    n = 40_000
    first = np.array([next(sampled_digits(11, t)) for t in range(n)])
    for m in range(1, 8):
        exact = 1.0 / (m * (m + 1))
        emp = float(np.mean(first == m))
        assert emp == pytest.approx(exact, abs=4 * np.sqrt(exact / n) + 1e-3)


def test_digit_pair_law_matches_exact_cylinders():
    # P(a2 >= m | a1 = j) = (j + 1)/(j*m + 1), from the cylinder lengths
    n = 60_000
    pairs = np.array([list(islice(sampled_digits(13, t), 2)) for t in range(n)])
    for j in (1, 2, 3):
        sel = pairs[pairs[:, 0] == j, 1]
        assert len(sel) > 1000
        for m in (1, 2, 3):
            exact = (j + 1) / (j * m + 1)
            emp = float(np.mean(sel >= m))
            assert emp == pytest.approx(exact, abs=5 * np.sqrt(0.25 / len(sel)) + 1e-3)


def _scalar_crossings(seed: int, trial: int, horizons) -> list[int]:
    """X_n of one trial for each horizon, by walking :func:`sampled_digits`."""
    digits = sampled_digits(seed, trial)
    s, a, out = 0, next(digits), []
    for h in horizons:
        while s + a <= h:
            s += a
            a = next(digits)
        out.append(s)
    return out


def test_vectorized_crossings_equal_scalar_walk():
    horizons = [73, 1000]
    x = digit_sum_crossings(5, np.arange(60, dtype=np.uint64), horizons)
    for t in range(60):
        assert x[t].tolist() == _scalar_crossings(5, t, horizons)


def test_crossings_equal_scalar_walk_through_compaction(monkeypatch):
    # horizons a decade apart retire lanes in waves, so compaction fires repeatedly
    horizons = (5, 50, 500, 5000)
    trials = 400
    kept = []
    keep = sampling._DigitLanes.keep

    def counting_keep(lanes, live):
        kept.append(len(live))
        keep(lanes, live)

    monkeypatch.setattr(sampling._DigitLanes, "keep", counting_keep)
    x = digit_sum_crossings(17, np.arange(trials, dtype=np.uint64), horizons)
    assert len(kept) >= 3 and kept[0] == trials
    for t in range(trials):
        assert x[t].tolist() == _scalar_crossings(17, t, horizons)


def _scalar_last_visits(seed: int, trial: int, horizons) -> list[int]:
    """Last Lasota-Yorke visit time <= n for each horizon, one laminar run per block."""
    key = stream_key(seed, trial)
    s, t, j, out = 0.0, -1, 0, []
    for h in horizons:
        while True:
            v = uniform_from_block(block64(key, j))
            run = int((1.0 + s) * (1.0 - v) / v)
            if t + run + 1 > h:
                break
            j += 1
            after = s + run
            s = after / (after + 2.0)
            t += run + 1
        out.append(t)
    return out


def test_ly_last_visits_equal_scalar_walk_through_compaction(monkeypatch):
    horizons = (5, 50, 500, 5000)
    trials = 400
    kept = []
    keep = sampling._RunLanes.keep

    def counting_keep(lanes, live):
        kept.append(len(live))
        keep(lanes, live)

    monkeypatch.setattr(sampling._RunLanes, "keep", counting_keep)
    last = ly_last_visits(17, np.arange(trials, dtype=np.uint64), horizons)
    assert len(kept) >= 3 and kept[0] == trials
    for t in range(trials):
        assert last[t].tolist() == _scalar_last_visits(17, t, horizons)


def test_refilled_lanes_equal_scalar_walk(monkeypatch):
    # a 64-lane pool for 1000 trials: retired slots take pending trials, then compact
    monkeypatch.setattr(sampling, "_LANES", 64)
    horizons = (5, 50, 500, 5000)
    trials = np.arange(1000, dtype=np.uint64)
    for lane_cls, run, scalar in (
        (sampling._DigitLanes, digit_sum_crossings, _scalar_crossings),
        (sampling._RunLanes, ly_last_visits, _scalar_last_visits),
    ):
        calls = {"restart": 0, "keep": 0}
        for name in calls:
            method = getattr(lane_cls, name)

            def counting(lanes, *args, _name=name, _method=method):
                calls[_name] += 1
                _method(lanes, *args)

            monkeypatch.setattr(lane_cls, name, counting)
        out = run(19, trials, horizons)
        assert calls["restart"] >= 3 and calls["keep"] >= 3
        for t in range(len(trials)):
            assert out[t].tolist() == scalar(19, t, horizons)


def test_digit_sums_at_lane_blocks_equal_one_block(monkeypatch):
    trials = np.arange(200, dtype=np.uint64)
    cps = (3, 40, 200)
    whole = digit_sums_at(29, trials, cps)
    monkeypatch.setattr(sampling, "_LANES", 64)  # blocks of 64, 64, 64 and 8 lanes
    assert np.array_equal(digit_sums_at(29, trials, cps), whole)


def test_rows_independent_of_neighbouring_lanes(monkeypatch):
    trials = 300
    horizons = (5, 50, 500, 5000)
    cps = (3, 40, 200)
    both = np.arange(2 * trials, dtype=np.uint64)
    order = np.random.default_rng(4).permutation(trials).astype(np.uint64)
    # a pool wider than the trials, then one narrower than them, so lanes are refilled
    for lanes in (sampling._LANES, 64):
        monkeypatch.setattr(sampling, "_LANES", lanes)
        for run, args in ((digit_sum_crossings, horizons), (digit_sums_at, cps), (ly_last_visits, horizons)):
            base = run(23, both, args)
            # shuffled lanes, the offset block t + trials, and lone lanes
            assert np.array_equal(run(23, order, args), base[order])
            assert np.array_equal(run(23, both[trials:], args), base[trials:])
            for t in (0, 7, trials + 11, 2 * trials - 1):
                assert np.array_equal(run(23, np.array([t], dtype=np.uint64), args)[0], base[t])


def test_digit_sums_at_equal_scalar_walk():
    cps = [10, 50]
    out = digit_sums_at(21, np.arange(40, dtype=np.uint64), cps)
    for t in range(40):
        digs = list(islice(sampled_digits(21, t), 50))
        assert out[t, 0] == sum(digs[:10])
        assert out[t, 1] == sum(digs)


def test_orbit_checkpoints_consistency():
    recs = orbit_checkpoints(7, 0, [100, 1000])
    digs = list(islice(sampled_digits(7, 0), 1000))
    assert recs[0]["S"] == sum(digs[:100])
    assert recs[1]["S"] == sum(digs)
    assert recs[1]["max_digit"] == max(digs)
    assert recs[1]["trimmed"] == sum(digs) - max(digs)
    gm = np.exp(np.mean(np.log(digs)))
    assert recs[1]["geometric_mean"] == pytest.approx(gm, rel=1e-12)


def test_sampled_digits_deterministic():
    a = list(islice(sampled_digits(1234, 56), 200))
    b = list(islice(sampled_digits(1234, 56), 200))
    assert a == b


def test_sampled_vs_certified_scaled_gap_distribution():
    # end-to-end law agreement between the two digit mechanisms
    n = 200
    trials = 1500
    cfg_e = ExperimentConfig(master_seed=55, trials=trials, horizons=(n,), digit_source="exact")
    cfg_s = ExperimentConfig(master_seed=55, trials=trials, horizons=(n,), digit_source="sampled")
    scaled_e = fluctuation_samples(cfg_e).scaled(n)
    scaled_s = fluctuation_samples(cfg_s).scaled(n)
    ks = ks_two_sample(
        EmpiricalDistribution.from_samples(scaled_e),
        EmpiricalDistribution.from_samples(scaled_s),
    )
    assert ks <= 1.63 * np.sqrt(2 / trials)  # ~1% two-sample KS band


def test_sampled_vs_certified_digit_frequencies():
    certified = []
    for t in range(400):
        st = DigitStream.from_seed(31, t)
        certified.extend(st.digit(k) for k in range(1, 26))
    sampled = [a for t in range(400) for a in islice(sampled_digits(31, t + 10**6), 25)]
    cert = np.asarray(certified)
    samp = np.asarray(sampled)
    for m in (1, 2, 3, 4):
        assert np.mean(cert == m) == pytest.approx(np.mean(samp == m), abs=0.02)


def test_ly_chain_matches_exact_lazy_orbit():
    n = 200
    trials = 1200
    exact_sigma = np.array(
        [ly_spent_time(ly_orbit(77, t), n).sigma_n for t in range(trials)], dtype=float
    )
    last = ly_last_visits(77, np.arange(10**6, 10**6 + trials, dtype=np.uint64), [n])[:, 0]
    chain_sigma = np.where(last >= 0, n - last, n).astype(float)
    ks = ks_two_sample(
        EmpiricalDistribution.from_samples(exact_sigma),
        EmpiricalDistribution.from_samples(chain_sigma),
    )
    assert ks <= 1.63 * np.sqrt(2 / trials)


def test_ly_never_visited_probability():
    # P(no visit to (1/2,1] within [0,n]) = 1/(n+2): the first laminar run
    # exceeds n exactly when the start lies below 1/(n+2)
    trials = 30_000
    n = 48
    last = ly_last_visits(3, np.arange(trials, dtype=np.uint64), [n])[:, 0]
    emp = float(np.mean(last < 0))
    assert emp == pytest.approx(1.0 / (n + 2), abs=4 * np.sqrt(0.02 / trials))


def test_crossings_reject_bad_horizons():
    with pytest.raises(ValueError):
        digit_sum_crossings(1, np.arange(3, dtype=np.uint64), [10, 10])
    with pytest.raises(ValueError):
        digit_sums_at(1, np.arange(3, dtype=np.uint64), [])
    with pytest.raises(ValueError):
        ly_last_visits(1, np.arange(3, dtype=np.uint64), [5, 2])
