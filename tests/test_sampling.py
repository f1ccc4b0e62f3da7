"""Conditional-law digit sampler: exact marginals and agreement with the
certified extraction path."""

from __future__ import annotations

from itertools import accumulate, islice

import numpy as np
import pytest

from cfrenewal import sampling
from cfrenewal.bits import _ROWS, block64, stream_key, uniform_from_block
from cfrenewal.exact import DigitStream, orbit_records
from cfrenewal.experiments import ExperimentConfig, fluctuation_samples
from cfrenewal.farey import ly_orbit, renewal_trace
from cfrenewal.sampling import (
    digit_sum_crossings,
    digit_sums_at,
    ly_last_visits,
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
    keep = sampling.UniformLanes.keep

    def counting_keep(uniforms, live):
        kept.append(len(live))
        keep(uniforms, live)

    monkeypatch.setattr(sampling.UniformLanes, "keep", counting_keep)
    x = digit_sum_crossings(17, np.arange(trials, dtype=np.uint64), horizons)
    assert len(kept) >= 3 and kept[0] == trials
    for t in range(trials):
        assert x[t].tolist() == _scalar_crossings(17, t, horizons)


def _ly_gaps(seed: int, trial: int):
    """Endless gaps ``run + 1`` between Lasota-Yorke visits, one laminar run per block."""
    key = stream_key(seed, trial)
    s, j = 0.0, 0
    while True:
        v = uniform_from_block(block64(key, j))
        run = int((1.0 + s) * (1.0 - v) / v)
        yield run + 1
        after = s + run
        s = after / (after + 2.0)
        j += 1


def _scalar_last_visits(seed: int, trial: int, horizons) -> list[int]:
    """Last Lasota-Yorke visit time <= n for each horizon, by walking :func:`_ly_gaps`."""
    gaps = _ly_gaps(seed, trial)
    t, g, out = -1, next(gaps), []
    for h in horizons:
        while t + g <= h:
            t += g
            g = next(gaps)
        out.append(t)
    return out


def test_ly_last_visits_equal_scalar_walk_through_compaction(monkeypatch):
    horizons = (5, 50, 500, 5000)
    trials = 400
    kept = []
    keep = sampling.UniformLanes.keep

    def counting_keep(uniforms, live):
        kept.append(len(live))
        keep(uniforms, live)

    monkeypatch.setattr(sampling.UniformLanes, "keep", counting_keep)
    last = ly_last_visits(17, np.arange(trials, dtype=np.uint64), horizons)
    assert len(kept) >= 3 and kept[0] == trials
    for t in range(trials):
        assert last[t].tolist() == _scalar_last_visits(17, t, horizons)


def test_refilled_lanes_equal_scalar_walk(monkeypatch):
    # a 64-lane pool for 1000 trials: retired slots take pending trials, then
    # compact, and both happen only at the end of a block of steps
    monkeypatch.setattr(sampling, "_LANES", 64)
    horizons = (5, 50, 500, 5000)
    trials = np.arange(1000, dtype=np.uint64)
    lane_methods = {name: getattr(sampling.UniformLanes, name) for name in ("restart", "keep")}
    for step, run, scalar in (
        ("_digit_step", digit_sum_crossings, _scalar_crossings),
        ("_run_step", ly_last_visits, _scalar_last_visits),
    ):
        calls = {"step": 0, "restart": 0, "keep": 0}
        at_steps = []
        wrapped = [(sampling, step, "step", getattr(sampling, step))]
        wrapped += [(sampling.UniformLanes, name, name, method) for name, method in lane_methods.items()]
        for owner, attr, name, fn in wrapped:

            def counting(*args, _name=name, _fn=fn):
                calls[_name] += 1
                if _name != "step":
                    at_steps.append(calls["step"])
                return _fn(*args)

            monkeypatch.setattr(owner, attr, counting)
        out = run(19, trials, horizons)
        assert calls["restart"] >= 3 and calls["keep"] >= 3
        assert calls["step"] > 0  # the patched step function is the one that ran
        assert all(k % sampling._BLOCK == 0 for k in at_steps + [calls["step"]])
        for t in range(len(trials)):
            assert out[t].tolist() == scalar(19, t, horizons)


# (scan, scalar walk, S_0, scalar steps) for the digit chain and the run chain
_CHAINS = [
    (digit_sum_crossings, _scalar_crossings, 0, sampled_digits),
    (ly_last_visits, _scalar_last_visits, -1, _ly_gaps),
]


def _scalar_sums(chain, seed: int, trial: int, count: int) -> list[int]:
    """S_0, ..., S_count of one trial, from the chain's scalar steps."""
    _, _, start, steps = chain
    return list(accumulate(islice(steps(seed, trial), count), initial=start))


@pytest.mark.parametrize("chain", _CHAINS, ids=["digits", "ly"])
def test_one_step_crossing_several_horizons(chain):
    run, scalar = chain[:2]
    sums = _scalar_sums(chain, 41, 0, 400)
    # the first step of trial 0 that passes four consecutive horizons at once
    k = next(k for k in range(1, len(sums)) if sums[k - 1] >= 1 and sums[k] - sums[k - 1] >= 4)
    horizons = tuple(range(sums[k - 1], sums[k - 1] + 4))
    out = run(41, np.arange(50, dtype=np.uint64), horizons)
    assert out[0].tolist() == [sums[k - 1]] * 4
    for t in range(50):
        assert out[t].tolist() == scalar(41, t, horizons)


@pytest.mark.parametrize("chain", _CHAINS, ids=["digits", "ly"])
@pytest.mark.parametrize(
    "k",
    [_ROWS - 1, _ROWS, _ROWS + 1, sampling._BLOCK, sampling._BLOCK + 1, 2 * sampling._BLOCK],
)
def test_final_crossing_on_block_edges(chain, k):
    # the last horizon is S_(k-1), so trial 0 passes it on step k: on either
    # side of the end of its first draw of _ROWS uniforms, on the last step
    # of its first or second block, or on the first step of its second
    run, scalar = chain[:2]
    sums = _scalar_sums(chain, 43, 0, k)
    horizons = (sums[k // 2], sums[k - 1])
    for trials in (np.array([0], dtype=np.uint64), np.arange(40, dtype=np.uint64)):
        out = run(43, trials, horizons)
        assert out[0].tolist() == [sums[k // 2], sums[k - 1]]
        for t in range(len(trials)):
            assert out[t].tolist() == scalar(43, t, horizons)


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
    # the later checkpoint lists fall inside one draw of _ROWS uniforms and on both sides of its end
    for cps in ((10, 50), (1, 3, 4, 5, 9), (_ROWS - 1, _ROWS, 2 * _ROWS + 1)):
        out = digit_sums_at(21, np.arange(40, dtype=np.uint64), cps)
        for t in range(40):
            digs = list(islice(sampled_digits(21, t), cps[-1]))
            assert out[t].tolist() == [sum(digs[:k]) for k in cps]


def test_orbit_checkpoints_consistency():
    recs = list(orbit_records(sampled_digits(7, 0), [1000, 100, 1000]))
    digs = list(islice(sampled_digits(7, 0), 1000))
    assert [r["k"] for r in recs] == [100, 1000]
    assert [r["a"] for r in recs] == [digs[99], digs[999]]
    assert recs[0]["S"] == sum(digs[:100])
    assert recs[1]["S"] == sum(digs)
    assert recs[1]["max_digit"] == max(digs)
    assert recs[1]["trimmed"] == sum(digs) - max(digs)
    gm = np.exp(np.mean(np.log(digs)))
    assert recs[1]["geometric_mean"] == pytest.approx(gm, rel=1e-12)
    for cps in ([], [0, 5], [-1]):
        with pytest.raises(ValueError, match="checkpoints must be positive"):
            list(orbit_records(sampled_digits(7, 0), cps))


def _block_chain(seed: int, trial: int, count: int) -> list[int]:
    """The first ``count`` digits of one trial, one scalar block per digit."""
    key = stream_key(seed, trial)
    r, out = 0.0, []
    for j in range(count):
        v = uniform_from_block(block64(key, j))
        a = int((1.0 + r * (1.0 - v)) / v)
        r = 1.0 / (a + r)
        out.append(a)
    return out


def test_sampled_digits_equal_block_by_block_chain():
    # chunked draws must not shift a digit across a chunk boundary
    count = 5 * sampling._CHUNK // 2
    for seed, trial in ((3, 0), (3, 1), (8, 10**6)):
        assert list(islice(sampled_digits(seed, trial), count)) == _block_chain(seed, trial, count)
    assert next(sampled_digits(5, 2)) == _block_chain(5, 2, 1)[0]


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
        [renewal_trace(ly_orbit(77, t), n).sigma_n for t in range(trials)], dtype=float
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
    # the crossing scan's float64 sums are exact integers only below 2^53
    for run in (digit_sum_crossings, ly_last_visits):
        for horizons in ([2**53], [10, 2**53 + 1]):
            with pytest.raises(ValueError, match="below 2\\^53"):
                run(1, np.arange(3, dtype=np.uint64), horizons)
    for run in (digit_sum_crossings, digit_sums_at, ly_last_visits):
        with pytest.raises(ValueError, match="below 2\\^63"):
            run(1, np.arange(3, dtype=np.uint64), [10, 2**63])


@pytest.mark.parametrize("run", [digit_sum_crossings, digit_sums_at, ly_last_visits])
def test_samplers_reject_trial_indices_that_alias_other_streams(run):
    # -1 would wrap to the stream of 2^64 - 1, and 2^64 - 1 as a float rounds to 2^64
    for trials in (np.array([-1, 0]), [5, -3], np.array([0.0, 1.0]), [2**64 - 1, 0], np.array([True])):
        with pytest.raises(ValueError, match="stream indices"):
            run(1, trials, (100,))


def test_samplers_accept_the_largest_trial_index():
    top = 2**64 - 1
    trials = np.array([top, 0], dtype=np.uint64)
    horizons = (5, 50, 500)
    assert digit_sum_crossings(1, trials, horizons).tolist() == [
        _scalar_crossings(1, t, horizons) for t in (top, 0)
    ]
    assert ly_last_visits(1, trials, horizons).tolist() == [
        _scalar_last_visits(1, t, horizons) for t in (top, 0)
    ]
    sums = digit_sums_at(1, trials, (1, 7))
    for row, t in zip(sums.tolist(), (top, 0)):
        digs = list(islice(sampled_digits(1, t), 7))
        assert row == [digs[0], sum(digs)]
    # a list of Python ints below 2^63 is an int64 array and runs the same trials
    as_uint64 = digit_sum_crossings(1, np.array([3, 0], dtype=np.uint64), horizons)
    assert np.array_equal(digit_sum_crossings(1, [3, 0], horizons), as_uint64)
