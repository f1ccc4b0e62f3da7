"""Experiment drivers: determinism, conservation, and small-scale behavior."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from cfrenewal.experiments import (
    ExperimentConfig,
    _digit_sums_parallel,
    _map_chunks,
    fluctuation_samples,
    run_diamond_vaaler,
    run_khinchin,
    run_large_deviation,
    run_ly_uniform_law,
    run_stable_stability,
    run_uniform_law,
    run_weak_law,
    tail_reports_from_samples,
    uniform_law_from_samples,
)
from cfrenewal.sampling import digit_sums_at
from cfrenewal.stats import EmpiricalDistribution, ks_uniform


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(horizons=(1,))
    with pytest.raises(ValueError):
        ExperimentConfig(epsilons=(0.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(digit_source="float")
    for bad in (
        {"workers": 0},
        {"workers": -3},
        {"refine_cap": 0},
        {"refine_cap": -5},
        {"checkpoints": (0, 10)},
        {"checkpoints": (-1,)},
    ):
        with pytest.raises(ValueError, match="must be >= 1"):
            ExperimentConfig(**bad)
    # the chunk cap is a class constant, not a setting
    assert ExperimentConfig().chunk_size == 8192
    with pytest.raises(TypeError):
        ExperimentConfig(chunk_size=1)


def test_weak_law_rejects_n_below_two():
    # the ratios divide by log n, which is 0 at n = 1
    with pytest.raises(ValueError, match="n must be >= 2"):
        run_weak_law(ExperimentConfig(trials=10, n=1))


def test_diamond_vaaler_rejects_checkpoints_below_two():
    # the trimmed ratio divides by log k, which is 0 at k = 1
    with pytest.raises(ValueError, match="checkpoint must be >= 2"):
        run_diamond_vaaler(ExperimentConfig(checkpoints=(1, 10)))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
@pytest.mark.parametrize(
    "run",
    [
        fluctuation_samples,
        lambda cfg: fluctuation_samples(replace(cfg, digit_source="exact")),
        lambda cfg: run_khinchin(replace(cfg, checkpoints=(10,))),
    ],
    ids=["sampled", "exact", "khinchin"],
)
def test_seed_outside_64_bits_is_rejected(run, seed):
    # the mixer reduces seeds mod 2^64: 2^64 + 1 would rerun seed 1's streams
    with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 2\^64\)"):
        run(ExperimentConfig(master_seed=seed, trials=5, horizons=(100,)))


def test_runs_are_pure_functions_of_config():
    cfg = ExperimentConfig(master_seed=8, trials=3000, horizons=(500, 5000))
    a = run_uniform_law(cfg)
    b = run_uniform_law(cfg)
    assert a.ks == b.ks
    assert np.array_equal(a.samples.x_values, b.samples.x_values)


def test_worker_count_is_observationally_irrelevant():
    base = ExperimentConfig(master_seed=17, trials=6000, horizons=(1000,))
    x1 = fluctuation_samples(base).x_values
    for workers in (2, 3):
        assert np.array_equal(fluctuation_samples(replace(base, workers=workers)).x_values, x1)
    # the Lasota-Yorke law and both passes of the stable law
    small = replace(base, trials=2000, horizons=(300, 3000), k_pair=(200, 2000))
    ly1 = run_ly_uniform_law(small)
    st1 = run_stable_stability(small)
    for workers in (2, 3):
        ly = run_ly_uniform_law(replace(small, workers=workers))
        assert np.array_equal(ly.last_visits, ly1.last_visits) and ly.ks == ly1.ks
        st = run_stable_stability(replace(small, workers=workers))
        for e1, e2 in zip(st1.samples, st.samples):
            assert np.array_equal(e1.values, e2.values)


def test_chunk_driver_offset_pass_equals_direct_sums():
    cfg = ExperimentConfig(master_seed=9, trials=2500)
    k = 300
    direct = digit_sums_at(9, np.arange(cfg.trials, 2 * cfg.trials, dtype=np.uint64), (k,))
    for workers in (1, 2, 3):
        got = _digit_sums_parallel(replace(cfg, workers=workers), (k,), offset=cfg.trials)
        assert np.array_equal(got, direct)


def _range_of(seed, trial_indices, extra):
    # module level, so that the fork pool can pickle it
    return seed, trial_indices.tolist(), extra


@pytest.mark.parametrize("workers, trials", [(2, 7), (2, 10), (3, 10), (3, 11), (3, 2)])
def test_pooled_map_gives_each_worker_one_contiguous_range(workers, trials):
    cfg = ExperimentConfig(master_seed=6, trials=trials, workers=workers)
    got = _map_chunks(_range_of, cfg, "x", offset=40)
    assert len(got) == min(workers, trials)
    assert all(seed == 6 and extra == "x" for seed, _, extra in got)
    ranges = [r for _, r, _ in got]
    # in index order, each contiguous, together every trial once from the offset
    assert sum(ranges, []) == list(range(40, 40 + trials))
    sizes = [len(r) for r in ranges]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


def test_serial_map_calls_fn_once_on_all_trials():
    calls = []

    def fn(seed, trial_indices, extra):
        calls.append((seed, trial_indices.tolist(), extra))
        return len(trial_indices)

    cfg = ExperimentConfig(master_seed=5, trials=2500)
    assert _map_chunks(fn, cfg, "x", offset=10) == [2500]
    assert calls == [(5, list(range(10, 2510)), "x")]


def test_degenerate_all_ones_stream_gives_point_mass():
    # injected test double: digits all one make every sum reachable, gap 0
    class OnesSamples:
        horizons = (1000,)
        x_values = np.full((200, 1), 1000, dtype=np.int64)
        master_seed = 0
        resampled = 0
        trials = 200

        def gaps(self, horizon):
            return horizon - self.x_values[:, 0]

        def scaled(self, horizon):
            g = self.gaps(horizon).astype(np.float64)
            return np.log(np.maximum(g, 1.0)) / np.log(horizon)

    rep = uniform_law_from_samples(OnesSamples())
    assert rep.ks[0] == pytest.approx(1.0)
    assert rep.atom_frequency[0] == 1.0


def test_gap_zero_conservation():
    cfg = ExperimentConfig(master_seed=3, trials=4000, horizons=(1000,))
    rep = run_uniform_law(cfg)
    gaps = rep.samples.gaps(1000)
    assert int(np.sum(gaps == 0)) + int(np.sum(gaps >= 1)) == cfg.trials
    assert rep.atom_frequency[0] == pytest.approx(float(np.mean(gaps == 0)))


def test_scaled_range_and_ks_sanity():
    cfg = ExperimentConfig(master_seed=6, trials=5000, horizons=(10_000,))
    rep = run_uniform_law(cfg)
    scaled = rep.samples.scaled(10_000)
    assert np.all((scaled >= 0) & (scaled <= 1))
    assert rep.ks[0] < 0.2


def test_tail_reports_monotone_in_epsilon():
    cfg = ExperimentConfig(master_seed=5, trials=5000, horizons=(10_000,), epsilons=(0.1, 0.3, 0.5, 0.9))
    reports = run_large_deviation(cfg)
    freqs = [r.frequency for r in reports]
    assert freqs == sorted(freqs, reverse=True)
    for r in reports:
        assert r.theoretical == pytest.approx(-np.log(r.epsilon) / np.log(r.n))


def test_tail_theoretical_value_spec_case():
    cfg = ExperimentConfig(master_seed=5, trials=100, horizons=(1_000_000,), epsilons=(0.5,))
    rep = run_large_deviation(cfg)[0]
    assert rep.theoretical == pytest.approx(0.050171, abs=1e-5)


def test_khinchin_and_dv_orbit_reports():
    # constant-digit controls live in test_exact; here check real orbits stay sane
    cfg = ExperimentConfig(master_seed=2, checkpoints=(1000, 10_000))
    kh = run_khinchin(cfg)
    assert 2.0 < kh.records[-1]["geometric_mean"] < 3.5
    dv = run_diamond_vaaler(cfg)
    assert dv.records[-1]["trimmed_ratio"] > 0


def test_weak_law_small():
    rep = run_weak_law(ExperimentConfig(master_seed=1, trials=2000, n=1000))
    assert 0.5 < rep.median < 3.0
    assert set(rep.within) == {0.1, 0.2}
    assert all(0 <= v <= 1 for v in rep.within.values())


def test_weak_law_within_fraction_grows_with_n():
    lo = run_weak_law(ExperimentConfig(master_seed=1, trials=4000, n=1000))
    hi = run_weak_law(ExperimentConfig(master_seed=1, trials=4000, n=100_000))
    assert hi.within[0.2] > lo.within[0.2]


def test_stable_identical_configurations_give_zero_ks():
    # same seeds and equal horizons: the two sample sets coincide trial-wise
    from cfrenewal.stats import ks_two_sample

    k = 500
    s1 = digit_sums_at(9, np.arange(0, 400, dtype=np.uint64), (k,))[:, 0]
    y1 = s1 * (np.log(2.0) / k) - np.log(k)
    e = EmpiricalDistribution.from_samples(y1)
    assert ks_two_sample(e, e) == 0.0


def test_stable_stability_small():
    rep = run_stable_stability(ExperimentConfig(master_seed=2, trials=2000, k_pair=(2000, 20_000)))
    assert rep.ks < 0.1
    assert rep.percentile_99[0] > 1.0  # heavy upper tail present


def test_ly_uniform_law_small():
    rep = run_ly_uniform_law(ExperimentConfig(master_seed=3, trials=3000, horizons=(300, 3000)))
    assert rep.ks[1] < rep.ks[0] + 0.05


def test_exact_source_resampling_counts_pathological_trials():
    # with a tiny refinement cap, some random streams fail to determine
    # digits and must be resampled at an offset stream index; the sample
    # size stays fixed and the resamples are counted
    cfg = ExperimentConfig(
        master_seed=12, trials=300, horizons=(50,), digit_source="exact", refine_cap=12
    )
    samples = fluctuation_samples(cfg)
    assert samples.x_values.shape == (300, 1)
    assert samples.resampled > 0
    assert np.all(samples.x_values >= 0)
    # at the default cap nothing is resampled
    clean = fluctuation_samples(
        ExperimentConfig(master_seed=12, trials=300, horizons=(50,), digit_source="exact")
    )
    assert clean.resampled == 0


def test_shared_samples_serve_both_laws():
    cfg = ExperimentConfig(master_seed=11, trials=3000, horizons=(1000, 10_000))
    samples = fluctuation_samples(cfg)
    ul = uniform_law_from_samples(samples)
    tails = tail_reports_from_samples(samples, (0.25,))
    assert len(ul.ks) == 2 and len(tails) == 2
    emp = EmpiricalDistribution.from_samples(samples.scaled(10_000))
    assert ul.ks[1] == pytest.approx(ks_uniform(emp))


def test_stable_equal_horizons_degenerate_zero():
    rep = run_stable_stability(ExperimentConfig(master_seed=4, trials=500, k_pair=(800, 800)))
    assert rep.ks == 0.0
