"""Monte Carlo and single-orbit experiments for the digit-sum limit laws.

Every run is a pure function of its configuration: trial t draws all of its
randomness from stream t of the master seed.  A serial run hands all trials
to one call, and the samplers scan them on one lane pool; a process pool
gives each worker one contiguous range of trials and merges the results in
index order, so outputs are identical for any worker count.  Trials of
the certified digit source that hit a non-generic point are resampled at
stream index t + trials (and counted); the sampled source cannot produce
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import ClassVar, Sequence

import numpy as np

from . import sampling
from .exact import DEFAULT_REFINE_CAP, DigitStream, NonGenericPointError, orbit_records
from .farey import fluctuation
from .stats import EmpiricalDistribution, TailReport, ks_two_sample, ks_uniform

LOG2_INV = 1.0 / log(2.0)  # Diamond-Vaaler / weak-law limit 1.442695...
KHINCHIN = 2.685  # geometric-mean target, to the precision used here
WEAK_LAW_DELTAS = (0.1, 0.2)  # relative half-widths of the weak-law "within" bands
_MAX_RESAMPLE_ROUNDS = 8


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment parameters; individual runs read what they need."""

    master_seed: int = 1
    trials: int = 1000
    horizons: tuple[int, ...] = (1000,)
    epsilons: tuple[float, ...] = (0.1, 0.3, 0.5)
    workers: int = 1
    refine_cap: int = DEFAULT_REFINE_CAP
    digit_source: str = "sampled"  # "sampled" | "exact"
    chunk_size: ClassVar[int] = 8192  # not a setting: benchmarks/workloads.py spreads its checks by it
    n: int = 1_000_000
    checkpoints: tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000)
    k_pair: tuple[int, int] = (10_000, 100_000)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if any(n < 2 for n in self.horizons):
            raise ValueError("every horizon must be >= 2")
        if any(not 0.0 < e < 1.0 for e in self.epsilons):
            raise ValueError("epsilons must lie in (0, 1)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.refine_cap < 1:
            raise ValueError("refine_cap must be >= 1")
        if self.n < 2:
            raise ValueError("n must be >= 2: the weak law divides by log n")
        if any(k < 1 for k in self.checkpoints):
            raise ValueError("every checkpoint must be >= 1")
        if self.digit_source not in ("sampled", "exact"):
            raise ValueError("digit_source must be 'sampled' or 'exact'")


@dataclass(frozen=True)
class FluctuationSamples:
    """Per-trial X_n values for each horizon (trials x horizons)."""

    horizons: tuple[int, ...]
    x_values: np.ndarray
    resampled: int = 0

    @property
    def trials(self) -> int:
        return int(self.x_values.shape[0])

    def gaps(self, horizon: int) -> np.ndarray:
        j = self.horizons.index(horizon)
        return horizon - self.x_values[:, j]

    def scaled(self, horizon: int) -> np.ndarray:
        g = self.gaps(horizon).astype(np.float64)
        return np.log(np.maximum(g, 1.0)) / log(horizon)


def _map_chunks(fn, cfg: ExperimentConfig, *args, offset: int = 0) -> list:
    """``fn(seed, trial_indices, *args)`` over all trials, results in index order.

    Trial t runs as trial ``offset + t``.  Each of ``min(workers, trials)``
    workers gets one contiguous range of trials, the sizes differing by at
    most one; a single range runs in this process, more run on a fork pool.
    Results do not depend on the ranges.
    """
    workers = min(cfg.workers, cfg.trials)
    ranges = np.array_split(np.arange(offset, offset + cfg.trials, dtype=np.uint64), workers)
    if workers == 1:
        return [fn(cfg.master_seed, ranges[0], *args)]
    from multiprocessing import get_context  # a serial run never loads it

    with get_context("fork").Pool(workers) as pool:
        return pool.starmap(fn, [(cfg.master_seed, r, *args) for r in ranges])


def _stack_rows(parts: list[np.ndarray]) -> np.ndarray:
    """The row blocks of :func:`_map_chunks` as one array; a serial run's one block is not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def _sampled_chunk(seed: int, trial_indices: np.ndarray, horizons: tuple[int, ...]) -> tuple[np.ndarray, int]:
    return sampling.digit_sum_crossings(seed, trial_indices, horizons), 0


def _exact_chunk(
    seed: int, trial_indices: np.ndarray, horizons: tuple[int, ...], refine_cap: int, trials: int
) -> tuple[np.ndarray, int]:
    out = np.zeros((len(trial_indices), len(horizons)), dtype=np.int64)
    resampled = 0
    for i, t in enumerate(trial_indices.tolist()):
        stream_index = t
        for attempt in range(_MAX_RESAMPLE_ROUNDS):
            stream = DigitStream.from_seed(seed, stream_index, refine_cap)
            try:
                for j, n in enumerate(horizons):
                    out[i, j] = fluctuation(stream, n).X_n
                break
            except NonGenericPointError:
                resampled += 1
                stream_index += trials
        else:
            raise NonGenericPointError(
                f"trial {t} failed {_MAX_RESAMPLE_ROUNDS} resampling rounds"
            )
    return out, resampled


def fluctuation_samples(cfg: ExperimentConfig) -> FluctuationSamples:
    """Draw X_n for every trial at every configured horizon."""
    horizons = tuple(sorted(cfg.horizons))
    if cfg.digit_source == "sampled":
        parts = _map_chunks(_sampled_chunk, cfg, horizons)
    else:
        parts = _map_chunks(_exact_chunk, cfg, horizons, cfg.refine_cap, cfg.trials)
    x = _stack_rows([p[0] for p in parts])
    resampled = sum(p[1] for p in parts)
    return FluctuationSamples(horizons=horizons, x_values=x, resampled=resampled)


@dataclass(frozen=True)
class UniformLawReport:
    horizons: tuple[int, ...]
    ks: tuple[float, ...]
    atom_frequency: tuple[float, ...]
    trials: int
    resampled: int
    samples: FluctuationSamples


def uniform_law_from_samples(samples: FluctuationSamples) -> UniformLawReport:
    ks_list = []
    atoms = []
    for n in samples.horizons:
        scaled = samples.scaled(n)
        ks_list.append(ks_uniform(EmpiricalDistribution.from_samples(scaled)))
        atoms.append(float(np.mean(samples.gaps(n) == 0)))
    return UniformLawReport(
        horizons=samples.horizons,
        ks=tuple(ks_list),
        atom_frequency=tuple(atoms),
        trials=samples.trials,
        resampled=samples.resampled,
        samples=samples,
    )


def run_uniform_law(cfg: ExperimentConfig) -> UniformLawReport:
    """Scaled-gap distribution of the fluctuation process against U[0, 1]."""
    return uniform_law_from_samples(fluctuation_samples(cfg))


def tail_reports_from_samples(
    samples: FluctuationSamples, epsilons: Sequence[float]
) -> list[TailReport]:
    reports = []
    for n in samples.horizons:
        rel = samples.gaps(n).astype(np.float64) / n
        for eps in epsilons:
            freq = float(np.mean(rel > eps))
            reports.append(TailReport.build(eps, n, freq, samples.trials))
    return reports


def run_large_deviation(cfg: ExperimentConfig) -> list[TailReport]:
    """Tail frequencies of (n - X_n)/n against -log(eps)/log(n)."""
    return tail_reports_from_samples(fluctuation_samples(cfg), cfg.epsilons)


@dataclass(frozen=True)
class OrbitReport:
    """Single-orbit digit statistics at checkpoints."""

    records: tuple[dict, ...]
    target: float


def run_khinchin(cfg: ExperimentConfig) -> OrbitReport:
    """Geometric-mean trajectory of one seeded digit orbit."""
    records = list(orbit_records(sampling.sampled_digits(cfg.master_seed, 0), cfg.checkpoints))
    return OrbitReport(records=tuple(records), target=KHINCHIN)


def run_diamond_vaaler(cfg: ExperimentConfig) -> OrbitReport:
    """Trimmed-sum trajectory S_n^flat / (n log n) of one seeded orbit."""
    if any(k < 2 for k in cfg.checkpoints):
        raise ValueError("every checkpoint must be >= 2: the trimmed ratio divides by log k")
    records = list(orbit_records(sampling.sampled_digits(cfg.master_seed, 0), cfg.checkpoints))
    for rec in records:
        k = rec["k"]
        rec["trimmed_ratio"] = rec["trimmed"] / (k * log(k))
        rec["relative_deviation"] = abs(rec["trimmed_ratio"] - LOG2_INV) / LOG2_INV
    return OrbitReport(records=tuple(records), target=LOG2_INV)


@dataclass(frozen=True)
class WeakLawReport:
    n: int
    trials: int
    median: float
    target: float
    within: dict[float, float]


def _sums_chunk(seed: int, trial_indices: np.ndarray, checkpoints: tuple[int, ...]) -> np.ndarray:
    return sampling.digit_sums_at(seed, trial_indices, checkpoints)


def _digit_sums_parallel(cfg: ExperimentConfig, checkpoints: tuple[int, ...], offset: int = 0) -> np.ndarray:
    return _stack_rows(_map_chunks(_sums_chunk, cfg, checkpoints, offset=offset))


def run_weak_law(cfg: ExperimentConfig) -> WeakLawReport:
    """Distribution of S_n/(n log n) across trials at a fixed digit count n."""
    n = cfg.n
    sums = _digit_sums_parallel(cfg, (n,))[:, 0]
    ratios = sums.astype(np.float64) / (n * log(n))
    within = {
        d: float(np.mean(np.abs(ratios - LOG2_INV) <= d * LOG2_INV)) for d in WEAK_LAW_DELTAS
    }
    return WeakLawReport(
        n=n,
        trials=cfg.trials,
        median=EmpiricalDistribution.from_samples(ratios).median(),
        target=LOG2_INV,
        within=within,
    )


@dataclass(frozen=True)
class StableStabilityReport:
    k1: int
    k2: int
    trials: int
    ks: float
    percentile_99: tuple[float, float]
    samples: tuple[EmpiricalDistribution, EmpiricalDistribution]


def run_stable_stability(cfg: ExperimentConfig) -> StableStabilityReport:
    """Two-sample KS between centered-scaled digit sums at two horizons.

    Per trial, Y_k = S_k * log(2)/k - log(k); the limit has a stable law
    whose parameters are not pinned down here, so only distributional
    stability across k is tested.  The trial sets at k1 and k2 are disjoint.
    """
    k1, k2 = cfg.k_pair
    if not 0 < k1 <= k2:
        raise ValueError("need 0 < k1 <= k2")
    sums1 = _digit_sums_parallel(cfg, (k1,))[:, 0]
    if k1 == k2:
        # degenerate sanity case: identical samples, KS exactly zero
        sums2 = sums1.copy()
    else:
        sums2 = _digit_sums_parallel(cfg, (k2,), offset=cfg.trials)[:, 0]
    y1 = sums1 * (log(2.0) / k1) - log(k1)
    y2 = sums2 * (log(2.0) / k2) - log(k2)
    e1 = EmpiricalDistribution.from_samples(y1)
    e2 = EmpiricalDistribution.from_samples(y2)
    return StableStabilityReport(
        k1=k1,
        k2=k2,
        trials=cfg.trials,
        ks=ks_two_sample(e1, e2),
        percentile_99=(e1.percentile(99), e2.percentile(99)),
        samples=(e1, e2),
    )


@dataclass(frozen=True)
class LyUniformLawReport:
    horizons: tuple[int, ...]
    ks: tuple[float, ...]
    never_visited: tuple[float, ...]
    trials: int
    last_visits: np.ndarray


def run_ly_uniform_law(cfg: ExperimentConfig) -> LyUniformLawReport:
    """Scaled spent time of the Lasota-Yorke map against U[0, 1].

    A last visit at 0 and no visit both leave the whole horizon as spent
    time, so the spent time is the digit path's gap at ``max(last, 0)``.
    """
    horizons = tuple(sorted(cfg.horizons))
    last = _stack_rows(_map_chunks(sampling.ly_last_visits, cfg, horizons))
    return LyUniformLawReport(
        horizons=horizons,
        ks=uniform_law_from_samples(FluctuationSamples(horizons, np.maximum(last, 0))).ks,
        never_visited=tuple(float(np.mean(col < 0)) for col in last.T),
        trials=cfg.trials,
        last_visits=last,
    )
