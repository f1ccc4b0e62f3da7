"""Self-contained empirical-distribution kernel.

Kolmogorov-Smirnov statistics (one- and two-sample) are the only
distributional tests used by the experiments; no asymptotic p-value theory
is involved, so the kernel stays dependency-free and auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable, Iterable, Union

import numpy as np


@dataclass(frozen=True)
class EmpiricalDistribution:
    """A sorted sample with right-continuous CDF queries."""

    values: np.ndarray

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "EmpiricalDistribution":
        arr = np.sort(np.asarray(samples, dtype=np.float64))
        if arr.size == 0:
            raise ValueError("need at least one sample")
        return cls(arr)

    @property
    def count(self) -> int:
        return int(self.values.size)

    def cdf(self, t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        out = np.searchsorted(self.values, t, side="right") / self.count
        if np.isscalar(t):
            return float(out)
        return out

    def percentile(self, q: float) -> float:
        """The q-th percentile, 0 <= q <= 100, by numpy's default linear rule, bit for bit.

        The sorted values are kept, so no ``numpy.percentile`` call is needed;
        on numpy 2.x that call imports ``numpy.ma``.
        """
        # written so that NaN fails it, as numpy.percentile rejects it
        if not 0 <= q <= 100:
            raise ValueError("q must lie in [0, 100]")
        n = self.count
        vi = (n - 1) * (q / 100)
        lo = min(int(vi), n - 1)
        a, b = float(self.values[lo]), float(self.values[min(lo + 1, n - 1)])
        t = vi - lo
        # numpy's lerp: interpolate from the nearer end
        return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

    def median(self) -> float:
        """The middle value, or the mean of the two middle values, as ``numpy.median`` gives it."""
        n = self.count
        hi = float(self.values[n // 2])
        return hi if n % 2 else (float(self.values[n // 2 - 1]) + hi) / 2


def ks_statistic(samples: EmpiricalDistribution, reference: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup_t max(|F_emp(t-) - F(t)|, |F_emp(t) - F(t)|) over the sample points."""
    s = samples.values
    n = samples.count
    ref = np.asarray(reference(s), dtype=np.float64)
    grid = np.arange(n, dtype=np.float64)
    d_plus = np.max((grid + 1.0) / n - ref)
    d_minus = np.max(ref - grid / n)
    return float(max(d_plus, d_minus))


def uniform_cdf(t: np.ndarray) -> np.ndarray:
    return np.clip(t, 0.0, 1.0)


def ks_uniform(samples: EmpiricalDistribution) -> float:
    """KS distance to the uniform distribution on [0, 1]."""
    return ks_statistic(samples, uniform_cdf)


def ks_two_sample(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """Two-sample KS statistic via a merged scan of both sorted samples."""
    pooled = np.concatenate((a.values, b.values))
    pooled.sort(kind="mergesort")
    cdf_a = np.searchsorted(a.values, pooled, side="right") / a.count
    cdf_b = np.searchsorted(b.values, pooled, side="right") / b.count
    return float(np.max(np.abs(cdf_a - cdf_b)))


@dataclass(frozen=True)
class TailReport:
    """Empirical vs theoretical tail frequency of (n - X_n)/n at one epsilon."""

    epsilon: float
    n: int
    frequency: float
    theoretical: float
    ratio: float
    std_error: float

    @classmethod
    def build(cls, epsilon: float, n: int, frequency: float, trials: int) -> "TailReport":
        theoretical = -np.log(epsilon) / np.log(n)
        ratio = frequency / theoretical if theoretical > 0 else float("nan")
        std_error = sqrt(frequency * (1.0 - frequency) / trials)
        return cls(
            epsilon=epsilon,
            n=n,
            frequency=frequency,
            theoretical=float(theoretical),
            ratio=float(ratio),
            std_error=std_error,
        )
