"""Sequential samplers for digit and orbit statistics at Monte Carlo scale.

Certified bit-by-bit extraction costs O(k) big-integer work for the k-th
digit, which is fine for exactness checks but not for 10^5 trials at horizon
10^6.  These samplers instead draw each digit (or each visit of the
Lasota-Yorke orbit to (1/2, 1]) from its exact conditional distribution
given the history, so the sampled process has the same law as the certified
one up to double-precision rounding of the conditional parameters.

Continued-fraction digits: conditioned on the first k digits, a uniformly
distributed number maps under k Gauss steps to a point with density
(1+r)/(1+r t)^2 on [0, 1], where r is the ratio of consecutive continuant
denominators.  Hence P(a >= m | r) = (1+r)/(m+r), a digit is drawn by
inverting that CDF with one uniform, and r updates by r' = 1/(a + r).  The
chain r' = 1/(a + r) is uniformly contracting, so rounding never
accumulates.

Lasota-Yorke: conditioned on the branch word, the current position has
density (1+s)/(1+s x)^2 on [0, 1]; the left branch has probability
(1+s)/(2+s) and maps s -> s+1, the right branch maps s -> s/(s+2).  Left
runs telescope, P(run >= j | s) = (1+s)/(1+s+j), so whole laminar phases are
sampled from a single uniform.

One 64-bit block of the trial's keyed bit stream is consumed per draw, so
results are a pure function of (master_seed, stream_index) and independent
of scheduling.

The vectorized scans run one lane per trial, in place on
:class:`~cfrenewal.bits.UniformLanes`: ``_DigitLanes`` steps the digit chain
and ``_RunLanes`` the Lasota-Yorke run chain, each with the scalar sampler's
operations in its order, so a lane reproduces its trial's scalar chain
exactly, whatever the other lanes hold and however often retired lanes are
compacted away.  Both chains answer the same question, the last partial sum
at or below each horizon, on one crossing scan, ``_last_sums``.  Digit sums
start at S_0 = 0.  A Lasota-Yorke run of length ``run`` ends with a visit
to (1/2, 1] and the next run starts one step later, so the visit times are
the partial sums of the gaps ``run + 1`` started at -1 (the first visit is
at time run_1), and -1 is left where no visit reaches a horizon.
"""

from __future__ import annotations

from math import exp, log
from typing import Iterator, Sequence

import numpy as np

from .bits import UniformLanes, block64, stream_key, stream_keys_np, uniform_from_block, uniforms_np

_CHUNK = 1 << 14


def sampled_digits(master_seed: int, stream_index: int) -> Iterator[int]:
    """Endless digit iterator for one trial, one uniform per digit."""
    key = stream_key(master_seed, stream_index)
    r = 0.0
    j = 0
    while True:
        v = uniform_from_block(block64(key, j))
        j += 1
        a = int((1.0 + r * (1.0 - v)) / v)
        r = 1.0 / (a + r)
        yield a


def orbit_checkpoints(
    master_seed: int,
    stream_index: int,
    checkpoints: Sequence[int],
) -> list[dict]:
    """Scan one sampled digit orbit, reporting at fixed digit counts.

    Returns one record per checkpoint k: digit sum S_k, trimmed sum
    (S_k minus the largest digit so far), largest digit, and the running
    geometric mean of the first k digits.
    """
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < 1:
        raise ValueError("checkpoints must be positive")
    total = cps[-1]
    key = np.uint64(stream_key(master_seed, stream_index))
    r = 0.0
    s = 0
    log_sum = 0.0
    max_digit = 0
    k = 0
    out = []
    next_cp = iter(cps)
    cp = next(next_cp)
    while k < total:
        m = min(_CHUNK, total - k)
        vs = uniforms_np(key, np.arange(k, k + m, dtype=np.uint64))
        for v in vs.tolist():
            a = int((1.0 + r * (1.0 - v)) / v)
            r = 1.0 / (a + r)
            s += a
            log_sum += log(a)
            if a > max_digit:
                max_digit = a
            k += 1
            if k == cp:
                out.append(
                    {
                        "k": k,
                        "S": s,
                        "trimmed": s - max_digit,
                        "max_digit": max_digit,
                        "geometric_mean": exp(log_sum / k),
                    }
                )
                cp = next(next_cp, None)
        if cp is None:
            break
    return out


class _Lanes:
    """One sampled chain per trial: lane i runs trial ``trial_indices[i]``.

    ``state`` is the chain's parameter, 0 at the start; a subclass's
    ``step`` draws every lane's next increment into ``a``.  Buffers are
    allocated once; :meth:`keep` drops retired lanes.
    """

    __slots__ = ("uniforms", "state", "f", "a")

    def __init__(self, master_seed: int, trial_indices: np.ndarray):
        trials = np.asarray(trial_indices, dtype=np.uint64)
        self.uniforms = UniformLanes(stream_keys_np(master_seed, trials))
        n = len(trials)
        self.state = np.zeros(n, dtype=np.float64)
        self.f = np.empty(n, dtype=np.float64)
        self.a = np.empty(n, dtype=np.int64)

    def keep(self, live: np.ndarray) -> None:
        self.uniforms.keep(live)
        self.state = self.state[live]
        n = len(self.state)
        self.f = self.f[:n]
        self.a = self.a[:n]


class _DigitLanes(_Lanes):
    """The digit chain r -> 1/(a + r); each step is one digit, as :func:`sampled_digits` draws it."""

    __slots__ = ()

    def step(self) -> np.ndarray:
        """Draw one digit per lane; returns ``a`` (overwritten by the next step)."""
        v = self.uniforms.draw()
        r, f = self.state, self.f
        # f = floor((1 + r (1 - v)) / v), evaluated in the scalar sampler's order
        np.subtract(1.0, v, out=f)
        np.multiply(r, f, out=f)
        np.add(1.0, f, out=f)
        np.divide(f, v, out=f)
        np.floor(f, out=f)
        np.copyto(self.a, f, casting="unsafe")
        # r = 1/(a + r); f < 2^55 is an integer, so f + r rounds as a + r does
        np.add(f, r, out=r)
        np.divide(1.0, r, out=r)
        return self.a


class _RunLanes(_Lanes):
    """The Lasota-Yorke run chain s; each step is one laminar run and the visit that ends it."""

    __slots__ = ("g",)

    def __init__(self, master_seed: int, trial_indices: np.ndarray):
        super().__init__(master_seed, trial_indices)
        self.g = np.empty(len(self.f), dtype=np.float64)

    def keep(self, live: np.ndarray) -> None:
        super().keep(live)
        self.g = self.g[: len(self.f)]

    def step(self) -> np.ndarray:
        """Draw one run per lane; returns the gaps ``run + 1`` between visits in ``a``."""
        v = self.uniforms.draw()
        s, f, g = self.state, self.f, self.g
        # run = floor((1 + s) (1 - v) / v), evaluated in this order
        np.add(1.0, s, out=f)
        np.subtract(1.0, v, out=g)
        np.multiply(f, g, out=f)
        np.divide(f, v, out=f)
        np.floor(f, out=f)
        np.copyto(self.a, f, casting="unsafe")
        np.add(self.a, 1, out=self.a)
        # s = (s + run)/(s + run + 2)
        np.add(s, f, out=s)
        np.add(s, 2.0, out=g)
        np.divide(s, g, out=s)
        return self.a


def _increasing(values: Sequence[int], what: str) -> np.ndarray:
    """``values`` as an int64 array, checked to be strictly increasing positive integers."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1 or len(arr) == 0 or np.any(np.diff(arr) <= 0) or arr[0] < 1:
        raise ValueError(f"{what} must be strictly increasing positive integers")
    return arr


def _last_sums(lanes: _Lanes, start: int, hz: np.ndarray) -> np.ndarray:
    """max{S_k <= h} for every lane and horizon h: S_0 = start, S_k adds step k.

    Each lane steps until its sum passes the largest horizon.  Returns an
    int64 array of shape (lanes, horizons).
    """
    n_h = len(hz)
    n_t = len(lanes.state)
    x_out = np.zeros((n_t, n_h), dtype=np.int64)

    # retired lanes point one past the last horizon and can never cross it
    hz_ext = np.concatenate((hz, [np.iinfo(np.int64).max]))

    idx = np.arange(n_t)
    s = np.full(n_t, start, dtype=np.int64)
    s_new = np.empty(n_t, dtype=np.int64)
    next_h = np.zeros(n_t, dtype=np.int64)
    thr = np.full(n_t, hz[0])  # hz_ext[next_h], the sum a lane must pass next
    crossed = np.empty(n_t, dtype=bool)
    n_live = n_t

    while n_live:
        np.add(s, lanes.step(), out=s_new)
        np.greater(s_new, thr, out=crossed)
        if crossed.any():
            w = np.nonzero(crossed)[0]
            while len(w):
                x_out[idx[w], next_h[w]] = s[w]
                next_h[w] += 1
                thr[w] = hz_ext[next_h[w]]
                w = w[s_new[w] > thr[w]]
            # the live count only changes on steps where a lane crossed
            live = next_h < n_h
            n_live = int(np.count_nonzero(live))
            if n_live and n_live < 0.7 * len(idx):
                lanes.keep(live)
                idx = idx[live]
                s_new = s_new[live]
                next_h = next_h[live]
                thr = thr[live]
                s = s[:n_live]
                crossed = crossed[:n_live]
        s, s_new = s_new, s
    return x_out


def digit_sum_crossings(
    master_seed: int,
    trial_indices: np.ndarray,
    horizons: Sequence[int],
) -> np.ndarray:
    """X_n = max{S_k <= n} for every trial and every horizon, vectorized.

    Each trial draws digits until its sum passes the largest horizon; the
    value recorded at a horizon is the last sum not exceeding it.  Returns
    an int64 array of shape (trials, len(horizons)); horizons must be
    strictly increasing.
    """
    hz = _increasing(horizons, "horizons")
    return _last_sums(_DigitLanes(master_seed, trial_indices), 0, hz)


def digit_sums_at(
    master_seed: int,
    trial_indices: np.ndarray,
    checkpoints: Sequence[int],
) -> np.ndarray:
    """Digit sums S_k at fixed digit counts k, vectorized over trials.

    Returns an int64 array of shape (trials, len(checkpoints)); checkpoints
    must be strictly increasing.
    """
    cps = _increasing(checkpoints, "checkpoints")
    lanes = _DigitLanes(master_seed, trial_indices)
    s = np.zeros(len(lanes.state), dtype=np.int64)
    out = np.zeros((len(s), len(cps)), dtype=np.int64)
    k = 0
    for j, cp in enumerate(cps.tolist()):
        while k < cp:
            np.add(s, lanes.step(), out=s)
            k += 1
        out[:, j] = s
    return out


def ly_last_visits(
    master_seed: int,
    trial_indices: np.ndarray,
    horizons: Sequence[int],
) -> np.ndarray:
    """Time of the last visit to (1/2, 1] within [0, n] for the Lasota-Yorke map.

    Vectorized over trials; one uniform per laminar run.  Visits happen at
    the partial sums of the gaps ``run + 1`` started at -1, so this is the
    crossing scan of :func:`digit_sum_crossings` on the run chain.  Returns
    an int64 array of shape (trials, len(horizons)) holding the last visit
    time not exceeding each horizon, or -1 when the orbit has not visited
    by then.
    """
    hz = _increasing(horizons, "horizons")
    return _last_sums(_RunLanes(master_seed, trial_indices), -1, hz)
