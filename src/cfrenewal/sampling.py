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

A single orbit, :func:`sampled_digits`, runs the scalar chain with its
uniforms drawn in contiguous blocks of 1, 2, 4, ... up to ``_CHUNK``, so a
caller that takes one digit draws one uniform; stepping it as one lane of a
vectorized scan costs about 40 times as much per digit.  Lanes serve many trials: the
vectorized scans run one trial per lane at a time, drawing from
:class:`~cfrenewal.bits.UniformLanes`.  Two step functions advance every
lane's chain in place, ``_digit_step`` the digit chain and ``_run_step``
the Lasota-Yorke run chain, each with the scalar sampler's operations in
its order, so a lane reproduces its trial's scalar chain exactly, whatever
the other lanes hold.  Both chains answer the same
question, the last partial sum at or below each horizon, on one crossing
scan, ``_last_sums``.  A serial run hands it all of its trials, and it scans
them on one pool of at most ``_LANES`` lanes, ``_BLOCK`` = 16 steps at a
time: each step writes the lanes' sums into one row of a block history, and
crossings are checked once per block, where the last history entry at or
below a horizon is the value there.  The lanes draw their uniforms
``_ROWS`` = 4 steps at a time, in one call of ``UniformLanes.draw``, which
pays the mixer's numpy calls once per four steps: the crossing scan draws
them straight into the next four history rows, and each step reads its
row's uniform before its sum overwrites it, so the history is all the
float memory the scan needs; :func:`digit_sums_at` draws into one
four-row block.  A lane whose sum has passed the last
horizon retires at the next block end, so checking once per block costs
each trial at most 15 extra uniforms.  A retired lane's slot restarts on
the next pending trial, and retired lanes are compacted away once no trial
is pending, so a call has one tail of sparsely filled steps (a pooled run
makes one call per worker, on one contiguous range of trials).  The scan's
sums are float64: the steps are integer-valued doubles and every recorded sum is an
integer below its horizon, so the sums are exact below 2^53, and horizons
must stay below 2^53; :func:`digit_sums_at` keeps exact int64 sums.  Digit
sums start at S_0 = 0.  A Lasota-Yorke run of length ``run`` ends with a
visit to (1/2, 1] and the next run starts one step later, so the visit
times are the partial sums of the gaps ``run + 1`` started at -1 (the first
visit is at time run_1), and -1 is left where no visit reaches a horizon.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from .bits import _ROWS, UniformLanes, stream_key, stream_keys_np, uniforms_np

_CHUNK = 1 << 10  # largest block of uniforms one orbit draws at a time
_LANES = 1 << 14  # lanes in one crossing pool or one lockstep block
_BLOCK = 16  # steps of a crossing pool between two crossing checks, a multiple of _ROWS
_MAX_HORIZON = 1 << 53  # crossing sums are float64, exact integers below it


def sampled_digits(master_seed: int, stream_index: int) -> Iterator[int]:
    """Endless digit iterator for one trial, one uniform per digit.

    The uniforms are drawn in contiguous blocks whose size doubles from 1 up
    to ``_CHUNK``, so the digits do not depend on the block sizes.
    """
    key = np.uint64(stream_key(master_seed, stream_index))
    r = 0.0
    j, size = 0, 1
    while True:
        for v in uniforms_np(key, np.arange(j, j + size, dtype=np.uint64)).tolist():
            a = int((1.0 + r * (1.0 - v)) / v)
            r = 1.0 / (a + r)
            yield a
        j += size
        size = min(2 * size, _CHUNK)


def _digit_step(r: np.ndarray, v: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """One digit per lane of the chain r -> 1/(a + r), as :func:`sampled_digits` draws it.

    Each lane's uniform in ``v`` gives its digit, written as a float into
    ``f`` and returned; ``r`` steps in place.  ``g`` is unused, so both
    steps take the same arrays.
    """
    # f = floor((1 + r (1 - v)) / v), evaluated in the scalar sampler's order
    np.subtract(1.0, v, out=f)
    np.multiply(r, f, out=f)
    np.add(1.0, f, out=f)
    np.divide(f, v, out=f)
    np.floor(f, out=f)
    # r = 1/(a + r); f < 2^55 is an integer, so f + r rounds as a + r does
    np.add(f, r, out=r)
    np.divide(1.0, r, out=r)
    return f


def _run_step(s: np.ndarray, v: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """One Lasota-Yorke laminar run per lane, and the visit that ends it, from its uniform in ``v``.

    Returns the gaps ``run + 1`` as floats in ``f``; ``s`` steps in place
    and ``g`` is scratch.
    """
    # run = floor((1 + s) (1 - v) / v), evaluated in this order
    np.add(1.0, s, out=f)
    np.subtract(1.0, v, out=g)
    np.multiply(f, g, out=f)
    np.divide(f, v, out=f)
    np.floor(f, out=f)
    # s = (s + run)/(s + run + 2)
    np.add(s, f, out=s)
    np.add(s, 2.0, out=g)
    np.divide(s, g, out=s)
    np.add(f, 1.0, out=f)
    return f


def _increasing(values: Sequence[int], what: str) -> np.ndarray:
    """``values`` as an int64 array, checked to be strictly increasing positive integers."""
    try:
        arr = np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{what} must be integers below 2^63") from None
    if arr.ndim != 1 or len(arr) == 0 or np.any(np.diff(arr) <= 0) or arr[0] < 1:
        raise ValueError(f"{what} must be strictly increasing positive integers")
    return arr


def _last_sums(
    step: Callable[..., np.ndarray], master_seed: int, trial_indices: np.ndarray, start: int, horizons: Sequence[int]
) -> np.ndarray:
    """max{S_k <= h} for every trial and horizon h: S_0 = start, S_k adds step k.

    ``step`` is :func:`_digit_step` or :func:`_run_step`.  The trials run
    on one pool of at most ``_LANES`` lanes, each holding one trial's
    stream, chain state (0 at the trial's start) and sum, stepped
    ``_BLOCK`` steps at a time.  This function alone restarts and compacts
    lanes, all of their arrays at once.  Row j of a block's history holds
    every lane's sum after j of its steps, row 0 the sums it started from;
    for j a multiple of ``_ROWS``, rows j+1 .. j+``_ROWS`` first hold the
    uniforms of those steps, drawn at once.
    At the end of a block, one compare finds the lanes whose sum passed
    their next horizon h, and the last history entry <= h is each one's
    value there.  A lane steps until its sum passes the largest horizon,
    noticed up to ``_BLOCK - 1`` steps late.  Once at least 1/64 of the
    lanes have retired at a block end, the next pending trials restart on
    their slots; once none are pending, retired lanes are compacted away
    instead.  The sums are float64: steps are integer-valued doubles, and
    every sum up to the last one <= h is an integer at most h < 2^53, so it
    is exact; a later sum may round, but only to a value still above h.
    Returns an int64 array of shape (trials, horizons).
    """
    hz = _increasing(horizons, "horizons")
    if hz[-1] >= _MAX_HORIZON:
        raise ValueError(f"horizons must be below 2^53 = {_MAX_HORIZON}")
    trials = np.asarray(trial_indices)
    n_t, n_h = len(trials), len(hz)
    x_out = np.zeros((n_t, n_h), dtype=np.int64)
    n = min(n_t, _LANES)
    uniforms = UniformLanes(stream_keys_np(master_seed, trials[:n]))
    state = np.zeros(n)  # each lane's chain parameter
    f, g = np.empty(n), np.empty(n)  # the step's output and scratch

    # retired lanes wait for the horizon +inf, which no sum passes
    hz_ext = np.append(hz.astype(np.float64), np.inf)

    idx = np.arange(n)  # the trial, a row of x_out, that each lane runs
    pending = n  # the next trial to start
    hist = np.empty((_BLOCK + 1, n))
    hist[0] = start
    next_h = np.zeros(n, dtype=np.int64)
    thr = np.full(n, hz_ext[0])  # hz_ext[next_h], the sum a lane must pass next
    n_live = n

    while n_live:
        for j0 in range(0, _BLOCK, _ROWS):
            # the next _ROWS steps' uniforms fill the history rows their sums then overwrite
            uniforms.draw(hist[j0 + 1 : j0 + 1 + _ROWS])
            for j in range(j0, j0 + _ROWS):
                np.add(hist[j], step(state, hist[j + 1], f, g), out=hist[j + 1])
        last = hist[_BLOCK]
        w = np.flatnonzero(last > thr)
        if len(w):
            # a block starts at or below each lane's next horizon, so row 0 always counts
            sub = hist[:, w]
            while len(w):
                rows = np.count_nonzero(sub <= thr[w], axis=0) - 1
                x_out[idx[w], next_h[w]] = sub[rows, np.arange(len(w))]
                next_h[w] += 1
                thr[w] = hz_ext[next_h[w]]
                again = last[w] > thr[w]
                w, sub = w[again], sub[:, again]
            # the live count only changes at block ends where a lane crossed
            live = next_h < n_h
            n_live = int(np.count_nonzero(live))
            n_lanes = len(idx)
            if 64 * (n_lanes - n_live) >= n_lanes:
                if pending < n_t:
                    slots = np.flatnonzero(~live)[: n_t - pending]
                    new = np.arange(pending, pending + len(slots))
                    uniforms.restart(slots, stream_keys_np(master_seed, trials[new]))
                    state[slots] = 0.0
                    idx[slots] = new
                    last[slots] = start
                    next_h[slots] = 0
                    thr[slots] = hz_ext[0]
                    pending += len(slots)
                    n_live += len(slots)
                elif n_live:
                    uniforms.keep(live)
                    state, f, g = state[live], f[:n_live], g[:n_live]
                    idx = idx[live]
                    next_h = next_h[live]
                    thr = thr[live]
                    last = last[live]
                    hist = hist[:, :n_live]
        hist[0] = last
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
    strictly increasing and below 2^53.
    """
    return _last_sums(_digit_step, master_seed, trial_indices, 0, horizons)


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
    trials = np.asarray(trial_indices)
    out = np.zeros((len(trials), len(cps)), dtype=np.int64)
    # no lane retires early, so the trials run in lockstep blocks of _LANES lanes
    for lo in range(0, len(trials), _LANES):
        block = trials[lo : lo + _LANES]
        uniforms = UniformLanes(stream_keys_np(master_seed, block))
        n = len(block)
        r, f, g = np.zeros(n), np.empty(n), np.empty(n)
        s = np.zeros(n, dtype=np.int64)
        a = np.empty_like(s)
        v = np.empty((_ROWS, n))
        k = 0
        for j, cp in enumerate(cps.tolist()):
            while k < cp:
                if k % _ROWS == 0:
                    uniforms.draw(v)
                # exact int64 sums: the float digits are copied into int64 before the add
                np.copyto(a, _digit_step(r, v[k % _ROWS], f, g), casting="unsafe")
                np.add(s, a, out=s)
                k += 1
            out[lo : lo + len(s), j] = s
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
    by then; horizons must be strictly increasing and below 2^53.
    """
    return _last_sums(_run_step, master_seed, trial_indices, -1, horizons)
