"""Reference computations for checking cfrenewal outputs, written apart from it.

Nothing here imports cfrenewal.  Each routine is derived from the method's
definition, not from the package's code:

* the keyed SplitMix64 block generator and the conditional-law digit sampler
  (``P(a >= m | r) = (1+r)/(m+r)`` inverted with one uniform per digit,
  ``r -> 1/(a+r)``), in plain Python integers and floats;
* the ``2^n`` inverse-branch sum for ``T^n f(x)``;
* one- and two-sample Kolmogorov-Smirnov statistics;
* an exact-rational check that a continued-fraction digit prefix holds on a
  whole dyadic interval.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Lochs' constant: binary digits of precision per continued-fraction digit
LOCHS_BITS_PER_DIGIT = math.pi**2 / (6.0 * math.log(2.0) ** 2)


# ---------------------------------------------------------------- bits


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_key(master_seed: int, stream_index: int) -> int:
    return mix64(mix64(master_seed) ^ (((stream_index + 1) * GOLDEN) & MASK64))


def block(key: int, index: int) -> int:
    return mix64(key + (index + 1) * GOLDEN)


def uniform(key: int, index: int) -> float:
    """Block ``index`` mapped to the centre of its 2^-53 cell in (0, 1)."""
    return ((block(key, index) >> 11) + 0.5) * 2.0**-53


def bit_prefix(master_seed: int, stream_index: int, count: int) -> int:
    """The first ``count`` bits of the stream, most significant first, as an integer."""
    key = stream_key(master_seed, stream_index)
    whole, rest = divmod(count, 64)
    out = 0
    for j in range(whole):
        out = (out << 64) | block(key, j)
    if rest:
        out = (out << rest) | (block(key, whole) >> (64 - rest))
    return out


# ---------------------------------------------------------------- sampler


def sampled_digits(master_seed: int, stream_index: int) -> Iterator[int]:
    """Digits of one trial of the conditional-law sampler, one block per digit."""
    key = stream_key(master_seed, stream_index)
    r = 0.0
    j = 0
    while True:
        v = uniform(key, j)
        j += 1
        a = math.floor((1.0 + r * (1.0 - v)) / v)
        r = 1.0 / (a + r)
        yield a


def crossings(master_seed: int, stream_index: int, horizons: Sequence[int]) -> list[int]:
    """X_n = max{S_k : S_k <= n} at each increasing horizon n."""
    out: list[int] = []
    s = 0
    for a in sampled_digits(master_seed, stream_index):
        # one digit may carry the sum past several horizons at once
        while len(out) < len(horizons) and s + a > horizons[len(out)]:
            out.append(s)
        if len(out) == len(horizons):
            return out
        s += a
    raise AssertionError("unreachable: the digit iterator is endless")


def sums_at(master_seed: int, stream_index: int, checkpoints: Sequence[int]) -> list[int]:
    """S_k at each increasing digit count k."""
    out = []
    s = 0
    k = 0
    digits = sampled_digits(master_seed, stream_index)
    for cp in checkpoints:
        while k < cp:
            s += next(digits)
            k += 1
        out.append(s)
    return out


# ---------------------------------------------------------------- statistics


def ks_uniform(values: Sequence[float]) -> float:
    """sup |F_n - F| against U[0, 1], evaluated on both sides of each jump."""
    xs = sorted(min(max(v, 0.0), 1.0) for v in values)
    n = len(xs)
    return max(max((i + 1) / n - x, x - i / n) for i, x in enumerate(xs))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> float:
    """sup |F_a - F_b| by a merged walk over both sorted samples."""
    xa, xb = sorted(a), sorted(b)
    na, nb = len(xa), len(xb)
    i = j = 0
    worst = 0.0
    while i < na or j < nb:
        t = min(xa[i] if i < na else math.inf, xb[j] if j < nb else math.inf)
        while i < na and xa[i] == t:
            i += 1
        while j < nb and xb[j] == t:
            j += 1
        worst = max(worst, abs(i / na - j / nb))
    return worst


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (the 'linear' rule of Hyndman and Fan, type 7)."""
    xs = sorted(values)
    h = (len(xs) - 1) * q / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


# ---------------------------------------------------------------- operator


def branch_sum(f: Callable[[float], float], n: int, x: float) -> float:
    """T^n f(x) for Tf(x) = [f(x/(1+x)) + x f(1/(1+x))]/(1+x), as a 2^n-term sum."""
    terms = [(1.0, x)]
    for _ in range(n):
        nxt = []
        for w, y in terms:
            d = 1.0 + y
            nxt.append((w / d, y / d))
            nxt.append((w * y / d, 1.0 / d))
        terms = nxt
    return math.fsum(w * f(y) for w, y in terms)


# ---------------------------------------------------------------- certified digits


def cylinder_holds(digits: Sequence[int], bits: Sequence[int], master_seed: int, stream_index: int) -> bool:
    """True when digit prefix a_1..a_k holds on the whole consumed-bit interval, for every k.

    ``bits[k-1]`` is the number B_k of stream bits consumed when a_k was
    emitted.  With P the first B_k bits, every x in [P/2^B_k, (P+1)/2^B_k]
    must lie in the closed cylinder with endpoints p_k/q_k and
    (p_k + p_{k-1})/(q_k + q_{k-1}), compared by integer cross-multiplication.
    """
    if len(digits) != len(bits) or any(b2 < b1 for b1, b2 in zip(bits, bits[1:])):
        return False
    prefix_all = bit_prefix(master_seed, stream_index, bits[-1]) if bits else 0
    p_prev, q_prev = 1, 0  # p_{-1}, q_{-1}
    p, q = 0, 1  # p_0, q_0
    for a, b in zip(digits, bits):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        lo, hi = Fraction(p, q), Fraction(p + p_prev, q + q_prev)
        if lo > hi:
            lo, hi = hi, lo
        prefix = prefix_all >> (bits[-1] - b)
        scale = 1 << b
        if prefix * lo.denominator < lo.numerator * scale:
            return False
        if (prefix + 1) * hi.denominator > hi.numerator * scale:
            return False
    return True
