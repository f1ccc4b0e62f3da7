"""Farey-map dynamics, renewal bookkeeping, and the digit-sum fluctuation process.

The Farey map T has branches T0(x) = x/(1-x) on [0, 1/2] and
T1(x) = 1/x - 1 on (1/2, 1]; inducing on A1 = (1/2, 1] recovers the Gauss
map.  The fluctuation process X_n (largest digit sum not exceeding n) equals
1 + Z_{n-1} in terms of the renewal process of visits to A1, which lets all
renewal quantities be computed from digits alone.  The Lasota-Yorke
comparison map (same left branch, doubling right branch, A = (1/2, 1]) is
driven through the same orbit machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log
from typing import Sequence

from .bits import BitSource
from .exact import (
    DEFAULT_REFINE_CAP,
    DigitStream,
    MobiusState,
    NonGenericPointError,
    StreamExhausted,
)

# branch matrices acting on the current iterate, as rows (num, den) of
# (alpha*x + beta)/(gamma*x + delta)
_FAREY_LEFT = (1, 0, -1, 1)  # x / (1 - x)
_FAREY_RIGHT = (-1, 1, 1, 0)  # 1/x - 1
_LY_LEFT = (1, 0, -1, 1)  # x / (1 - x)
_LY_RIGHT = (2, -1, 0, 1)  # 2x - 1

# verify_induced_map_seeded: bits of the materialized point, and the left-run
# length beyond which a run collapses through the closed form
_SEEDED_BITS = 4096
_SEEDED_RUN_LIMIT = 10_000


@dataclass(frozen=True)
class RenewalTrace:
    """Per-orbit renewal bookkeeping up to a horizon n.

    ``return_times`` are the gaps between consecutive visits to the target
    set (the first entry is the time of the first positive-time visit), and
    ``tau_sums`` their partial sums, kept only while they stay <= n.
    """

    n: int
    return_times: tuple[int, ...]
    tau_sums: tuple[int, ...]
    Z_n: int
    N_n: int
    sigma_n: int
    in_K_n: bool


@dataclass(frozen=True)
class FluctuationRecord:
    n: int
    X_n: int
    gap: int
    scaled: float


class LazyOrbit:
    """Lazily refined orbit of a bit-stream point under a two-branch Mobius map.

    The state maps the unread tail of the source to the current iterate.
    Branches are decided by comparing the exact image interval against 1/2,
    absorbing bits until the comparison resolves; hitting the refinement cap
    raises :class:`NonGenericPointError` (branch boundary).  Both maps'
    branches have determinant +-1 or 2, so :meth:`MobiusState.compose`
    keeps the state free of common factors by its parity rule alone.
    """

    __slots__ = ("source", "state", "refine_cap", "left", "right", "time", "bits_consumed")

    def __init__(
        self,
        source: BitSource,
        left: tuple[int, int, int, int] = _FAREY_LEFT,
        right: tuple[int, int, int, int] = _FAREY_RIGHT,
        refine_cap: int = DEFAULT_REFINE_CAP,
    ):
        self.source = source
        self.state = MobiusState.identity()
        self.refine_cap = refine_cap
        self.left = left
        self.right = right
        self.time = 0
        self.bits_consumed = 0

    def _resolve_branch(self) -> bool:
        """True for the right branch (current iterate > 1/2)."""
        st = self.state
        absorbed = 0
        while True:
            # interval endpoints b/d and (a+b)/(c+d) vs 1/2, exact
            lo_right = 2 * st.b > st.d
            hi_right = 2 * (st.a + st.b) > (st.c + st.d)
            if lo_right and hi_right:
                return True
            if not lo_right and not hi_right:
                # both endpoints <= 1/2; right-open at 1/2 so this is the left branch
                return False
            if absorbed >= self.refine_cap:
                raise NonGenericPointError(
                    f"branch undetermined at time {self.time} after {absorbed} bits"
                )
            st.absorb(self.source.next_bit())
            absorbed += 1
            self.bits_consumed += 1

    def step(self) -> bool:
        """Advance one step; returns True when the step used the right branch."""
        right = self._resolve_branch()
        self.state.compose(self.right if right else self.left)
        self.time += 1
        return right

    def in_A1(self) -> bool:
        """Membership of the current iterate in (1/2, 1], refined as needed."""
        return self._resolve_branch()


def _require_unit_interval(x: Fraction) -> None:
    if not 0 <= x <= 1:
        raise ValueError(f"point {x} outside [0, 1]")


def farey_step(x: Fraction) -> Fraction:
    """One exact application of the Farey map."""
    _require_unit_interval(x)
    if 2 * x <= 1:
        return x / (1 - x)
    return 1 / x - 1


def _first_digit(x: Fraction) -> int:
    if not 0 < x <= 1:
        raise ValueError(f"first digit undefined for {x}")
    return x.denominator // x.numerator


def _left_branch_run(x: Fraction, count: int) -> Fraction:
    """count-fold left Farey branch x/(1 - count*x), checking the domain.

    Equals count repeated applications of x -> x/(1-x): the orbit stays in
    the left branch exactly while x <= 1/(j+1), which is asserted before
    collapsing the run.
    """
    if count == 0:
        return x
    if x * (count + 1) > 1:
        raise ValueError(f"{x} leaves the left branch before {count} steps")
    return Fraction(x.numerator, x.denominator - count * x.numerator)


def verify_induced_map(x: Fraction, steps: int, stepwise_limit: int = 64) -> bool:
    """Check stage-wise that inducing the Farey map on A1 gives the Gauss step.

    At each stage the (e+1)-fold Farey image must equal 1/x - a_1(x) as an
    exact rational.  Laminar runs longer than ``stepwise_limit`` use the
    closed-form left-branch power (domain-checked, exactly equal to the
    repeated map).  Rational orbits that terminate (reach 0) before
    ``steps`` stages raise :class:`StreamExhausted`.
    """
    y = x
    for _ in range(steps):
        if y == 0 or y.numerator == y.denominator:
            raise StreamExhausted(f"orbit terminated before {steps} induced steps")
        a1 = _first_digit(y)
        gauss = 1 / y - a1
        if a1 - 1 <= stepwise_limit:
            z = y
            for _ in range(a1 - 1):
                z = farey_step(z)
        else:
            z = _left_branch_run(y, a1 - 1)
        z = farey_step(z)  # the final step leaves A_1 through the right branch
        if z != gauss:
            return False
        y = gauss
    return True


def verify_induced_map_seeded(master_seed: int, stream_index: int, stages: int) -> bool:
    """Induced-map check on a seeded point, materialized to an exact dyadic.

    The point is the first ``_SEEDED_BITS`` stream bits read as
    p/2^_SEEDED_BITS; each stage walks the Farey orbit branch by branch (left
    runs beyond ``_SEEDED_RUN_LIMIT`` collapse through the domain-checked
    closed form) and compares the (e+1)-fold image against the Gauss step by
    exact cross multiplication.  Unreduced integer pairs avoid per-step gcd
    work; numerators and denominators stay below 2^_SEEDED_BITS throughout.
    """
    src = BitSource(master_seed, stream_index)
    p = src.next_bits(_SEEDED_BITS)
    q = 1 << _SEEDED_BITS
    if p == 0:
        raise NonGenericPointError("materialized point is 0")
    for _ in range(stages):
        if p == 0 or p == q:
            raise StreamExhausted(f"orbit terminated before {stages} induced steps")
        a = q // p
        gp, gq = q - a * p, p  # Gauss image (q - a*p)/p
        # orbit route: a-1 left-branch steps, then the right branch
        left = a - 1
        tp, tq = p, q
        if left > _SEEDED_RUN_LIMIT:
            if tp * (left + 1) > tq:
                return False  # would leave the left branch mid-run
            tq -= left * tp
        else:
            for _ in range(left):
                if 2 * tp > tq:
                    return False  # left the branch early: identity broken
                tq -= tp
        if 2 * tp <= tq:
            return False  # must now sit in A_1
        tp, tq = tq - tp, tp  # right branch 1/x - 1
        if tp * gq != gp * tq:
            return False
        p, q = gp, gq
    return True


def fluctuation(stream: DigitStream, n: int) -> FluctuationRecord:
    """X_n = max{S_k : S_k <= n}, its gap n - X_n, and the log-scaled gap."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = stream.index_exceeding(n)
    if k is None:
        raise StreamExhausted(f"stream ended with all sums <= {n}")
    x_n = stream.partial_sum(k - 1)
    gap = n - x_n
    scaled = log(max(gap, 1)) / log(n) if n > 1 else 0.0
    return FluctuationRecord(n=n, X_n=x_n, gap=gap, scaled=scaled)


def renewal_trace(stream: DigitStream, n: int) -> RenewalTrace:
    """Renewal quantities for the Farey system with target set A1, from digits.

    The return-time sequence is read off the digits: an orbit starting in A1
    (first digit 1) returns after a_2, a_3, ...; an orbit starting outside
    first enters after a_1 - 1 steps and then returns after a_2, a_3, ...
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    stream.digit(1)  # a stream with no digits raises StreamExhausted
    visits: list[int] = []
    t = -1
    for a in stream:
        t += a
        if t > n:
            break
        visits.append(t)
    return _trace_from_visits(visits, n)


def kac_process(sigma_n: int, n: int) -> float:
    """Normalized spent time log(sigma + 2)/log(n + 2)."""
    if not 0 <= sigma_n <= n:
        raise ValueError("need 0 <= sigma_n <= n")
    return log(sigma_n + 2) / log(n + 2)


def _trace_from_visits(visits: Sequence[int], n: int) -> RenewalTrace:
    """Assemble a RenewalTrace from the sorted visit times within [0, n]."""
    if not visits:
        return RenewalTrace(n, (), (), 0, 0, n, False)
    sums = tuple(t for t in visits if t)  # a visit at time 0 starts the clock but is not a return
    z_n = visits[-1]
    return RenewalTrace(
        n=n,
        return_times=tuple(b - a for a, b in zip((0, *sums), sums)),
        tau_sums=sums,
        Z_n=z_n,
        N_n=len(sums),
        sigma_n=n - z_n,
        in_K_n=True,
    )


def ly_spent_time(x: LazyOrbit, n: int) -> RenewalTrace:
    """Lasota-Yorke orbit up to time n, recording visits to A = (1/2, 1].

    ``x`` is a :class:`LazyOrbit` at time 0, built with :func:`ly_orbit`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if x.time != 0:
        raise ValueError("orbit must start at time 0")
    visits: list[int] = []
    for t in range(n):
        if x.step():
            visits.append(t)
    if x.in_A1():
        visits.append(n)
    return _trace_from_visits(visits, n)


def farey_orbit(master_seed: int, stream_index: int, refine_cap: int = DEFAULT_REFINE_CAP) -> LazyOrbit:
    """Lazily refined Farey orbit of a seeded random point."""
    return LazyOrbit(BitSource(master_seed, stream_index), _FAREY_LEFT, _FAREY_RIGHT, refine_cap)


def ly_orbit(master_seed: int, stream_index: int, refine_cap: int = DEFAULT_REFINE_CAP) -> LazyOrbit:
    """Lazily refined Lasota-Yorke orbit of a seeded random point."""
    return LazyOrbit(BitSource(master_seed, stream_index), _LY_LEFT, _LY_RIGHT, refine_cap)

