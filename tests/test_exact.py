"""Certified digit extraction: oracle equality, certification, and sum laws."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, islice
from math import gcd

import pytest

from cfrenewal import exact
from cfrenewal.bits import BitSource
from cfrenewal.exact import (
    DigitStream,
    LazyReal,
    MobiusState,
    NonGenericPointError,
    StreamExhausted,
    digits_of_rational,
    gauss_iteration_oracle,
    orbit_records,
)
from cfrenewal.farey import _LY_RETURN, fluctuation, ly_orbit


class ZeroSource(BitSource):
    """A bit source that serves only zeros: the point 0, where no digit is ever determined."""

    def pending(self):
        _, count = super().pending()
        return 0, count


def test_golden_ratio_fixed_point_digits():
    # (sqrt(5)-1)/2 satisfies x = 1/(1+x); seed a state converging there via
    # the constant continued fraction [1,1,1,...]: after emitting, the state
    # must keep producing ones.  Model it as the exact interval fixed point.
    stream = DigitStream.constant(1)
    assert [stream.digit(k) for k in range(1, 8)] == [1] * 7
    assert stream.partial_sum(5) == 5


def test_sqrt2_minus_one_digits_all_twos():
    stream = DigitStream.constant(2)
    assert [stream.digit(k) for k in range(1, 6)] == [2] * 5


def test_rational_digits_match_spec_cases():
    assert _digits(digits_of_rational(3, 7)) == [2, 3]
    assert _digits(digits_of_rational(1, 4)) == [4]
    assert _digits(digits_of_rational(113, 355), 3) == [3, 7, 16]


def _digits(stream: DigitStream, count: int | None = None) -> list[int]:
    out = []
    k = 1
    while count is None or len(out) < count:
        if not stream.ensure(k):
            break
        out.append(stream.digit(k))
        k += 1
    return out


def test_rational_rejects_bad_inputs():
    with pytest.raises(ValueError):
        digits_of_rational(7, 3)
    with pytest.raises(ValueError):
        digits_of_rational(2, 4)
    with pytest.raises(ValueError):
        digits_of_rational(0, 5)


def test_cross_oracle_first_digits_many_seeds():
    # certified digits must agree with the independent 4096-bit fixed-point
    # Gauss iteration on the same bit prefix
    for seed in range(1000):
        real = LazyReal(BitSource(seed, 0))
        certified = [real.next_digit() for _ in range(100)]
        prefix = BitSource(seed, 0).next_bits(4096)
        assert certified == gauss_iteration_oracle(prefix, 4096, 100)


def test_certification_independent_of_refine_cap():
    for seed in (3, 17, 91):
        a = LazyReal(BitSource(seed, 2), refine_cap=512)
        b = LazyReal(BitSource(seed, 2), refine_cap=4096)
        assert [a.next_digit() for _ in range(200)] == [b.next_digit() for _ in range(200)]


def test_euclid_consistency_with_lazy_constant_states():
    rng = random.Random(1)
    for _ in range(1000):
        q = rng.randrange(3, 10**6)
        p = rng.randrange(1, q)
        g = gcd(p, q)
        p, q = p // g, q // g
        if p == 0 or p == q:
            continue
        euclid = _digits(digits_of_rational(p, q))
        lazy = LazyReal(BitSource(0, 0), state=MobiusState(0, p, 0, q))
        got = []
        try:
            for _ in range(len(euclid)):
                got.append(lazy.next_digit())
        except StreamExhausted:
            pass
        assert got == euclid


def test_interval_monotonicity_under_absorption():
    src = BitSource(8, 0)
    st = MobiusState.identity()
    prev_lo, prev_hi = st.interval()
    for _ in range(200):
        st.absorb(src.next_bit())
        lo, hi = st.interval()
        assert prev_lo <= lo and hi <= prev_hi
        prev_lo, prev_hi = lo, hi


def test_endpoints_and_interval_are_exact_fractions():
    # y -> (2 - y)/(y + 3): 2/3 at y = 0, 1/4 at y = 1
    st = MobiusState(-1, 2, 1, 3)
    assert st.endpoints() == (Fraction(2, 3), Fraction(1, 4))
    assert st.interval() == (Fraction(1, 4), Fraction(2, 3))
    assert all(type(v) is Fraction for v in (*st.endpoints(), *st.interval()))


def test_emit_maps_interval_through_gauss_step():
    src = BitSource(21, 0)
    st = MobiusState.identity()
    for _ in range(30):
        digit = st.refine(0, 0)[0]
        while digit is None:
            prev = st.interval()
            st.absorb(src.next_bit())
            lo, hi = st.interval()
            assert prev[0] <= lo and hi <= prev[1]
            digit = st.refine(0, 0)[0]
        # at emission both endpoints are positive and share the digit
        blo, bhi = st.interval()
        assert blo > 0
        st.emit(digit)
        lo, hi = st.interval()
        assert lo == 1 / bhi - digit
        assert hi == 1 / blo - digit


def test_digit_sum_law_exact_integers():
    stream = DigitStream.from_seed(77, 0)
    sums = [stream.partial_sum(k) for k in range(1, 501)]
    assert sums[0] == stream.digit(1)
    for k in range(2, 501):
        assert sums[k - 1] - sums[k - 2] == stream.digit(k)
        assert sums[k - 1] >= k
    # iteration yields the 500 memoized digits, then pulls past them
    real = LazyReal(BitSource(77, 0))
    assert list(islice(stream, 600)) == [real.next_digit() for _ in range(600)]


def test_digit_sums_reproducible_from_scratch():
    first, second = DigitStream.from_seed(123, 9), DigitStream.from_seed(123, 9)
    assert [first.partial_sum(k) for k in range(1, 2001)] == [second.partial_sum(k) for k in range(1, 2001)]


def test_trimmed_sum_examples():
    (ones,) = orbit_records(DigitStream.constant(1), [5])
    assert (ones["S"], ones["trimmed"], ones["max_digit"]) == (5, 4, 1)
    # a finite stream that ends before the last checkpoint yields the records it reached
    two_three = list(orbit_records(DigitStream([2, 3]), [1, 2, 3]))
    assert [(r["k"], r["a"], r["S"], r["trimmed"], r["max_digit"]) for r in two_three] == [
        (1, 2, 2, 0, 2),
        (2, 3, 5, 2, 3),
    ]


def test_geometric_mean_constants():
    for digit in (1, 2):
        (rec,) = orbit_records(DigitStream.constant(digit), [100])
        assert rec["geometric_mean"] == pytest.approx(float(digit))


def test_nongeneric_point_detected_for_all_zero_bits():
    real = LazyReal(ZeroSource(0, 0), refine_cap=256)
    with pytest.raises(NonGenericPointError):
        real.next_digit()


def test_stream_stays_open_after_a_nongeneric_point(monkeypatch):
    # a non-generic point is reported on every query, never as the end of the stream
    monkeypatch.setattr(exact, "BitSource", ZeroSource)
    stream = DigitStream.from_seed(0, 0, refine_cap=64)
    for query in (lambda: stream.ensure(1), lambda: stream.ensure(1), lambda: fluctuation(stream, 10)):
        with pytest.raises(NonGenericPointError):
            query()
    assert not stream.exhausted


# the seeded certified streams, by the integer map each composes after a digit
_SEEDED = {None: DigitStream.from_seed, _LY_RETURN: ly_orbit}


def _caps_and_return_maps(caps: list[int]) -> list:
    """``(cap, None)`` as ``cap`` for the digits, then ``(cap, _LY_RETURN)`` as ``cap-ly`` for the LY gaps."""
    return [pytest.param(c, None, id=str(c)) for c in caps] + [pytest.param(c, _LY_RETURN, id=f"{c}-ly") for c in caps]


def _walk_stream(source: BitSource, cap: int, return_map=None, state=None) -> DigitStream:
    """The certified digits of ``source`` by the bit walk alone from ``state``, ``return_map`` composed after each."""
    return DigitStream(iter(LazyReal(source, cap, state, return_map).next_digit, None))


def _engine_stream(source: BitSource, fresh: BitSource, cap: int, return_map=None, state=None) -> DigitStream:
    """The block engine on ``fresh``, configured by the walk on ``source``, then that walk, as ``_seeded_digits`` builds them."""
    real = LazyReal(source, cap, state, return_map)
    return DigitStream(chain(exact._block_digits(fresh, real), iter(real.next_digit, None)))


def _queries(stream: DigitStream, count: int) -> list:
    """S_1 .. S_count, each query that raises retried once, then ``exhausted``; errors as (type name, message)."""
    out = []
    for k in range(1, count + 1):
        for _ in range(2):
            try:
                out.append(stream.partial_sum(k))
                break
            except (NonGenericPointError, exact.DigitOverflowError) as err:
                out.append((type(err).__name__, str(err)))
    out.append(stream.exhausted)
    return out


@pytest.mark.parametrize("cap, return_map", _caps_and_return_maps([1, 8, 12, 63, 64, 65, 127, 128, 512]))
def test_block_engine_matches_the_walk(cap, return_map):
    # digits, error messages, retried queries and the end of the stream are the walk's
    errors = 0
    for t in range(100):
        got = _queries(_SEEDED[return_map](22, t, cap), 400)
        assert got == _queries(_walk_stream(BitSource(22, t), cap, return_map), 400)
        errors += sum(isinstance(q, tuple) for q in got)
    # caps up to 12 stop some digits; a random digit rarely needs more than 60 bits
    assert (errors > 0) == (cap <= 12)


@lru_cache(maxsize=None)
def _big_digit_bits(t: int, return_map=None) -> int:
    """The first 2048 bits of a point whose expansion repeats digits up to 2^58 next to each other.

    With a ``return_map`` the digits are those of the stream that composes it after each digit.
    """
    al, be, ga, de = return_map or (1, 0, 0, 1)
    x = Fraction(0)
    for d in reversed([3, 2 ** (t + 3), 2 ** (58 - t), 1, 2 ** (t // 2 + 30), 2 ** (t + 9), 2] * 3 + [1]):
        x = 1 / (d + (de * x - be) / (al - ga * x))  # undo the return map, then the Gauss step
    return x.numerator * 2**2048 // x.denominator


class BigDigitSource(BitSource):
    """Stream t serves the bits of ``_big_digit_bits(t, return_map)``, then zeros; some digits take 60 to 116 bits."""

    def __init__(self, master_seed: int, stream_index: int = 0, return_map=None):
        super().__init__(master_seed, stream_index)
        self.return_map = return_map

    def pending(self):
        _, count = super().pending()
        bits = _big_digit_bits(self.stream_index, self.return_map)
        return (bits >> max(2048 - self.position - count, 0)) & ((1 << count) - 1), count


@pytest.mark.parametrize("cap, return_map", _caps_and_return_maps([63, 64, 65, 100, 127]))
def test_block_engine_keeps_the_cap_around_large_digits(monkeypatch, cap, return_map):
    # digits that take about a cap's worth of bits, certified at every offset in
    # a block: the engine emits those the cap allows and hands the rest over
    source = partial(BigDigitSource, return_map=return_map)
    want = [_queries(_walk_stream(source(0, t), cap, return_map), 18) for t in range(50)]
    monkeypatch.setattr(exact, "BitSource", source)
    assert [_queries(_SEEDED[return_map](0, t, cap), 18) for t in range(50)] == want
    errors = sum(isinstance(q, tuple) for rows in want for q in rows)
    assert (errors > 0) == (cap <= 100)


class DyadicSource(BitSource):
    """One seeded block, then zeros: the dyadic point p/2^64, whose expansion ends."""

    def pending(self):
        bits, count = super().pending()
        return (bits if self.position < 64 else 0), count


class LateOnesSource(BitSource):
    """64 zero bits, then ones: a point just above 2^-64, whose first digit is 2^63 or more."""

    def pending(self):
        _, count = super().pending()
        return (0 if self.position < 64 else (1 << count) - 1), count


@pytest.mark.parametrize("source", [DyadicSource, LateOnesSource])
@pytest.mark.parametrize("cap, return_map", _caps_and_return_maps([64, 100, 512]))
def test_block_engine_hands_stuck_points_to_the_walk(monkeypatch, source, cap, return_map):
    # the engine hands over without raising, so the walk's error comes on every
    # query and the stream stays open
    for seed in range(8):
        want = _queries(_walk_stream(source(seed, 0), cap, return_map), 60)
        with monkeypatch.context() as patch:
            patch.setattr(exact, "BitSource", source)
            stream = _SEEDED[return_map](seed, 0, cap)
        assert _queries(stream, 60) == want
        # a dyadic point's 30-odd digits come through the engine and are replayed
        first_error = next(i for i, q in enumerate(want) if isinstance(q, tuple))
        assert first_error >= 30 if source is DyadicSource else first_error == 0
        assert all(isinstance(q, tuple) for q in want[first_error:-1])
        for query in (lambda: stream.ensure(first_error + 1), lambda: fluctuation(stream, 1 << 70)):
            with pytest.raises((NonGenericPointError, exact.DigitOverflowError)):
                query()
        assert not stream.exhausted


def test_block_engine_matches_the_walk_on_long_streams():
    # at 5000 digits the state entries are near 8500 bits, against 700 at the 400 sums above
    for return_map, seeded in _SEEDED.items():
        for t in range(5):
            want = list(islice(_walk_stream(BitSource(25, t), 512, return_map), 5000))
            assert len(want) == 5000
            assert list(islice(seeded(25, t, 512), 5000)) == want


@pytest.mark.parametrize("start", [(1, 0, -1, 2), (2, 0, -1, 3)], ids=["R=1", "R=1/2"])
@pytest.mark.parametrize("cap, return_map", _caps_and_return_maps([12, 64, 512]))
def test_block_engine_starts_from_the_walks_state(start, cap, return_map):
    # the start laws R = 1 and R = 1/2, given to the walk alone, reach the engine too
    for t in range(40):
        want = _queries(_walk_stream(BitSource(23, t), cap, return_map, MobiusState(*start)), 300)
        got = _queries(_engine_stream(BitSource(23, t), BitSource(23, t), cap, return_map, MobiusState(*start)), 300)
        assert got == want


# 59 zero bits, then bits after which x = 1/(3 + y/2) has its second digit, near 2^61, certified at bit 128
_LATE_SECOND_DIGIT = 0x109EDB95F2C787DDFB


class LateSecondDigitSource(BitSource):
    """Serves the 128 bits of ``_LATE_SECOND_DIGIT``, first bit highest, then zeros."""

    def pending(self):
        _, count = super().pending()
        end = self.position + count
        return (_LATE_SECOND_DIGIT >> 128 - end if end <= 128 else 0) & ((1 << count) - 1), count


@pytest.mark.parametrize("cap", [127, 128, 512])
def test_block_engine_counts_digits_the_start_determines_before_any_bit(cap):
    # the start y -> 2/(6 + y) determines the digit 3 with no bit, so B_1 = 0, and
    # the next digit, certified at bit 128, is one bit past a cap of 127
    start = (0, 2, 1, 6)
    source = partial(LateSecondDigitSource, 0, 0)
    want = _queries(_walk_stream(source(), cap, None, MobiusState(*start)), 4)
    assert _queries(_engine_stream(source(), source(), cap, None, MobiusState(*start)), 4) == want
    assert want[0] == 3 and isinstance(want[1], tuple) == (cap == 127)


_BIG = 1 << 64

# start states for determined_digits: the identity, the start laws R = 1 and
# R = 1/2, a constant, one with a and c even, and two whose next digit is 2^64
_DETERMINED_STARTS = {
    "identity": (1, 0, 0, 1),
    "R=1": (1, 0, -1, 2),
    "R=1/2": (2, 0, -1, 3),
    "constant": (0, 113, 0, 355),
    "even": (2, 1, 0, 4),
    "big-first": (0, 2, 1, 2 * _BIG),  # y -> 2/(2^65 + y): the digit 2^64
    "big-second": (1, 2 * _BIG, 3, 6 * _BIG + 2),  # y -> 1/(3 + 2/(2^65 + y)): 3, then 2^64
}


class _CountingState(MobiusState):
    """A state that counts the normalizations that remove a common factor."""

    removed = 0

    def normalize(self) -> None:
        before = (self.a, self.b, self.c, self.d)
        super().normalize()
        self.removed += before != (self.a, self.b, self.c, self.d)


def _stepwise_digits(st: MobiusState, return_map, limit: int):
    """What ``determined_digits`` must do: ``refine(0, 0)``, ``emit``, then ``compose``, one digit at a time.

    Returns the digits and ``(count, stopped at a digit of 2^63 or more)``,
    or None in its place if ``limit`` digits came first.
    """
    digits = []
    m = st.refine(0, 0)[0]
    while m is not None and m < 2**63:
        if len(digits) == limit:
            return digits, None
        st.emit(m)
        if return_map is not None:
            st.compose(return_map)
        digits.append(m)
        m = st.refine(0, 0)[0]
    return digits, (len(digits), m is not None)


def _determined(st: MobiusState, return_map, limit: int):
    """``determined_digits`` run to its end, or to ``limit`` digits; shaped like ``_stepwise_digits``."""
    gen = st.determined_digits(return_map)
    digits = []
    for _ in range(limit + 1):
        try:
            digits.append(next(gen))
        except StopIteration as stop:
            return digits, stop.value
    return digits[:limit], None


_NEGATED_LY = tuple(-v for v in _LY_RETURN)


@pytest.mark.parametrize("return_map", [None, _LY_RETURN, _NEGATED_LY], ids=["cf", "ly", "ly-negated"])
@pytest.mark.parametrize("start", list(_DETERMINED_STARTS))
def test_determined_digits_match_the_stepwise_gauss_steps(start, return_map):
    # each start, then after each of 12 random 64-bit blocks absorbed into it:
    # the same digits, the same return value and the same written-back state;
    # the LY map with every sign negated is the same map, and makes each Gauss
    # step flip the signs to keep the denominator positive
    rng = random.Random(start)
    removed = 0
    for _ in range(6):
        st, ref = _CountingState(*_DETERMINED_STARTS[start]), MobiusState(*_DETERMINED_STARTS[start])
        st.removed = 0
        for block in range(13):
            got = _determined(st, return_map, 200)
            assert got == _stepwise_digits(ref, return_map, 200)
            if got[1] is None:
                # a point under the LY map goes on with digits 1 for ever
                assert start == "constant" and return_map is not None and got[0][-50:] == [1] * 50
                break
            assert (st.a, st.b, st.c, st.d) == (ref.a, ref.b, ref.c, ref.d)
            if block == 0 and start.startswith("big") and return_map is None:
                assert got == (([3], (1, True)) if start == "big-second" else ([], (0, True)))
            bits = rng.getrandbits(64)
            st.absorb(bits, 64)
            ref.absorb(bits, 64)
        removed += st.removed
    # a common factor is left to remove by the even start, and by the LY map
    # (determinant -2) wherever digits go on; never from the identity alone
    assert (removed > 0) == (start == "even" or (return_map is not None and start in ("identity", "R=1", "R=1/2")))


def test_absorbing_a_block_equals_absorbing_its_bits():
    src = BitSource(4, 2)
    block, count = src.pending()
    whole, single = MobiusState(3, 1, -1, 5), MobiusState(3, 1, -1, 5)
    whole.absorb(block, count)
    for _ in range(count):
        single.absorb(src.next_bit())
    assert (whole.a, whole.b, whole.c, whole.d) == (single.a, single.b, single.c, single.d)


@pytest.mark.parametrize("cap", [0, -3])
def test_refine_cap_below_one_is_rejected(cap):
    with pytest.raises(ValueError, match="must be >= 1"):
        LazyReal(BitSource(1, 0), refine_cap=cap)


def test_mobius_state_normalizes_gcd():
    st = MobiusState(2, 4, 0, 8)
    assert (st.a, st.b, st.c, st.d) == (1, 2, 0, 4)


def test_stream_rejects_invalid_digits():
    with pytest.raises(ValueError):
        DigitStream([0]).digit(1)
    # the digit that raised is kept, so a retry cannot read the next one in its place
    stream = DigitStream([1, 0, 3])
    for _ in range(2):
        with pytest.raises(ValueError, match="must be >= 1"):
            stream.partial_sum(2)
    assert stream.partial_sum(1) == 1 and not stream.exhausted


def test_stream_rejects_indices_before_the_first_digit():
    # digits are numbered from 1 and sums from S_0, before and after the memo fills
    stream = DigitStream([2, 3])
    for pulled in (False, True):
        if pulled:
            assert stream.ensure(2)
        for k in (0, -1):
            with pytest.raises(ValueError, match="numbered from 1"):
                stream.digit(k)
        with pytest.raises(ValueError, match="numbered from 0"):
            stream.partial_sum(-1)
    assert [stream.partial_sum(k) for k in range(3)] == [0, 2, 5]
    assert [stream.digit(k) for k in (1, 2)] == [2, 3]


def test_digit_overflow_is_a_typed_error():
    from cfrenewal.exact import DigitOverflowError

    huge = LazyReal(BitSource(0, 0), state=MobiusState(0, 1, 0, 2**63 + 5))
    with pytest.raises(DigitOverflowError):
        huge.next_digit()
    stream = DigitStream([2**63 - 1, 5])
    stream.digit(1)
    with pytest.raises(DigitOverflowError):
        stream.digit(2)
    # the digit that overflowed is kept, so a retry cannot sum the next one in its place
    stream = DigitStream([2**62, 2**62, 5])
    for query in (lambda: stream.partial_sum(2), lambda: stream.partial_sum(2), lambda: stream.digit(2)):
        with pytest.raises(DigitOverflowError):
            query()
    assert stream.partial_sum(1) == 2**62 and not stream.exhausted


def test_bits_consumed_matches_source_when_next_digit_raises():
    class OnesSource(BitSource):
        def pending(self):
            _, count = super().pending()
            return (1 << count) - 1, count

    src = OnesSource(0, 0)
    real = LazyReal(src, refine_cap=64)
    assert real.next_digit() == 1
    with pytest.raises(NonGenericPointError):
        real.next_digit()
    assert real.bits_consumed == src.position == 66


def _reference_digit(st: MobiusState):
    """The integer part of 1/xi if it is the same m >= 1 at both ends of the image, else None."""
    b, ab = st.b, st.a + st.b
    if b <= 0 or ab <= 0:
        return None
    m = st.d // b
    return m if m >= 1 and m * ab <= st.c + st.d < (m + 1) * ab else None


def _reference_walk(src: BitSource, state: MobiusState, count: int):
    """Certified digits by a bit-by-bit walk that normalizes with the full gcd.

    Yields (digit, bits consumed, (a, b, c, d), common factor removed)
    after each digit, and stops where the image collapses to 0.
    """
    st = MobiusState(state.a, state.b, state.c, state.d)
    bits = 0
    for _ in range(count):
        digit = _reference_digit(st)
        while digit is None:
            if st.a == 0 and st.b == 0:
                return
            st.absorb(src.next_bit())
            bits += 1
            digit = _reference_digit(st)
        a, b, c, d = st.c - digit * st.a, st.d - digit * st.b, st.a, st.b
        g = gcd(gcd(a, b), gcd(c, d))
        st.a, st.b, st.c, st.d = a // g, b // g, c // g, d // g
        yield digit, bits, (st.a, st.b, st.c, st.d), g


def _lazy_walk(src: BitSource, state: MobiusState, count: int):
    real = LazyReal(src, state=state)
    for _ in range(count):
        try:
            digit = real.next_digit()
        except StreamExhausted:
            return
        st = real.state
        yield digit, real.bits_consumed, (st.a, st.b, st.c, st.d)


def test_lazy_real_matches_full_gcd_reference_walk():
    for seed in range(100):
        ref = list(_reference_walk(BitSource(seed, 7), MobiusState.identity(), 300))
        got = list(_lazy_walk(BitSource(seed, 7), MobiusState.identity(), 300))
        assert len(got) == 300
        assert got == [row[:3] for row in ref]
        for _, bits, (a, b, c, d), g in ref:
            assert g == 1
            assert gcd(a, c) == 1
            assert gcd(gcd(a, b), gcd(c, d)) == 1
            assert abs(a * d - b * c) == 1 << bits


def test_lazy_real_matches_reference_walk_from_user_states():
    fired = 0
    for seed in range(20):
        ref = list(_reference_walk(BitSource(seed, 3), MobiusState(2, 1, 0, 4), 300))
        got = list(_lazy_walk(BitSource(seed, 3), MobiusState(2, 1, 0, 4), 300))
        assert len(got) == 300
        assert got == [row[:3] for row in ref]
        fired += sum(g > 1 for *_, g in ref)
    # the state starts with a and c both even, so normalization has work to do
    assert fired > 0
    for p, q in ((3, 7), (113, 355), (1, 2**40 + 1), (89, 144)):
        ref = list(_reference_walk(BitSource(1, 0), MobiusState(0, p, 0, q), 50))
        got = list(_lazy_walk(BitSource(1, 0), MobiusState(0, p, 0, q), 50))
        assert got == [row[:3] for row in ref]
        assert [row[0] for row in got] == _digits(digits_of_rational(p, q))


@pytest.mark.parametrize("cap", [1, 63, 64, 65, 512])
def test_block_refinement_matches_reference_walk(cap):
    # the identity, the R = 1 start law and a constant, from a fresh source
    # and from one that has served 37 bits one at a time (mid-block)
    starts = (MobiusState.identity, lambda: MobiusState(1, 0, -1, 2), lambda: MobiusState(0, 113, 0, 355))
    for make in starts:
        for served in (0, 37):
            for seed in range(8):
                ref_src, src = BitSource(seed, 5), BitSource(seed, 5)
                for s in (ref_src, src):
                    for _ in range(served):
                        s.next_bit()
                real = LazyReal(src, refine_cap=cap, state=make())
                prev = emitted = 0
                for digit, bits, abcd, _ in _reference_walk(ref_src, make(), 200):
                    if bits - prev > cap:
                        with pytest.raises(NonGenericPointError):
                            real.next_digit()
                        assert real.bits_consumed == src.position - served == prev + cap
                        break
                    assert real.next_digit() == digit
                    st = real.state
                    assert (real.bits_consumed, (st.a, st.b, st.c, st.d)) == (bits, abcd)
                    assert src.position == served + bits
                    prev = bits
                    emitted += 1
                else:
                    if emitted < 200:  # the reference walk stopped where the image collapsed to 0
                        with pytest.raises(StreamExhausted):
                            real.next_digit()
                        assert real.bits_consumed == src.position - served == prev


def test_refine_stops_at_the_first_determining_bit():
    src = BitSource(13, 1)
    block, count = src.pending()
    ref = MobiusState(1, 0, -1, 2)
    bits_needed = 0
    while _reference_digit(ref) is None:
        bits_needed += 1
        ref.absorb((block >> (count - bits_needed)) & 1)
    st = MobiusState(1, 0, -1, 2)
    assert st.refine(block, count) == (_reference_digit(ref), bits_needed)
    assert st.refine(0, 0)[0] == _reference_digit(ref)
    assert (st.a, st.b, st.c, st.d) == (ref.a, ref.b, ref.c, ref.d)
    short = MobiusState(1, 0, -1, 2)
    assert short.refine(block >> (count - bits_needed + 1), bits_needed - 1) == (None, bits_needed - 1)
    assert MobiusState(0, 0, 0, 1).refine(block, count) == (None, 0)
