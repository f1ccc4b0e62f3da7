"""Farey-map dynamics, inducing, renewal traces, and the fluctuation process."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, log

import pytest

from cfrenewal import exact
from cfrenewal.bits import BitSource
from cfrenewal.exact import DigitStream, LazyReal, NonGenericPointError, StreamExhausted
from cfrenewal.farey import (
    _LY_RETURN,
    _left_branch_run,
    farey_step,
    fluctuation,
    kac_process,
    ly_orbit,
    renewal_trace,
    verify_induced_map,
)


def _interval_index(x: Fraction) -> int:
    """Index m with x in A_m = (1/(m+1), 1/m]: the first digit of x."""
    return x.denominator // x.numerator


def test_farey_step_spec_examples():
    assert farey_step(Fraction(1, 3)) == Fraction(1, 2)
    assert farey_step(Fraction(3, 4)) == Fraction(1, 3)


def test_farey_fixed_points():
    assert farey_step(Fraction(0)) == 0
    # gamma - 1 is irrational; check the rational dynamics around it instead:
    # T maps A_n onto A_{n-1} exactly
    rng = random.Random(4)
    for _ in range(300):
        q = rng.randrange(3, 10**4)
        p = rng.randrange(1, q)
        g = gcd(p, q)
        x = Fraction(p // g, q // g)
        if x >= 1 or _interval_index(x) < 2:
            continue
        n = _interval_index(x)
        assert _interval_index(farey_step(x)) == n - 1


def test_verify_induced_map_examples():
    assert verify_induced_map(Fraction(2, 7), 1)
    rng = random.Random(8)
    checked = 0
    for _ in range(400):
        q = rng.randrange(10**5, 10**9)
        p = rng.randrange(1, q)
        g = gcd(p, q)
        x = Fraction(p // g, q // g)
        try:
            assert verify_induced_map(x, 8)
            checked += 1
        except StreamExhausted:
            pass
    assert checked > 300


def test_fluctuation_examples():
    ones = DigitStream.constant(1)
    rec = fluctuation(ones, 17)
    assert rec.X_n == 17 and rec.gap == 0 and rec.scaled == 0.0

    s = DigitStream([2, 3, 100])
    rec4 = fluctuation(s, 4)
    assert rec4.X_n == 2 and rec4.gap == 2
    rec5 = fluctuation(s, 5)
    assert rec5.X_n == 5 and rec5.gap == 0
    # a horizon past the last sum ends the stream; smaller ones are answered from the memo
    with pytest.raises(StreamExhausted, match="all sums <= 200"):
        fluctuation(s, 200)
    assert s.exhausted and fluctuation(s, 4) == rec4

    big_first = DigitStream([10, 1])
    rec9 = fluctuation(big_first, 9)
    assert rec9.X_n == 0 and rec9.gap == 9
    assert rec9.scaled == pytest.approx(1.0)


def test_renewal_trace_spec_examples():
    ones = DigitStream.constant(1)
    tr = renewal_trace(ones, 10)
    assert tr.Z_n == 10 and tr.sigma_n == 0 and tr.in_K_n

    s = DigitStream([3, 2, 50])
    tr4 = renewal_trace(s, 4)
    assert tr4.return_times[:2] == (2, 2)
    assert tr4.tau_sums[:2] == (2, 4)
    assert tr4.Z_n == 4 and tr4.sigma_n == 0

    far = DigitStream([10, 1])
    tr5 = renewal_trace(far, 5)
    assert not tr5.in_K_n and tr5.Z_n == 0 and tr5.N_n == 0 and tr5.sigma_n == 5

    # the only visit is at time 0: it starts the clock but is not a return
    once = renewal_trace(DigitStream([1, 100]), 5)
    assert once.in_K_n and once.Z_n == 0 and once.N_n == 0 and once.sigma_n == 5


def test_lemma_identity_on_seeded_streams():
    # X_n == 1 + Z_{n-1} exactly whenever the orbit hits A_1 by n-1, else 0
    for trial in range(150):
        stream = DigitStream.from_seed(314, trial)
        for n in (100, 1000):
            rec = fluctuation(stream, n)
            tr = renewal_trace(stream, n - 1)
            if tr.in_K_n:
                assert rec.X_n == 1 + tr.Z_n
                assert rec.gap == (n - 1) - tr.Z_n
                assert tr.sigma_n == rec.gap
            else:
                assert rec.X_n == 0


def test_renewal_tau_construction_matches_lemma_cases():
    # first digit 1: tau_k = a_{k+1}; first digit > 1: tau_1 = a_1 - 1, then a_k
    s = DigitStream([1, 3, 2, 4])
    tr = renewal_trace(s, 9)
    assert tr.return_times == (3, 2, 4)
    s2 = DigitStream([3, 2, 4])
    tr2 = renewal_trace(s2, 8)
    assert tr2.return_times == (2, 2, 4)


def test_kac_process_values():
    assert kac_process(0, 10) == pytest.approx(log(2) / log(12))
    assert kac_process(10, 10) == 1.0
    assert kac_process(8, 98) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        kac_process(11, 10)


class _PrefixSource:
    """Bit source that serves fixed leading bits, then a seeded stream."""

    def __init__(self, prefix: str, tail: BitSource):
        self.prefix = prefix
        self.tail = tail
        self.stream_index = tail.stream_index
        self.position = 0

    def pending(self) -> tuple[int, int]:
        return (int(self.prefix, 2), len(self.prefix)) if self.prefix else self.tail.pending()

    def skip(self, count: int) -> None:
        self.position += count
        if self.prefix:
            self.prefix = self.prefix[count:]
        else:
            self.tail.skip(count)


def _ly_orbit_from_prefix(monkeypatch, prefix: str) -> DigitStream:
    monkeypatch.setattr(exact, "BitSource", lambda seed, index: _PrefixSource(prefix, BitSource(seed, index)))
    return ly_orbit(77, 0)


def test_ly_step_and_spent_time_examples(monkeypatch):
    # just below 3/4 = 0.11: 2x - 1 lands just below 1/2, so time 0 is the only visit
    tr = renewal_trace(_ly_orbit_from_prefix(monkeypatch, "10" + "1" * 40), 1)
    assert tr.Z_n == 0 and tr.sigma_n == 1 and tr.in_K_n
    # just below 2/3 = 0.(10): 2/3 -> 1/3 -> 1/2 from below, no return by time 2
    tr2 = renewal_trace(_ly_orbit_from_prefix(monkeypatch, "10" * 20 + "00"), 2)
    assert tr2.Z_n == 0 and tr2.sigma_n == 2 and tr2.in_K_n


class _ZeroSource(BitSource):
    """A bit source that serves only zeros: the point 0, where no gap is ever determined."""

    def pending(self):
        _, count = super().pending()
        return 0, count


def test_ly_orbit_stays_open_after_a_nongeneric_point(monkeypatch):
    # a non-generic point is reported on every query, never as the end of the orbit
    monkeypatch.setattr(exact, "BitSource", _ZeroSource)
    stream = ly_orbit(0, 0, refine_cap=64)
    for query in (lambda: stream.ensure(1), lambda: stream.ensure(1), lambda: renewal_trace(stream, 10)):
        with pytest.raises(NonGenericPointError):
            query()
    assert not stream.exhausted


def test_ly_spent_time_deterministic_replay():
    a = renewal_trace(ly_orbit(500, 3), 10_000)
    b = renewal_trace(ly_orbit(500, 3), 10_000)
    assert a == b
    assert 0 <= a.sigma_n <= 10_000


def test_ly_orbit_equals_full_gcd_walk():
    # the parity-gated normalization of MobiusState.emit and the power-of-2 shift
    # of compose leave the same states as a full gcd after every digit and return map
    factors = 0  # return maps after which the full gcd was above 1
    for stream in range(10):
        gaps = iter(ly_orbit(31, stream))
        real = LazyReal(BitSource(31, stream), return_map=_LY_RETURN)
        ref = LazyReal(BitSource(31, stream))
        al, be, ga, de = _LY_RETURN
        for _ in range(2000):
            assert real.next_digit() == ref.next_digit() == next(gaps)
            st = ref.state
            a, b, c, d = st.a, st.b, st.c, st.d
            a, b, c, d = al * a + be * c, al * b + be * d, ga * a + de * c, ga * b + de * d
            if d < 0 or c + d < 0:
                a, b, c, d = -a, -b, -c, -d
            g = gcd(gcd(a, b), gcd(c, d))
            factors += g > 1
            st.a, st.b, st.c, st.d = a // g, b // g, c // g, d // g
            rs = real.state
            assert (rs.a, rs.b, rs.c, rs.d) == (st.a, st.b, st.c, st.d)
            assert real.bits_consumed == ref.bits_consumed
    # the doubling branch of the Lasota-Yorke map does leave common factors
    assert factors > 0


def _ly_visits(p: int, q: int, n: int) -> list[int]:
    """Times t <= n at which the Lasota-Yorke orbit of p/q lies in (1/2, 1], on unreduced integer pairs."""
    visits = []
    for t in range(n + 1):
        if 2 * p > q:
            visits.append(t)
            p = 2 * p - q  # 2x - 1
        else:
            q -= p  # x / (1 - x)
    return visits


def test_ly_orbit_matches_exact_integer_orbit():
    # the orbit of the dyadic p/2^4096 read off the seeded stream, walked
    # branch by branch in exact arithmetic; (p + 1)/2^4096 takes the same
    # branches, so every real with these 4096 leading bits does
    bits = 4096
    for trial in range(40):
        p = BitSource(404, trial).next_bits(bits)
        visits = _ly_visits(p, 1 << bits, 1000)
        assert _ly_visits(p + 1, 1 << bits, 1000) == visits
        for n in (1, 2, 7, 60, 1000):
            seen = [t for t in visits if t <= n]
            tr = renewal_trace(ly_orbit(404, trial), n)
            assert tr.in_K_n == bool(seen)
            assert tr.Z_n == (seen[-1] if seen else 0)
            assert tr.sigma_n == n - tr.Z_n
            assert tr.tau_sums == tuple(t for t in seen if t)


def test_renewal_trace_invariants_random():
    for trial in range(100):
        stream = DigitStream.from_seed(99, trial)
        tr = renewal_trace(stream, 500)
        assert 0 <= tr.sigma_n <= 500
        if tr.in_K_n:
            assert tr.Z_n + tr.sigma_n == 500
            assert tr.N_n == len(tr.tau_sums)
            if tr.N_n:
                assert tr.tau_sums[-1] <= 500


def test_interval_structure_up_to_thousand():
    # T maps A_n = (1/(n+1), 1/n] onto A_{n-1}, swept over every index <= 1000
    for n in range(2, 1001):
        for x in (
            Fraction(2, 2 * n + 1),  # midpoint of (1/(n+1), 1/n)
            Fraction(1, n),  # right endpoint, included
        ):
            assert _interval_index(x) == n
            assert _interval_index(farey_step(x)) == n - 1


def test_induced_map_closed_form_matches_stepwise():
    rng = random.Random(77)
    for _ in range(200):
        q = rng.randrange(10**4, 10**8)
        p = rng.randrange(1, q)
        g = gcd(p, q)
        x = Fraction(p // g, q // g)
        try:
            a = verify_induced_map(x, 5)
            b = verify_induced_map(x, 5, stepwise_limit=0)
        except Exception:
            continue
        assert a == b


def test_left_branch_run_is_an_exact_fraction():
    x = Fraction(1, 7)
    z = x
    for _ in range(5):
        z = farey_step(z)
    run = _left_branch_run(x, 5)
    assert run == z == Fraction(1, 2)
    assert type(run) is Fraction
    with pytest.raises(ValueError):
        _left_branch_run(x, 7)


def test_verify_induced_map_seeded_matches_fraction_path():
    from cfrenewal.bits import BitSource
    from cfrenewal.farey import verify_induced_map_seeded

    for trial in range(50):
        assert verify_induced_map_seeded(808, trial, 25)
        # the same materialized point through the Fraction-based checker
        prefix = BitSource(808, trial).next_bits(4096)
        assert verify_induced_map(Fraction(prefix, 1 << 4096), 25)


def test_sampled_streams_satisfy_renewal_identity():
    # ties the vectorized crossing kernel to the renewal bookkeeping exactly
    import numpy as np

    from cfrenewal.sampling import digit_sum_crossings, sampled_digits

    n = 500
    x_vec = digit_sum_crossings(444, np.arange(80, dtype=np.uint64), [n])[:, 0]
    for t in range(80):
        stream = DigitStream(sampled_digits(444, t))
        tr = renewal_trace(stream, n - 1)
        want = 1 + tr.Z_n if tr.in_K_n else 0
        assert int(x_vec[t]) == want


def test_fluctuation_horizons_in_any_order():
    # querying a large horizon first must not corrupt smaller-horizon answers
    fresh = DigitStream.from_seed(55, 8)
    big_first = fluctuation(fresh, 10_000)
    small_after = fluctuation(fresh, 100)
    fresh2 = DigitStream.from_seed(55, 8)
    small_only = fluctuation(fresh2, 100)
    assert small_after == small_only
    assert fluctuation(fresh2, 10_000) == big_first
