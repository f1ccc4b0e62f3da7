"""Certified continued-fraction digit extraction.

A lazily refined real is a shrinking dyadic interval fed by a seeded bit
stream, composed with an integer Mobius map that tracks where the remaining
(unread) tail of the number currently lives.  A digit is emitted only once
the integer part of the reciprocal is constant on the whole image interval,
so every emitted digit is valid for every real consistent with the bits
consumed so far.

No gcd is taken per digit.  Absorbing a bit leaves ``(a, c)`` unchanged and
the Gauss step maps it to ``(c - m*a, a)``, so ``gcd(a, c)`` never changes;
and absorbing bits into a state whose entries share no factor can create
only a power of 2 as a new common factor, and only when ``a`` and ``c`` are
both even.  The Gauss step therefore normalizes just in that case.  A real
started from the identity that only absorbs bits and emits digits keeps
``gcd(a, c) = 1`` and never normalizes: after B bits its entries share no
factor and ``|ad - bc| = 2^B``.

Two engines certify the digits of a seeded real, and they give the same
digits, because every certified digit is the true digit of the same real.

* The walk, :meth:`LazyReal.next_digit`, tests the digit after every bit:
  :meth:`MobiusState.refine` runs one loop over the unread bits of the
  source's current 64-bit block and stops at the first bit after which the
  digit is determined.  So it knows the bit count B_k at which digit k is
  certified, and it raises :class:`NonGenericPointError` exactly when
  B_k - B_{k-1} exceeds the refinement cap.
* The block engine absorbs a whole 64-bit block with one
  :meth:`MobiusState.absorb`, emits every digit that the block determines,
  and absorbs the next block.  The digits come from
  :meth:`MobiusState.determined_digits`, Euclid run on both ends of the
  image at once: a digit is determined while the two ends have the same
  quotient, and the Gauss step is one remainder step on each end.  The state
  is written back, and normalized, once per block; the walk replays the
  engine's digits on a state of its own, so that changes no digit.  The
  engine knows only that a digit emitted after the block ending at bit P
  has B_k in (P - 64, P], and B_0 = 0, as has a digit the start state
  determines before any bit; so it emits a digit only while that bound
  keeps B_k - B_{k-1} within the cap.
  Otherwise, and for a digit of 2^63 or more, it hands over to the walk,
  which replays the digits already emitted and goes on; every error
  therefore comes from the walk.  A cap below 64 hands over before the
  first block.

Every seeded certified stream runs the block engine and then the walk, from
one builder, :func:`_seeded_digits`: the digits of
:meth:`DigitStream.from_seed`, and the Lasota-Yorke visit gaps of
:func:`cfrenewal.farey.ly_orbit`, which are the digits of the same real with
an integer return map composed into the state after each one.  Composing a
map absorbs no bit, so the bounds on B_k and the cap rule hold for both.
The walk owns the stream's configuration: its :class:`LazyReal` holds the
cap, the start state and the return map, which :meth:`LazyReal.next_digit`
composes after each digit, and the block engine reads all three from it.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, repeat
from math import exp, gcd, log
from typing import TYPE_CHECKING, Generator, Iterable, Iterator, Optional

from .bits import BitSource

if TYPE_CHECKING:
    from fractions import Fraction

_DIGIT_LIMIT = 1 << 63  # checked-arithmetic bound for digit values and sums

DEFAULT_REFINE_CAP = 512


class NonGenericPointError(Exception):
    """Raised when a digit (or a branch) stays undetermined past the refinement cap.

    Signals a measure-zero point (rational or branch boundary) under the
    supplied bit stream rather than a generic sampling outcome.
    """


class StreamExhausted(Exception):
    """Raised when a finite (rational) digit stream has no further digits."""


class DigitOverflowError(Exception):
    """Raised when a digit or digit sum exceeds the 64-bit checked range."""


class MobiusState:
    """Integer map y -> (a*y + b)/(c*y + d) applied to the unread tail y in [0,1].

    Invariants kept by the update methods: the denominator is positive on
    [0, 1], and after each :meth:`emit`, and each run of
    :meth:`determined_digits` that yields a digit, the four entries have no
    common factor.  Construction normalizes with the full gcd; :meth:`emit`
    normalizes only when ``a`` and ``c`` are both even, the one case in which
    the bits absorbed since the last emit can have left a common factor (see
    the module docstring), and :meth:`determined_digits` in the same case,
    once after its last digit.  :meth:`compose`, in the same case, divides
    out the power of 2 the entries share.  :meth:`absorb` and :meth:`refine`
    do not normalize.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if d <= 0 or c + d <= 0:
            raise ValueError("denominator must be positive on [0, 1]")
        self.a, self.b, self.c, self.d = a, b, c, d
        self.normalize()

    @classmethod
    def identity(cls) -> "MobiusState":
        return cls(1, 0, 0, 1)

    def normalize(self) -> None:
        # one gcd of two full-size entries; the rest are against the small result
        g = gcd(self.a, self.b, self.c, self.d)
        if g > 1:
            self.a //= g
            self.b //= g
            self.c //= g
            self.d //= g

    def endpoints(self) -> tuple[Fraction, Fraction]:
        """Values at y = 0 and y = 1 (the image interval hull, unordered)."""
        from fractions import Fraction  # imported here: the digit paths need no Fraction

        return Fraction(self.b, self.d), Fraction(self.a + self.b, self.c + self.d)

    def interval(self) -> tuple[Fraction, Fraction]:
        lo, hi = self.endpoints()
        return (lo, hi) if lo <= hi else (hi, lo)

    def absorb(self, bits: int, count: int = 1) -> None:
        """Consume ``count`` tail bits, first bit highest: y = (bits + y')/2^count."""
        self.b = self.a * bits + (self.b << count)
        self.d = self.c * bits + (self.d << count)

    def refine(self, bits: int, count: int) -> tuple[Optional[int], int]:
        """Absorb the ``count`` bits of ``bits`` (first bit highest) until the digit is determined.

        Returns ``(digit, used)``: the digit, or None if it is still
        undetermined, and how many bits were absorbed.  The digit is tested
        before the first bit and after each one, and refinement stops at the
        first bit after which it holds.  A state whose image has collapsed
        to the point 0 absorbs no bit.

        The digit is determined when 1/xi has the same integer part m >= 1
        at both ends of the image, y = 0 and y = 1.  A bit replaces one end
        by the image of y = 1/2, (a + 2b)/(c + 2d), and keeps the value at
        the other, so one division per bit keeps both integer parts.  An
        end where xi <= 0 has integer part -1.
        """
        a, b, c, d = self.a, self.b, self.c, self.d
        m0 = d // b if b > 0 else -1
        m1 = (c + d) // (a + b) if a + b > 0 else -1
        if m0 == m1 >= 1:
            return m0, 0
        if a == 0 and b == 0:
            return None, 0
        used = 0
        while used < count:
            used += 1
            b2 = b + b
            d2 = d + d
            num = a + b2
            den = c + d2
            m = den // num if num > 0 else -1
            if (bits >> (count - used)) & 1:
                b, d, m0 = num, den, m
            else:
                b, d, m1 = b2, d2, m
            if m0 == m1 >= 1:
                self.b, self.d = b, d
                return m, used
        self.b, self.d = b, d
        return None, used

    def emit(self, digit: int) -> None:
        """Apply xi -> 1/xi - digit on top of the current state."""
        a, c = self.c - digit * self.a, self.a
        self.a, self.b, self.c, self.d = a, self.d - digit * self.b, c, self.b
        if not (a & 1 or c & 1):
            self.normalize()

    def compose(self, m: tuple[int, int, int, int]) -> None:
        """Apply the integer map x -> (alpha*x + beta)/(gamma*x + delta) on top of the state.

        All signs are flipped when needed to keep the denominator positive
        on [0, 1].  When ``a`` and ``c`` are both even, one shift divides
        all four entries by the largest power of 2 they share; no gcd is
        taken.  That removes every common factor while ``|ad - bc|`` is a
        power of 2, as for a state started from the identity that absorbs
        bits, emits digits (determinant -1) and composes maps of
        determinant +-1 or +-2: a common factor g has g^2 dividing the
        determinant, so it is a power of 2 and ``a`` and ``c`` are even.
        The one map composed in the package is the Lasota-Yorke return
        x -> (1 - x)/(1 + x), ``(-1, 1, 1, 1)`` of determinant -2, which
        both engines compose after each digit of
        :func:`cfrenewal.farey.ly_orbit` (see the module docstring).
        """
        al, be, ga, de = m
        a, b, c, d = self.a, self.b, self.c, self.d
        a, b, c, d = al * a + be * c, al * b + be * d, ga * a + de * c, ga * b + de * d
        if d < 0 or c + d < 0:
            a, b, c, d = -a, -b, -c, -d
        if not (a & 1 or c & 1):
            z = a | b | c | d
            k = (z & -z).bit_length() - 1  # the trailing zeros the four entries share
            a, b, c, d = a >> k, b >> k, c >> k, d >> k
        self.a, self.b, self.c, self.d = a, b, c, d

    def determined_digits(
        self, return_map: Optional[tuple[int, int, int, int]] = None
    ) -> Generator[int, None, tuple[int, bool]]:
        """Yield every digit the state determines, ``return_map`` composed after each, absorbing no bit.

        The digits of a loop of ``refine(0, 0)``, :meth:`emit` and
        :meth:`compose`, in fewer operations: Euclid on the two ends of the
        image, ``(p0, q0) = (b, d)`` at y = 0 and ``(p1, q1) = (a + b, c +
        d)`` at y = 1 (Gosper's continued-fraction arithmetic, HAKMEM item
        101).  The digit m is
        determined while both ends are positive and ``q0 // p0 == q1 // p1
        == m >= 1``; the Gauss step takes each end (p, q) to (q mod p, p),
        and the map multiplies both ends, with all signs flipped when a
        ``q`` turns negative.  The state is written back once, after the
        last digit, and normalized only then, when ``a`` and ``c`` are both
        even.  The normalizations that :meth:`emit` and :meth:`compose` make
        on the way only divide all four entries by a common factor, so
        deferring them changes no digit; and while ``|ad - bc|`` is a power
        of 2 (see :meth:`compose`) the one at the end removes what they
        would have removed, so the final state is theirs too.

        Stops before a digit of 2^63 or more.  Returns ``(count, big)``: the
        number of digits yielded, and whether it stopped at such a digit.
        """
        if return_map is not None:
            al, be, ga, de = return_map
        p0, q0, p1, q1 = self.b, self.d, self.a + self.b, self.c + self.d
        count = 0
        big = False
        while p0 > 0 and p1 > 0:
            m, r0 = divmod(q0, p0)
            m1, r1 = divmod(q1, p1)
            if m != m1 or m < 1:
                break
            if m >= _DIGIT_LIMIT:
                big = True
                break
            count += 1
            yield m
            p0, q0, p1, q1 = r0, p0, r1, p1
            if return_map is not None:
                p0, q0, p1, q1 = al * p0 + be * q0, ga * p0 + de * q0, al * p1 + be * q1, ga * p1 + de * q1
                if q0 < 0 or q1 < 0:
                    p0, q0, p1, q1 = -p0, -q0, -p1, -q1
        if count:
            a, c = p1 - p0, q1 - q0
            self.a, self.b, self.c, self.d = a, p0, c, q0
            if not (a & 1 or c & 1):
                self.normalize()
        return count, big

    def is_exhausted(self) -> bool:
        """True when the image has collapsed to the single point 0."""
        return self.a == 0 and self.b == 0


class LazyReal:
    """A Lebesgue-random real in (0, 1) with certified continued-fraction digits.

    ``next_digit`` hands the unread bits of the source's block, at most as
    many as the cap still allows, to :meth:`MobiusState.refine` until the
    next digit is determined on the whole image interval, then composes the
    Gauss step into the state, and after it ``return_map``, a row for
    :meth:`MobiusState.compose`, if one is given; a digit that raises
    composes nothing.  ``state`` is where the real starts, the identity by
    default.  The per-digit refinement cap, at least 1, turns measure-zero
    pathologies into :class:`NonGenericPointError`.  ``bits_consumed``
    counts every bit absorbed into the state, also when ``next_digit``
    raises.  The consumed bits themselves are not kept: the state alone
    carries what the digits need.

    A seeded stream's walk is the one owner of its cap, start and return
    map: the block engine, :func:`_block_digits`, reads all three from it.
    """

    __slots__ = ("source", "state", "refine_cap", "return_map", "bits_consumed", "digits_emitted")

    def __init__(
        self,
        source: BitSource,
        refine_cap: int = DEFAULT_REFINE_CAP,
        state: Optional[MobiusState] = None,
        return_map: Optional[tuple[int, int, int, int]] = None,
    ):
        if refine_cap < 1:
            raise ValueError(f"refine_cap must be >= 1, got {refine_cap}")
        self.source = source
        self.state = MobiusState.identity() if state is None else state
        self.refine_cap = refine_cap
        self.return_map = return_map
        self.bits_consumed = 0
        self.digits_emitted = 0

    def next_digit(self) -> int:
        st = self.state
        src = self.source
        cap = self.refine_cap
        absorbed = 0
        while True:
            bits, avail = src.pending()
            take = cap - absorbed
            if take > avail:
                take = avail
            m, used = st.refine(bits >> (avail - take), take)
            if used:
                src.skip(used)
                absorbed += used
                self.bits_consumed += used
            if m is not None:
                break
            if st.is_exhausted():
                raise StreamExhausted("image collapsed to 0; no further digits")
            if absorbed >= cap:
                raise NonGenericPointError(
                    f"digit undetermined after {absorbed} refinement bits "
                    f"(stream {src.stream_index}, digit {self.digits_emitted + 1})"
                )
        if m >= _DIGIT_LIMIT:
            raise DigitOverflowError(f"digit {m} exceeds the 64-bit checked range")
        st.emit(m)
        if self.return_map is not None:
            st.compose(self.return_map)
        self.digits_emitted += 1
        return m


def _block_digits(src: BitSource, real: LazyReal) -> Iterator[int]:
    """The block engine: the certified digits of the walk ``real``, read from the fresh source ``src``.

    The engine takes its cap, its return map and a copy of its start state
    from ``real``, which must not have run yet.  Before it absorbs a block
    the engine checks that a digit emitted after it would be certified
    within the cap: the block ends at bit P, and ``lo`` is a lower bound on
    the bit count at which the last digit was certified.  Where the check
    fails, or a digit reaches 2^63, it steps ``real`` once per digit it
    emitted and stops, so the caller goes on with the walk.  The replayed
    digits passed the cap rule and are below 2^63, so the replay never
    raises and neither does this generator.
    """
    s = real.state
    st = MobiusState(s.a, s.b, s.c, s.d)
    lo = emitted = 0
    start = -1  # a digit the start state determines before any bit has B_k = 0
    while True:
        found, big = yield from st.determined_digits(real.return_map)
        if found:
            lo = start + 1
            emitted += found
        if big:
            break
        bits, count = src.pending()
        if src.position + count - lo > real.refine_cap:
            break
        start = src.position
        st.absorb(bits, count)
        src.skip(count)
    for _ in range(emitted):
        real.next_digit()


def _seeded_digits(
    master_seed: int, stream_index: int, refine_cap: int, return_map: Optional[tuple[int, int, int, int]] = None
) -> Iterator[int]:
    """The certified digits of the seeded real of ``(master_seed, stream_index)``, ``return_map`` composed after each.

    The block engine, then the walk (see the module docstring); the digits
    end or raise exactly where the walk alone would.  ``return_map`` is a row
    for :meth:`MobiusState.compose`, or None for the continued-fraction
    digits themselves.
    """
    real = LazyReal(BitSource(master_seed, stream_index), refine_cap, return_map=return_map)
    # the walk is a callable iterator, not a generator: one that raised would be
    # dead, and the stream would report itself ended after a NonGenericPointError;
    # next_digit never returns None: its StreamExhausted ends the stream in DigitStream._pull
    return chain(_block_digits(BitSource(master_seed, stream_index), real), iter(real.next_digit, None))


class DigitStream:
    """Digit sequence with running sums and lazy extension.

    Wraps any digit iterator (certified, rational, sampled, or injected) and
    memoizes only the sums S_k = a_1 + ... + a_k, S_0 = 0, so fluctuation
    queries are O(1) after extension; a_k is S_k - S_{k-1}.  The stream ends
    where the iterator stops or raises :class:`StreamExhausted`; any other
    error leaves it open.  Each pulled digit must be >= 1 and each sum below
    2^63; a digit that fails either check raises on every later query.
    Orbit statistics are streamed by :func:`orbit_records`, not kept.
    """

    def __init__(self, digit_iter: Iterable[int]):
        self._iter = iter(digit_iter)
        self._sums: list[int] = [0]
        self.exhausted = False

    @classmethod
    def from_seed(
        cls,
        master_seed: int,
        stream_index: int = 0,
        refine_cap: int = DEFAULT_REFINE_CAP,
    ) -> "DigitStream":
        """The certified digits of the seeded real of ``(master_seed, stream_index)``.

        They come from the block engine and then the walk, built by
        :func:`_seeded_digits` (see the module docstring).
        """
        return cls(_seeded_digits(master_seed, stream_index, refine_cap))

    @classmethod
    def constant(cls, digit: int) -> "DigitStream":
        return cls(repeat(digit))

    def _pull(self) -> bool:
        if self.exhausted:
            return False
        try:
            a = next(self._iter)
        except (StopIteration, StreamExhausted):
            self.exhausted = True
            return False
        # the stream can never pass a digit that fails a check, so it is
        # served to every later pull and a retried query raises again
        if a < 1:
            self._iter = repeat(a)
            raise ValueError(f"continued-fraction digits must be >= 1, got {a}")
        s = self._sums[-1] + a
        if s >= _DIGIT_LIMIT:
            self._iter = repeat(a)
            raise DigitOverflowError("digit sum exceeds the 64-bit checked range")
        self._sums.append(s)
        return True

    def ensure(self, count: int) -> bool:
        """Extend to at least ``count`` digits; False if the stream ends first."""
        while len(self._sums) - 1 < count:
            if not self._pull():
                return False
        return True

    def __iter__(self) -> Iterator[int]:
        """a_1, a_2, ...: differences of the memoized sums, then of pulled ones, until the stream ends."""
        sums = self._sums
        k = 1
        while k < len(sums) or self._pull():
            yield sums[k] - sums[k - 1]
            k += 1

    def digit(self, k: int) -> int:
        """a_k = S_k - S_{k-1}, 1-indexed."""
        if k < 1:
            raise ValueError(f"digits are numbered from 1, got {k}")
        return self.partial_sum(k) - self._sums[k - 1]

    def partial_sum(self, k: int) -> int:
        """S_k = a_1 + ... + a_k, with S_0 = 0."""
        if k < 0:
            raise ValueError(f"partial sums are numbered from 0, got {k}")
        if not self.ensure(k):
            raise StreamExhausted(f"stream ended before digit {k}")
        return self._sums[k]

    def index_exceeding(self, n: int) -> Optional[int]:
        """Smallest k with S_k > n, or None if the stream ends first."""
        while self._sums[-1] <= n:
            if not self._pull():
                return None
        # the stream may already extend past n from an earlier larger query
        return bisect_right(self._sums, n)


def orbit_records(digits: Iterable[int], checkpoints: Iterable[int]) -> Iterator[dict]:
    """One pass over ``digits``, yielding the orbit's statistics at each checkpoint k.

    A record holds ``k``, the digit ``a`` = a_k, the sum ``S`` = S_k, the
    ``trimmed`` sum (S_k minus the largest of the first k digits), that
    ``max_digit``, and the ``geometric_mean`` exp((1/k) sum log a_j), whose
    log-sum is accumulated in digit order.  Checkpoints are sorted and
    de-duplicated; the scan stops after the last one, or with the records it
    reached when a finite ``digits`` ends first.
    """
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < 1:
        raise ValueError("checkpoints must be positive")
    remaining = iter(cps)
    cp = next(remaining)
    s = top = 0
    log_sum = 0.0
    for k, a in enumerate(digits, 1):
        s += a
        log_sum += log(a)
        if a > top:
            top = a
        if k == cp:
            yield {"k": k, "a": a, "S": s, "trimmed": s - top, "max_digit": top, "geometric_mean": exp(log_sum / k)}
            cp = next(remaining, None)
            if cp is None:
                return


def digits_of_rational(p: int, q: int) -> DigitStream:
    """Terminating digit stream of p/q in (0, 1) via the Euclidean algorithm."""
    if not 0 < p < q:
        raise ValueError("need 0 < p < q (a rational strictly inside (0, 1))")
    if gcd(p, q) != 1:
        raise ValueError("p/q must be in lowest terms")
    digits = []
    while p > 0:
        m, r = divmod(q, p)
        digits.append(m)
        q, p = p, r
    return DigitStream(digits)


def gauss_iteration_oracle(prefix: int, bits: int, count: int, precision: int = 4096) -> list[int]:
    """Digits of the dyadic rational prefix/2^bits by fixed-point Gauss iteration.

    Independent oracle for cross-checking certified extraction: the value is
    scaled to ``precision`` fractional bits and the Gauss map is iterated
    with plain integer arithmetic.  Truncation loses roughly two bits of
    accuracy per digit, so ``count`` must stay well below precision/2.
    """
    if bits > precision:
        raise ValueError("oracle precision must cover the consumed bits")
    y = prefix << (precision - bits)
    one = 1 << precision
    digits = []
    for _ in range(count):
        if y == 0:
            break
        m = one // y
        # y' = 1/y - m at fixed point: floor(2^(2P)/Y) - m*2^P
        y = (one * one) // y - m * one
        digits.append(m)
    return digits
