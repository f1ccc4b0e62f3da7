"""Deterministic keyed bit streams.

All randomness in the package flows through one counter-based 64-bit mixer:
block j of stream t under master seed s is ``mix64(key(s, t) + (j+1)*GOLDEN)``.
A bit stream serves those blocks most-significant-bit first, so the stream
defines the binary expansion of one uniformly distributed real per
(master_seed, stream_index) pair.  Distinct stream indices give statistically
independent streams, and any bit or block can be regenerated from its
coordinates alone, which makes every consumer reproducible regardless of
scheduling.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# numpy constants, kept as uint64 so arithmetic never promotes
_NP_GOLDEN = np.uint64(_GOLDEN)
_NP_MIX_A = np.uint64(_MIX_A)
_NP_MIX_B = np.uint64(_MIX_B)
_NP_30 = np.uint64(30)
_NP_27 = np.uint64(27)
_NP_31 = np.uint64(31)
_NP_11 = np.uint64(11)
_NP_ONE = np.uint64(1)

_ROWS = 4  # uniforms per lane in one UniformLanes.draw
# row i of a draw is i blocks past the lane's counter, and a draw advances it by _ROWS blocks
_NP_ROW_OFFSETS = (np.arange(_ROWS, dtype=np.uint64) * _NP_GOLDEN)[:, None]
_NP_ROWS_GOLDEN = np.uint64(_ROWS * _GOLDEN & _MASK64)

_U53_HALF = 0.5
_INV_2_53 = 2.0**-53


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _check_key(name: str, value: int) -> None:
    """Seeds and stream indices are 64-bit keys; the mixer would reduce any other value onto another key."""
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {value}")


def stream_key(master_seed: int, stream_index: int) -> int:
    """Per-stream key derived from the master seed by double mixing."""
    _check_key("master_seed", master_seed)
    _check_key("stream_index", stream_index)
    return mix64(mix64(master_seed) ^ ((stream_index + 1) * _GOLDEN & _MASK64))


def block64(key: int, index: int) -> int:
    """64-bit block at position ``index`` of the stream with the given key."""
    return mix64((key + (index + 1) * _GOLDEN) & _MASK64)


def uniform_from_block(block: int) -> float:
    """Map a 64-bit block to a uniform double in the open interval (0, 1)."""
    return ((block >> 11) + _U53_HALF) * _INV_2_53


def mix64_np(
    z: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized :func:`mix64`.

    ``out`` (which may be ``z`` itself) receives the result and ``scratch``
    holds the shifted terms; given both, no array is allocated.
    """
    if out is None:
        out = np.empty_like(z)
    if scratch is None:
        scratch = np.empty_like(out)
    np.right_shift(z, _NP_30, out=scratch)
    np.bitwise_xor(z, scratch, out=out)
    np.multiply(out, _NP_MIX_A, out=out)
    np.right_shift(out, _NP_27, out=scratch)
    np.bitwise_xor(out, scratch, out=out)
    np.multiply(out, _NP_MIX_B, out=out)
    np.right_shift(out, _NP_31, out=scratch)
    np.bitwise_xor(out, scratch, out=out)
    return out


def _uniforms_from_blocks_np(blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Vectorized :func:`uniform_from_block` into ``out``; ``blocks`` is overwritten.

    ``blocks >> 11`` is below 2^53, so converting it through an int64 view
    gives the same double as converting the uint64, and converts faster.
    """
    np.right_shift(blocks, _NP_11, out=blocks)
    np.copyto(out, blocks.view(np.int64), casting="unsafe")
    np.add(out, _U53_HALF, out=out)
    np.multiply(out, _INV_2_53, out=out)
    return out


def stream_keys_np(master_seed: int, stream_indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`stream_key` over an integer array of stream indices.

    A negative, float or bool index would be cast onto another stream's
    index, so only integer dtypes with values in [0, 2^64) are accepted.
    """
    _check_key("master_seed", master_seed)
    idx = np.asarray(stream_indices)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"stream indices must be an integer array, got dtype {idx.dtype}")
    if idx.dtype.kind == "i" and idx.size and idx.min() < 0:
        raise ValueError("stream indices must lie in [0, 2^64)")
    idx = idx.astype(np.uint64)
    seed_mixed = np.uint64(mix64(master_seed))
    return mix64_np(seed_mixed ^ ((idx + _NP_ONE) * _NP_GOLDEN))


def blocks_np(keys: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`block64`; ``keys`` and ``indices`` broadcast together."""
    z = keys + (indices.astype(np.uint64) + _NP_ONE) * _NP_GOLDEN
    return mix64_np(z, out=z)


def uniforms_np(keys: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Uniform doubles in (0, 1), one per (key, index) pair."""
    blocks = blocks_np(keys, indices)
    return _uniforms_from_blocks_np(blocks, np.empty(blocks.shape, dtype=np.float64))


class UniformLanes:
    """In-place keyed uniforms for a fixed set of streams, ``_ROWS`` draws per lane per call.

    Lane i holds the counter ``keys[i] + (j+1)*GOLDEN`` of its next block j.
    The k-th call of :meth:`draw` writes ``uniforms_np(keys, _ROWS*k + i)``
    into row i of the caller's block and advances every counter by
    ``_ROWS*GOLDEN``, wrapping, so rows come out in stream order without
    allocating.  :meth:`keep` drops lanes, and the kept lanes continue
    their own streams; :meth:`restart` puts new streams on some lanes, from
    their block 0.
    """

    __slots__ = ("counter", "_bits")

    def __init__(self, keys: np.ndarray):
        self.counter = np.add(keys, _NP_GOLDEN, dtype=np.uint64)
        self._bits = np.empty((_ROWS, len(self.counter)), dtype=np.uint64)

    def draw(self, out: np.ndarray) -> np.ndarray:
        """Every lane's next ``_ROWS`` uniforms, written into the float64 ``(_ROWS, lanes)`` block ``out``.

        ``out`` doubles as the mixer's scratch space; it may be a view, such
        as rows of a larger array.
        """
        bits = self._bits
        np.add(self.counter, _NP_ROW_OFFSETS, out=bits)
        mix64_np(bits, out=bits, scratch=out.view(np.uint64))
        np.add(self.counter, _NP_ROWS_GOLDEN, out=self.counter)
        return _uniforms_from_blocks_np(bits, out)

    def keep(self, live: np.ndarray) -> None:
        """Keep the lanes where the boolean mask ``live`` is true, in order."""
        self.counter = self.counter[live]
        self._bits = self._bits[:, : len(self.counter)]

    def restart(self, slots: np.ndarray, keys: np.ndarray) -> None:
        """Put the streams ``keys`` on the lanes ``slots``; their next draw starts at block 0."""
        self.counter[slots] = np.add(keys, _NP_GOLDEN, dtype=np.uint64)


class BitSource:
    """Sequential view of one keyed bit stream.

    Bits are served most-significant-bit first from consecutive 64-bit
    blocks; ``position`` counts bits already emitted.  :meth:`next_bit` reads
    one bit; :meth:`pending` and :meth:`skip` let a consumer read the unread
    rest of a block at once and then take as many of its bits as it used.
    """

    __slots__ = ("master_seed", "stream_index", "position", "_key", "_block", "_avail")

    def __init__(self, master_seed: int, stream_index: int = 0):
        self.master_seed = master_seed
        self.stream_index = stream_index
        self.position = 0
        self._key = stream_key(master_seed, stream_index)
        self._block = 0
        self._avail = 0

    def next_bit(self) -> int:
        if self._avail == 0:
            self._block = block64(self._key, self.position >> 6)
            self._avail = 64
        self._avail -= 1
        self.position += 1
        return (self._block >> self._avail) & 1

    def pending(self) -> tuple[int, int]:
        """The unread bits of the current block and their count, first bit highest.

        An empty block is refilled first, so the count is between 1 and 64.
        Nothing is consumed until :meth:`skip`.
        """
        if self._avail == 0:
            self._block = block64(self._key, self.position >> 6)
            self._avail = 64
        return self._block & ((1 << self._avail) - 1), self._avail

    def skip(self, count: int) -> None:
        """Consume the first ``count`` bits that :meth:`pending` returned."""
        if not 0 <= count <= self._avail:
            raise ValueError(f"can skip 0..{self._avail} pending bits, not {count}")
        self._avail -= count
        self.position += count

    def next_bits(self, count: int) -> int:
        """The next ``count`` bits packed into an integer, first bit highest."""
        out = 0
        while count > 0:
            bits, avail = self.pending()
            take = min(avail, count)
            out = (out << take) | (bits >> (avail - take))
            self.skip(take)
            count -= take
        return out
