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

_U53_HALF = 0.5
_INV_2_53 = 2.0**-53


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def stream_key(master_seed: int, stream_index: int) -> int:
    """Per-stream key derived from the master seed by double mixing."""
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
    """Vectorized :func:`stream_key` over an array of stream indices."""
    idx = stream_indices.astype(np.uint64)
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
    """In-place keyed uniforms for a fixed set of streams, one draw per lane per call.

    Lane i holds the counter ``keys[i] + (j+1)*GOLDEN`` of its next block j,
    advanced by one wrapping add per draw, so the j-th call of :meth:`draw`
    returns ``uniforms_np(keys, j)`` without allocating.  :meth:`keep`
    drops lanes, and the kept lanes continue their own streams;
    :meth:`restart` puts new streams on some lanes, from their block 0.
    """

    __slots__ = ("counter", "out", "_block", "_scratch")

    def __init__(self, keys: np.ndarray):
        self.counter = np.add(keys, _NP_GOLDEN, dtype=np.uint64)
        n = len(self.counter)
        self._block = np.empty(n, dtype=np.uint64)
        self._scratch = np.empty(n, dtype=np.uint64)
        self.out = np.empty(n, dtype=np.float64)

    def draw(self) -> np.ndarray:
        """The next uniform of every lane, in ``self.out`` (overwritten by the next call)."""
        mix64_np(self.counter, out=self._block, scratch=self._scratch)
        np.add(self.counter, _NP_GOLDEN, out=self.counter)
        return _uniforms_from_blocks_np(self._block, self.out)

    def keep(self, live: np.ndarray) -> None:
        """Keep the lanes where the boolean mask ``live`` is true, in order."""
        self.counter = self.counter[live]
        n = len(self.counter)
        self._block = self._block[:n]
        self._scratch = self._scratch[:n]
        self.out = self.out[:n]

    def restart(self, slots: np.ndarray, keys: np.ndarray) -> None:
        """Put the streams ``keys`` on the lanes ``slots``; their next draw is block 0."""
        self.counter[slots] = np.add(keys, _NP_GOLDEN, dtype=np.uint64)


class BitSource:
    """Sequential view of one keyed bit stream.

    Bits are served most-significant-bit first from consecutive 64-bit
    blocks; ``position`` counts bits already emitted.
    """

    __slots__ = ("master_seed", "stream_index", "position", "_key", "_block", "_avail")

    def __init__(self, master_seed: int, stream_index: int = 0):
        if master_seed < 0 or stream_index < 0:
            raise ValueError("master_seed and stream_index must be non-negative")
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

    def next_bits(self, count: int) -> int:
        """The next ``count`` bits packed into an integer, first bit highest."""
        out = 0
        for _ in range(count):
            out = (out << 1) | self.next_bit()
        return out
