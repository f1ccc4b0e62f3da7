"""Bit-source determinism and keying checks."""

from __future__ import annotations

import numpy as np
import pytest

from cfrenewal.bits import (
    _ROWS,
    BitSource,
    UniformLanes,
    block64,
    blocks_np,
    mix64,
    stream_key,
    stream_keys_np,
    uniform_from_block,
    uniforms_np,
)
from cfrenewal.sampling import _BLOCK


def test_bits_deterministic_and_replayable():
    a = BitSource(12345, 7)
    b = BitSource(12345, 7)
    bits_a = [a.next_bit() for _ in range(300)]
    bits_b = [b.next_bit() for _ in range(300)]
    assert bits_a == bits_b
    assert a.position == 300


def test_streams_differ_across_indices_and_seeds():
    base = [BitSource(1, 0).next_bit() for _ in range(128)]
    other_stream = [BitSource(1, 1).next_bit() for _ in range(128)]
    other_seed = [BitSource(2, 0).next_bit() for _ in range(128)]
    assert base != other_stream
    assert base != other_seed


def test_next_bits_packs_msb_first():
    src = BitSource(99, 0)
    packed = src.next_bits(64)
    ref = BitSource(99, 0)
    bits = [ref.next_bit() for _ in range(64)]
    want = 0
    for bit in bits:
        want = (want << 1) | bit
    assert packed == want
    assert packed == block64(stream_key(99, 0), 0)


def test_next_bits_reads_whole_blocks_like_single_bits():
    for start in (0, 37):
        for count in (0, 1, 63, 64, 65, 4096):
            src, ref = BitSource(31, 4), BitSource(31, 4)
            for s in (src, ref):
                for _ in range(start):
                    s.next_bit()
            want = 0
            for _ in range(count):
                want = (want << 1) | ref.next_bit()
            assert src.next_bits(count) == want
            assert src.position == ref.position == start + count
            assert [src.next_bit() for _ in range(70)] == [ref.next_bit() for _ in range(70)]


def test_pending_and_skip_serve_the_rest_of_the_block():
    src = BitSource(5, 2)
    block = block64(stream_key(5, 2), 0)
    assert src.pending() == (block, 64)
    assert src.position == 0
    src.skip(37)
    assert src.pending() == (block & ((1 << 27) - 1), 27)
    assert src.next_bit() == (block >> 26) & 1
    with pytest.raises(ValueError):
        src.skip(27)
    src.skip(26)
    assert src.position == 64
    assert src.pending() == (block64(stream_key(5, 2), 1), 64)


def test_bit_balance_is_plausible():
    src = BitSource(2024, 3)
    ones = sum(src.next_bit() for _ in range(20_000))
    assert abs(ones / 20_000 - 0.5) < 0.02


@pytest.mark.parametrize(
    "make",
    [
        lambda: stream_key(2**64, 0),
        lambda: stream_key(-1, 0),
        lambda: stream_key(0, 2**64),
        lambda: stream_key(0, -1),
        lambda: stream_keys_np(-1, np.arange(3, dtype=np.uint64)),
        lambda: stream_keys_np(2**64 + 1, np.arange(3, dtype=np.uint64)),
        lambda: stream_keys_np(1, np.array([-1, 0])),
        lambda: BitSource(2**64, 0),
        lambda: BitSource(0, 2**64 + 3),
    ],
    ids=["key-seed-2^64", "key-seed--1", "key-index-2^64", "key-index--1", "np-seed--1", "np-seed-2^64+1",
         "np-index--1", "source-seed-2^64", "source-index-2^64+3"],
)
def test_keys_outside_64_bits_are_rejected(make):
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\^64\)"):
        make()


def test_largest_keys_are_accepted():
    assert stream_key(2**64 - 1, 2**64 - 1) == int(stream_keys_np(2**64 - 1, np.array([2**64 - 1], dtype=np.uint64))[0])
    top = stream_keys_np(1, np.array([2**64 - 1, 0], dtype=np.uint64))
    assert top.tolist() == [stream_key(1, 2**64 - 1), stream_key(1, 0)]
    assert stream_keys_np(1, np.array([7, 0], dtype=np.int64)).tolist() == [stream_key(1, 7), stream_key(1, 0)]
    assert BitSource(2**64 - 1, 2**64 - 1).next_bits(64) == block64(stream_key(2**64 - 1, 2**64 - 1), 0)


@pytest.mark.parametrize(
    "indices", [np.array([0.5, 1.0]), np.array([0.0, 1.0]), np.array([True, False])], ids=["fraction", "float", "bool"]
)
def test_non_integer_stream_indices_are_rejected(indices):
    # cast to uint64 these would key the streams [0, 1]
    with pytest.raises(ValueError, match="stream indices must be an integer array"):
        stream_keys_np(1, indices)


def test_numpy_matches_scalar_kernels():
    seeds = np.arange(50, dtype=np.uint64)
    keys = stream_keys_np(77, seeds)
    for i in range(50):
        assert int(keys[i]) == stream_key(77, i)
    idx = np.arange(20, dtype=np.uint64)
    blocks = blocks_np(np.uint64(stream_key(77, 5)), idx)
    for j in range(20):
        assert int(blocks[j]) == block64(stream_key(77, 5), j)
    unis = uniforms_np(np.uint64(stream_key(77, 5)), idx)
    for j in range(20):
        assert float(unis[j]) == uniform_from_block(block64(stream_key(77, 5), j))


def test_uniforms_stay_inside_open_interval():
    keys = stream_keys_np(5, np.arange(1000, dtype=np.uint64))
    u = uniforms_np(keys, np.zeros(1000, dtype=np.uint64))
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert 0.45 < float(np.mean(u)) < 0.55


def test_mix64_avalanche_on_single_bit():
    x = mix64(0x123456789ABCDEF)
    y = mix64(0x123456789ABCDEE)
    assert bin(x ^ y).count("1") > 10


def _drawn(lanes: UniformLanes) -> np.ndarray:
    out = np.empty((_ROWS, len(lanes.counter)))
    assert lanes.draw(out) is out
    return out


def test_uniform_lanes_equal_uniforms_np():
    golden = 0x9E3779B97F4A7C15
    # keys a few counter steps below 2^64 make the counter wrap within the first draws
    near_wrap = [(2**64 - k * golden) % 2**64 for k in (1, 2, 3, 5, 6)] + [2**64 - 1]
    keys = np.concatenate(
        (np.array(near_wrap, dtype=np.uint64), stream_keys_np(8, np.arange(60, dtype=np.uint64)))
    )
    lanes = UniformLanes(keys)
    live = np.arange(len(keys)) % 3 != 1
    for k in range(51):
        if k == 25:
            # dropped lanes leave the kept ones on their own streams
            lanes.keep(live)
            keys = keys[live]
        block = _drawn(lanes)
        for i in range(_ROWS):
            # row i of draw k is block _ROWS*k + i of every lane's stream
            want = uniforms_np(keys, np.full(len(keys), _ROWS * k + i, dtype=np.uint64))
            assert np.array_equal(block[i], want)


def test_uniform_lanes_restart_starts_new_streams():
    keys = stream_keys_np(8, np.arange(40, dtype=np.uint64))
    fresh = stream_keys_np(8, np.arange(100, 105, dtype=np.uint64))
    lanes = UniformLanes(keys)
    for _ in range(7):
        _drawn(lanes)
    slots = np.array([3, 4, 17, 30, 39])
    lanes.restart(slots, fresh)
    keys = keys.copy()
    keys[slots] = fresh
    steps = np.full(len(keys), 7 * _ROWS, dtype=np.uint64)
    steps[slots] = 0
    for k in range(5):
        # restarted lanes begin at block 0; the others go on from block 7 * _ROWS
        block = _drawn(lanes)
        for i in range(_ROWS):
            assert np.array_equal(block[i], uniforms_np(keys, steps + np.uint64(_ROWS * k + i)))


def test_uniform_lanes_draw_into_rows_of_a_narrowed_history():
    # as the crossing scan does: draws land in rows of a wider array cut to its live lanes
    keys = stream_keys_np(3, np.arange(50, dtype=np.uint64))
    hist = np.full((2 * _ROWS + 1, 50), -1.0)
    lanes, twin = UniformLanes(keys), UniformLanes(keys)
    live = np.arange(50) % 4 != 0
    lanes.keep(live)
    twin.keep(live)
    hist = hist[:, : np.count_nonzero(live)]
    lanes.draw(hist[1 : 1 + _ROWS])
    lanes.draw(hist[1 + _ROWS :])
    assert np.array_equal(hist[1 : 1 + _ROWS], _drawn(twin))
    assert np.array_equal(hist[1 + _ROWS :], _drawn(twin))
    assert np.all(hist.base[0] == -1.0) and np.all(hist.base[:, hist.shape[1] :] == -1.0)


def test_rows_divide_the_crossing_block():
    # lanes restart and compact only at block ends, which must fall between draws
    assert _BLOCK % _ROWS == 0
