"""Bit-source determinism and keying checks."""

from __future__ import annotations

import numpy as np

from cfrenewal.bits import (
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


def test_bit_balance_is_plausible():
    src = BitSource(2024, 3)
    ones = sum(src.next_bit() for _ in range(20_000))
    assert abs(ones / 20_000 - 0.5) < 0.02


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


def test_uniform_lanes_equal_uniforms_np():
    golden = 0x9E3779B97F4A7C15
    # keys a few counter steps below 2^64 make the counter wrap within the first draws
    near_wrap = [(2**64 - k * golden) % 2**64 for k in (1, 2, 3)] + [2**64 - 1]
    keys = np.concatenate(
        (np.array(near_wrap, dtype=np.uint64), stream_keys_np(8, np.arange(60, dtype=np.uint64)))
    )
    lanes = UniformLanes(keys)
    live = np.arange(len(keys)) % 3 != 1
    for j in range(201):
        if j == 100:
            # dropped lanes leave the kept ones on their own streams
            lanes.keep(live)
            keys = keys[live]
        want = uniforms_np(keys, np.full(len(keys), j, dtype=np.uint64))
        assert np.array_equal(lanes.draw(), want)


def test_uniform_lanes_restart_starts_new_streams():
    keys = stream_keys_np(8, np.arange(40, dtype=np.uint64))
    fresh = stream_keys_np(8, np.arange(100, 105, dtype=np.uint64))
    lanes = UniformLanes(keys)
    for _ in range(7):
        lanes.draw()
    slots = np.array([3, 4, 17, 30, 39])
    lanes.restart(slots, fresh)
    keys = keys.copy()
    keys[slots] = fresh
    steps = np.full(len(keys), 7, dtype=np.uint64)
    steps[slots] = 0
    for j in range(5):
        # restarted lanes begin at block 0; the others go on from block 7
        assert np.array_equal(lanes.draw(), uniforms_np(keys, steps + np.uint64(j)))
