"""The pure-Python Philox substream and its draws against numpy's Generator(Philox)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from tempbc.rng import draw_distinct, randbelow, substream

M64 = (1 << 64) - 1

_DRAWN = random.Random(7)
SEEDS = [0, 1, -1, 1 << 63, M64, *(_DRAWN.getrandbits(64) for _ in range(4))]
INDICES = [0, 1, 2, 3, 999, _DRAWN.randrange(10**6), 10**6]

# below 2**32, at it and above it, up to int64's 2**63; 2**31 + 1,
# 3 * 2**30 + 1 and 3 * 2**61 + 1 reject about a quarter to a half of draws
BOUNDS = [2, 3, 474, 2000, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**62,
          3 * 2**61 + 1, 2**63]


def _numpy_stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & M64, index & M64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _numpy_randbelow(rng: np.random.Generator, bound: int) -> int:
    """``randbelow`` on a numpy Generator: the draws the stream must repeat."""
    if bound <= 1 << 62:
        return int(rng.integers(bound))
    bits = bound.bit_length()
    words = (bits + 31) // 32
    excess = words * 32 - bits
    while True:
        value = 0
        for _ in range(words):
            value = (value << 32) | int(rng.integers(1 << 32))
        value >>= excess
        if value < bound:
            return value


@pytest.mark.parametrize("seed", SEEDS)
def test_substream_matches_numpy_on_one_bound_at_a_time(seed):
    for index in INDICES:
        for bound in BOUNDS:
            ours, theirs = substream(seed, index), _numpy_stream(seed, index)
            got = [ours.integers(bound) for _ in range(40)]
            assert got == [int(theirs.integers(bound)) for _ in range(40)], (seed, index, bound)


@pytest.mark.parametrize("seed", SEEDS)
def test_substream_matches_numpy_on_mixed_bounds(seed):
    # 32-bit draws keep their word's high half across the 64-bit draws
    # between them, so the mixed orders exercise the buffered half
    order = np.random.default_rng(seed & 0xFFFF)
    for index in INDICES:
        bounds = [BOUNDS[i] for i in order.integers(len(BOUNDS), size=400)] + [1, 1, 2]
        ours, theirs = substream(seed, index), _numpy_stream(seed, index)
        for j, bound in enumerate(bounds):
            assert ours.integers(bound) == int(theirs.integers(bound)), (seed, index, j, bound)


def test_substream_runs_past_many_blocks():
    ours, theirs = substream(5, 6), _numpy_stream(5, 6)
    assert [ours.integers(2**40 + 3) for _ in range(5000)] == theirs.integers(2**40 + 3, size=5000).tolist()


@pytest.mark.parametrize("seed", [0, 1, -1, 1 << 63, M64])
def test_randbelow_matches_the_numpy_draws_on_wide_bounds(seed):
    wide = np.random.default_rng(seed & 0xFFFF)
    for index in (0, 1, 10**6):
        bounds = [(1 << 62) + 1, (1 << 63) - 25, 1 << 64, 3 << 70, (1 << 200) - 1, 1 << 200]
        bounds += [int(wide.integers(1 << 62, 1 << 63)) << int(wide.integers(0, 138)) for _ in range(20)]
        ours, theirs = substream(seed, index), _numpy_stream(seed, index)
        for bound in bounds:
            assert randbelow(ours, bound) == _numpy_randbelow(theirs, bound), (seed, index, bound)


def test_integers_refuses_an_empty_range():
    rng = substream(1, 2)
    for bound in (0, -3):
        with pytest.raises(ValueError):
            rng.integers(bound)
        with pytest.raises(ValueError):
            _numpy_stream(1, 2).integers(bound)


# both of numpy's paths for choice(n, size, replace=False), and the edges
# between them: Floyd's algorithm up to n = 10,000 or size = n // 50, a tail
# shuffle of range(n) above both
CHOICE_SHAPES = [(2, 1), (31, 10), (1000, 999), (10_000, 10_000), (10_001, 200), (10_001, 201),
                 (20_000, 19_999), (50_000, 1000), (50_000, 1001)]


@pytest.mark.parametrize("seed", [0, 1, 3, 12345, 2**63 + 5, M64])
def test_draw_distinct_matches_numpy_choice_without_replacement(seed):
    for n, size in CHOICE_SHAPES:
        drawn = draw_distinct(substream(seed, 0), n, size)
        chosen = _numpy_stream(seed, 0).choice(n, size=size, replace=False)
        assert drawn == [int(v) for v in chosen], (seed, n, size)
        assert len(set(drawn)) == size
