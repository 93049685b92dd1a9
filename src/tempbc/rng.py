"""Counter-based random substreams.

Every sample index gets its own Philox stream keyed by (seed, index), so
serial and parallel runs of a seeded experiment give identical output.
:class:`Substream` is Philox4x64-10 (Salmon et al., SC 2011) in pure Python:
its ``integers(n)`` returns what numpy's ``Generator(Philox(key=[seed,
index])).integers(n)`` returns, word for word, and :func:`draw_distinct`
what its ``choice(n, size, replace=False)`` returns.
"""

from __future__ import annotations

__all__ = ["Substream", "substream", "draw_source", "draw_pair", "draw_distinct", "randbelow"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
# Philox4x64 round multipliers and Weyl key increments
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def _philox4x64_10(c0: int, c1: int, c2: int, c3: int, k0: int, k1: int) -> list[int]:
    """One Philox4x64-10 block of counter (c0, c1, c2, c3) under key (k0, k1)."""
    for _ in range(10):
        p0 = _M0 * c0
        p1 = _M1 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
        k0 = (k0 + _W0) & _MASK64
        k1 = (k1 + _W1) & _MASK64
    return [c0, c1, c2, c3]


class Substream:
    """numpy's ``Generator(Philox(key=[k0, k1]))`` for scalar ``integers``.

    The 256-bit counter starts at 0 and is incremented before each block;
    the block's four 64-bit words are handed out in order. A 32-bit draw
    takes the low half of a fresh word and keeps the high half for the next
    32-bit draw, across any 64-bit draws in between.
    """

    __slots__ = ("_key", "_counter", "_words", "_half")

    def __init__(self, k0: int, k1: int):
        self._key = (k0 & _MASK64, k1 & _MASK64)
        self._counter = 0
        self._words: list[int] = []  # the block's words still to hand out, last first
        self._half: int | None = None

    def _next64(self) -> int:
        words = self._words
        if not words:
            counter = self._counter = (self._counter + 1) & ((1 << 256) - 1)
            words = _philox4x64_10(
                counter & _MASK64, counter >> 64 & _MASK64, counter >> 128 & _MASK64, counter >> 192,
                *self._key,
            )
            words.reverse()
            self._words = words
        return words.pop()

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n), as numpy's ``integers(n)`` draws it:
        Lemire's bounded method (TOMACS 2019) on 32-bit draws below 2**32,
        one raw 32-bit draw at 2**32, and Lemire's method on 64-bit draws
        above it, up to int64's 2**63."""
        if n < 1 << 32:
            if n > 1:
                m = self._next32() * n
                if m & _MASK32 < n:
                    threshold = ((1 << 32) - n) % n
                    while m & _MASK32 < threshold:
                        m = self._next32() * n
                return m >> 32
            if n == 1:
                return 0  # numpy draws nothing for a single value
            raise ValueError("high <= 0")
        if n == 1 << 32:
            return self._next32()
        if n > 1 << 63:
            raise ValueError("high is out of bounds for int64")
        m = self._next64() * n
        if m & _MASK64 < n:
            threshold = ((1 << 64) - n) % n
            while m & _MASK64 < threshold:
                m = self._next64() * n
        return m >> 64


def substream(seed: int, index: int) -> Substream:
    return Substream(seed, index)


def draw_source(rng: Substream, n: int) -> int:
    return rng.integers(n)


def draw_pair(rng: Substream, n: int) -> tuple[int, int]:
    """Uniform ordered pair (s, z) with s != z."""
    s = rng.integers(n)
    z = rng.integers(n - 1)
    if z >= s:
        z += 1
    return s, z


def draw_distinct(rng: Substream, n: int, size: int) -> list[int]:
    """``size`` distinct values of [0, n) in random order, as numpy's
    ``choice(n, size, replace=False)`` draws them: a shuffle of the tail of
    ``range(n)`` when n > 10,000 and size > n // 50, otherwise Floyd's
    algorithm (Bentley & Floyd, CACM 1987) and a Fisher-Yates pass."""
    if n > 10_000 and size > n // 50:
        values, first = list(range(n)), max(n - size, 1)
    else:
        values, seen, first = [], set(), 1
        for j in range(n - size, n):
            value = rng.integers(j + 1)
            value = j if value in seen else value  # no earlier draw reached j
            seen.add(value)
            values.append(value)
    for i in range(len(values) - 1, first - 1, -1):
        j = rng.integers(i + 1)
        values[i], values[j] = values[j], values[i]
    return values[len(values) - size:]


def randbelow(rng: Substream, bound: int) -> int:
    """Uniform integer in [0, bound) for arbitrary-precision bounds."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound <= 1 << 62:
        return rng.integers(bound)
    bits = bound.bit_length()
    words = (bits + 31) // 32
    excess = words * 32 - bits
    while True:
        value = 0
        for _ in range(words):
            value = (value << 32) | rng.integers(1 << 32)
        value >>= excess
        if value < bound:
            return value
