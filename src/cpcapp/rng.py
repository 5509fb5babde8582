"""Portable deterministic random numbers (SplitMix64 + Box-Muller).

SplitMix64 is a counter-based 64-bit generator: output i is a fixed avalanche
mix of ``seed + (i+1) * 0x9E3779B97F4A7C15`` (mod 2^64), so the whole stream
vectorizes and a given seed produces identical draws on every platform.
Uniforms take the top 53 bits; each normal consumes two words through the
cosine branch of Box-Muller. Draw order is documented per generator so
fixtures stay stable.

Because word i depends only on the seed and i, any stretch of the stream can
be read at its own position: ``at(p)`` is a view whose first word is word p,
equal to what a sequential stream gives after drawing p words. The draws
use this to work in blocks. ``normal(n)`` reads its n u1 words and then its n
u2 words as before, but runs Box-Muller ``NORMAL_BLOCK`` values at a time,
each block reading its u1 and u2 words at their stream positions; uniforms
fill their output block by block too. Only the output array is full size.
``reserve_normal(n)`` skips a normal draw and forms any stretch of it later,
so a caller need not hold the whole draw at all.
"""

from __future__ import annotations

import functools

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1

# Values per Box-Muller block, and words per uniform block.
NORMAL_BLOCK = 1 << 14


def _mix(z: np.ndarray) -> np.ndarray:
    """Avalanche-mix ``z`` in place, shifting through one scratch buffer."""
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


class SplitMix64:
    """Sequential view over the SplitMix64 stream for one seed."""

    def __init__(self, seed: int):
        self._base = np.uint64(seed & _MASK)
        self._drawn = 0

    @property
    def position(self) -> int:
        """Words drawn so far: the stream position of the next word."""
        return self._drawn

    def at(self, position: int) -> SplitMix64:
        """A new view of the same stream whose next word is word ``position``."""
        view = SplitMix64(int(self._base))
        view._drawn = position
        return view

    def _words(self, position: int, n: int) -> np.ndarray:
        """The ``n`` words from stream position ``position`` on."""
        z = np.arange(position + 1, position + n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z *= _GAMMA
            z += self._base
            return _mix(z)

    def _top53_into(self, position: int, out: np.ndarray) -> None:
        """Write the top 53 bits of the words from ``position`` on into ``out``."""
        for lo in range(0, out.size, NORMAL_BLOCK):
            block = out[lo:lo + NORMAL_BLOCK]
            words = self._words(position + lo, block.size)
            words >>= np.uint64(11)
            block[...] = words

    def next_u64(self, n: int) -> np.ndarray:
        """The next ``n`` raw 64-bit words."""
        words = self._words(self._drawn, n)
        self._drawn += n
        return words

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1) with 53-bit resolution."""
        bits = np.empty(n)
        self._top53_into(self._drawn, bits)
        self._drawn += n
        bits *= 2.0**-53
        return bits

    def normal(self, shape) -> np.ndarray:
        """Standard normals with the given shape, filled in C order.

        The n values read n u1 words, then n u2 words, and are formed
        ``NORMAL_BLOCK`` at a time (see :meth:`reserve_normal`).
        """
        n = int(np.prod(shape))
        out = np.empty(n)
        self.reserve_normal(n)(0, out)
        return out.reshape(shape)

    def reserve_normal(self, n: int):
        """Advance past the next ``n`` standard normals without forming them.

        Returns ``fill(lo, out)``, which writes values ``lo:lo + out.size``
        of those normals into ``out``: what ``normal(n)[lo:hi]`` holds, read
        at their own stream positions, so a caller can form them block by
        block in any order.
        """
        start = self._drawn
        self._drawn += 2 * n
        return functools.partial(self._normal_into, start, n)

    def _normal_into(self, start: int, n: int, lo: int, out: np.ndarray) -> None:
        """Values ``lo:lo + out.size`` of the n normals drawn at ``start``, into ``out``.

        Value i reads its u1 word at stream position ``start + i`` and its u2
        word at ``start + n + i``; Box-Muller runs ``NORMAL_BLOCK`` values
        at a time.
        """
        u2 = np.empty(min(out.size, NORMAL_BLOCK))
        for b in range(0, out.size, NORMAL_BLOCK):
            # sqrt(-2 log u1) * cos(2 pi u2), each step in place; u1 lies on
            # (0, 1], so the log is finite
            r = out[b:b + NORMAL_BLOCK]
            self._top53_into(start + lo + b, r)
            r += 1.0
            r *= 2.0**-53
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            c = u2[:r.size]
            self._top53_into(start + n + lo + b, c)
            c *= 2.0**-53
            c *= 2.0 * np.pi
            np.cos(c, out=c)
            r *= c

    def integers(self, n: int, bound: int) -> np.ndarray:
        """``n`` integers in [0, bound) by modulo reduction (bound << 2^64)."""
        return (self.next_u64(n) % np.uint64(bound)).astype(np.int64)

    def spawn_seeds(self, n: int) -> list[int]:
        """Derive ``n`` child seeds; child i does not depend on n."""
        return [int(word) for word in self.next_u64(n)]
