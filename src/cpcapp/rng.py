"""Portable deterministic random numbers (SplitMix64 + Box-Muller).

SplitMix64 is a counter-based 64-bit generator: output i is a fixed avalanche
mix of ``seed + (i+1) * 0x9E3779B97F4A7C15`` (mod 2^64), so the whole stream
vectorizes and a given seed produces identical draws on every platform.
Uniforms take the top 53 bits; each normal consumes two words through the
cosine branch of Box-Muller. Draw order is documented per generator so
fixtures stay stable.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1


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

    def next_u64(self, n: int) -> np.ndarray:
        """The next ``n`` raw 64-bit words."""
        z = np.arange(self._drawn + 1, self._drawn + n + 1, dtype=np.uint64)
        self._drawn += n
        with np.errstate(over="ignore"):
            z *= _GAMMA
            z += self._base
            return _mix(z)

    def _top53(self, n: int) -> np.ndarray:
        """The top 53 bits of the next ``n`` words, as doubles."""
        words = self.next_u64(n)
        words >>= np.uint64(11)
        return words.astype(float)

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1) with 53-bit resolution."""
        bits = self._top53(n)
        bits *= 2.0**-53
        return bits

    def uniform_open(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on (0, 1]; safe to pass through log()."""
        bits = self._top53(n)
        bits += 1.0
        bits *= 2.0**-53
        return bits

    def normal(self, shape) -> np.ndarray:
        """Standard normals with the given shape, filled in C order."""
        n = int(np.prod(shape))
        # sqrt(-2 log u1) * cos(2 pi u2), each step in place; u1 is reduced
        # before u2 is drawn, so the two never hold their raw words at once
        out = self.uniform_open(n)
        np.log(out, out=out)
        out *= -2.0
        np.sqrt(out, out=out)
        u2 = self.uniform(n)
        u2 *= 2.0 * np.pi
        np.cos(u2, out=u2)
        out *= u2
        return out.reshape(shape)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """``n`` integers in [0, bound) by modulo reduction (bound << 2^64)."""
        return (self.next_u64(n) % np.uint64(bound)).astype(np.int64)

    def spawn_seeds(self, n: int) -> list[int]:
        """Derive ``n`` child seeds; child i does not depend on n."""
        return [int(word) for word in self.next_u64(n)]
