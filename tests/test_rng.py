"""Portable stream contract: the numpy path must match a big-int reference."""

import math

import numpy as np
import pytest

from cpcapp import SplitMix64

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_stream(seed, count):
    """Textbook scalar implementation on Python integers."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + GAMMA) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


class TestStream:
    @pytest.mark.parametrize("seed", [0, 1, 12345, 0xDEADBEEF, MASK])
    def test_matches_reference(self, seed):
        got = [int(v) for v in SplitMix64(seed).next_u64(8)]
        assert got == reference_stream(seed, 8)

    def test_uniform_ranges(self):
        stream = SplitMix64(2)
        u = stream.uniform(10_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        v = SplitMix64(2).uniform_open(10_000)
        assert v.min() > 0.0 and v.max() <= 1.0

    def test_normal_consumes_two_words_each(self):
        # normals draw u1 then u2 from consecutive words via the cosine branch
        n = 5
        words = reference_stream(9, 2 * n)
        u1 = [((w >> 11) + 1) * 2.0**-53 for w in words[:n]]
        u2 = [(w >> 11) * 2.0**-53 for w in words[n:]]
        want = [math.sqrt(-2.0 * math.log(a)) * math.cos(2.0 * math.pi * b)
                for a, b in zip(u1, u2)]
        got = SplitMix64(9).normal(n)
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_integer_reduction(self):
        words = reference_stream(4, 6)
        got = SplitMix64(4).integers(6, 4)
        assert [int(v) for v in got] == [w % 4 for w in words]


def allocating_words(seed, n):
    """The first ``n`` words by the allocating numpy expressions the stream used to run."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(seed & MASK) + idx * np.uint64(GAMMA)
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class TestInPlaceDraws:
    """The in-place draws equal the allocating expressions, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 9, 0xDEADBEEF, MASK])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 10_007])
    def test_match_allocating_expressions(self, seed, n):
        words = allocating_words(seed, 5 * n)
        block = [words[i * n:(i + 1) * n] for i in range(5)]

        def top53(w):
            return (w >> np.uint64(11)).astype(float)

        u1 = (top53(block[3]) + 1.0) * 2.0**-53
        u2 = top53(block[4]) * 2.0**-53
        want = [block[0], top53(block[1]) * 2.0**-53, (top53(block[2]) + 1.0) * 2.0**-53,
                np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)]
        stream = SplitMix64(seed)
        got = [stream.next_u64(n), stream.uniform(n), stream.uniform_open(n), stream.normal(n)]
        for name, g, w in zip(("next_u64", "uniform", "uniform_open", "normal"), got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
