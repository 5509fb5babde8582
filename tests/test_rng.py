"""Portable stream contract: the numpy path must match a big-int reference."""

import math

import numpy as np
import pytest

from cpcapp import SplitMix64
from cpcapp.rng import NORMAL_BLOCK

from conftest import traced_peak

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
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 10_007, NORMAL_BLOCK - 1, NORMAL_BLOCK,
                                   NORMAL_BLOCK + 1, 2 * NORMAL_BLOCK + 1])
    def test_match_allocating_expressions(self, seed, n):
        words = allocating_words(seed, 4 * n)
        block = [words[i * n:(i + 1) * n] for i in range(4)]

        def top53(w):
            return (w >> np.uint64(11)).astype(float)

        u1 = (top53(block[2]) + 1.0) * 2.0**-53
        u2 = top53(block[3]) * 2.0**-53
        want = [block[0], top53(block[1]) * 2.0**-53,
                np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)]
        stream = SplitMix64(seed)
        got = [stream.next_u64(n), stream.uniform(n), stream.normal(n)]
        for name, g, w in zip(("next_u64", "uniform", "normal"), got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name

    def test_normal_holds_only_its_output(self):
        # Box-Muller runs block by block: no full-size word or u2 array
        n = 512 * 512
        peak = traced_peak(lambda: SplitMix64(3).normal(n))
        assert peak <= 1.6 * n * 8


class TestPositionalReads:
    """A view at position p reads exactly what a sequential stream reads there."""

    @pytest.mark.parametrize("seed", [0, 7, MASK])
    def test_words_at_a_position(self, seed):
        words = allocating_words(seed, 3 * NORMAL_BLOCK)
        stream = SplitMix64(seed)
        for p, n in ((0, 5), (1, 1), (17, 40), (NORMAL_BLOCK - 3, 9), (2 * NORMAL_BLOCK, 100)):
            view = stream.at(p)
            assert view.position == p
            assert view.next_u64(n).tobytes() == words[p:p + n].tobytes()
            assert view.position == p + n
        assert stream.position == 0  # views leave the stream they came from alone

    def test_position_counts_every_draw(self):
        stream = SplitMix64(4)
        stream.next_u64(3)
        stream.uniform(5)
        stream.normal((3, 4))
        stream.integers(6, 9)
        assert stream.position == 3 + 5 + 2 * 12 + 6
        assert stream.at(stream.position).uniform(4).tobytes() == stream.uniform(4).tobytes()

    @pytest.mark.parametrize("shape", [(3, 5), (1, NORMAL_BLOCK + 7)])
    def test_fields_out_of_order_equal_fields_in_order(self, shape):
        # fields of 2n words each, as a generator lays them out after a header
        n = int(np.prod(shape))
        stream = SplitMix64(11)
        header = stream.uniform(9)
        in_order = [stream.normal(shape) for _ in range(4)]
        replay = SplitMix64(11)
        assert replay.uniform(9).tobytes() == header.tobytes()
        start = replay.position
        for j in (2, 0, 3, 1):
            got = replay.at(start + 2 * n * j).normal(shape)
            assert got.tobytes() == in_order[j].tobytes(), j

    @pytest.mark.parametrize("n, lo, hi", [(1, 0, 1), (7, 3, 5), (7, 6, 7),
                                           (3 * NORMAL_BLOCK + 5, 0, 3 * NORMAL_BLOCK + 5),
                                           (3 * NORMAL_BLOCK + 5, NORMAL_BLOCK - 2, NORMAL_BLOCK + 3),
                                           (3 * NORMAL_BLOCK + 5, 17, 2 * NORMAL_BLOCK + 40),
                                           (3 * NORMAL_BLOCK + 5, 3 * NORMAL_BLOCK, 3 * NORMAL_BLOCK + 5)])
    def test_reserved_normals_fill_any_stretch(self, n, lo, hi):
        # block edges of the fill fall where the whole draw's do not
        whole = SplitMix64(13)
        whole.uniform(3)
        want = whole.normal(n)
        stream = SplitMix64(13)
        stream.uniform(3)
        fill = stream.reserve_normal(n)
        assert stream.position == 3 + 2 * n
        assert stream.uniform(4).tobytes() == whole.uniform(4).tobytes()
        got = np.full(hi - lo, np.nan)
        fill(lo, got)
        assert got.tobytes() == want[lo:hi].tobytes()
