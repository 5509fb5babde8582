"""Centering, second-moment and merge contracts against naive summation oracles."""

import math

import numpy as np
import pytest

from cpcapp import (
    ArgumentError,
    DataMatrix,
    DefinitenessError,
    Moments,
    ShapeError,
    build_covariance_pair,
    gen_haystack,
    sample_haystack,
    second_moment,
)

from conftest import traced_peak


def longdouble_moments(values):
    """Mean and 1/N covariance of ``values`` in extended precision."""
    x = np.asarray(values, dtype=np.longdouble)
    mean = x.mean(axis=1)
    z = x - mean[:, None]
    return mean, (z @ z.T) / x.shape[1]


def fold(batches):
    """Moments of the column batches, merged left to right."""
    acc = second_moment(DataMatrix(values=batches[0]))
    for batch in batches[1:]:
        acc = acc.merge(second_moment(DataMatrix(values=batch)))
    return acc


class TestCenter:
    def test_two_point_symmetry(self):
        m = second_moment(DataMatrix(values=np.array([[1.0, 3.0], [2.0, 4.0]])))
        np.testing.assert_array_equal(m.mean, [2.0, 3.0])
        np.testing.assert_array_equal(m.scatter, [[2.0, 2.0], [2.0, 2.0]])
        assert m.n == 2

    def test_single_column(self):
        m = second_moment(DataMatrix(values=np.array([[5.0], [7.0]])))
        np.testing.assert_array_equal(m.scatter, np.zeros((2, 2)))
        np.testing.assert_array_equal(m.mean, [5.0, 7.0])

    def test_row_sums_vanish(self, rng):
        values = rng.standard_normal((4, 20))
        m = second_moment(DataMatrix(values=values))
        # direct summation oracle
        sums = [sum(values[i, j] - m.mean[i] for j in range(20)) for i in range(4)]
        assert max(abs(s) for s in sums) < 1e-9

    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            DataMatrix(values=np.zeros((3, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, rng, bad):
        values = rng.standard_normal((3, 5))
        values[1, 2] = bad
        with pytest.raises(ArgumentError, match="non-finite"):
            DataMatrix(values=values)

    def test_accepts_zero_features(self):
        assert DataMatrix(values=np.zeros((0, 4))).samples == 4

    def test_finiteness_check_holds_no_mask(self, rng):
        # min and max instead of a bool array the size of the matrix
        values = rng.standard_normal((192, 4096))
        peak = traced_peak(lambda: DataMatrix(values=values))
        assert peak <= 0.01 * values.nbytes

    def test_large_magnitude_data_centers(self, rng):
        # offset 5e8, spread 1e8: residual sums about the mean are at rounding level
        values = 5e8 + 1e8 * rng.standard_normal((3, 1000))
        m = second_moment(DataMatrix(values=values))
        np.testing.assert_allclose((values - m.mean[:, None]).mean(axis=1), 0.0, atol=1e-6)


class TestSecondMoment:
    def test_two_columns(self):
        m = second_moment(DataMatrix(values=np.array([[1.0, -1.0], [0.0, 0.0]])))
        np.testing.assert_array_equal(m.covariance(), [[1.0, 0.0], [0.0, 0.0]])

    def test_mirrored_column_gives_projector(self):
        w = np.array([2.0, 1.0, -2.0]) / 3.0  # unit vector
        m = second_moment(DataMatrix(values=np.column_stack([w, -w])))
        np.testing.assert_allclose(m.covariance(), np.outer(w, w), atol=1e-12)

    def test_matches_triple_loop(self, rng):
        values = rng.standard_normal((3, 50))
        r = second_moment(DataMatrix(values=values)).covariance()
        mean = [math.fsum(row) / 50 for row in values]
        oracle = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                oracle[i, j] = math.fsum((values[i, k] - mean[i]) * (values[j, k] - mean[j])
                                         for k in range(50)) / 50
        np.testing.assert_allclose(r, oracle, atol=1e-10)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rejects_overflow(self, rng):
        with pytest.raises(ArgumentError, match="overflows"):
            second_moment(DataMatrix(values=1e200 * rng.standard_normal((3, 20))))

    def test_psd(self, rng):
        r = second_moment(DataMatrix(values=rng.standard_normal((6, 30)))).covariance()
        assert np.linalg.eigvalsh(r)[0] >= -1e-10 * np.trace(r)

    def test_single_batch_keeps_operation_order(self, rng):
        # row mean, subtraction, Z Z^T / N, symmetrization: bit for bit
        values = rng.standard_normal((7, 45))
        z = values - values.mean(axis=1)[:, None]
        r = (z @ z.T) / 45
        expected = (r + r.T) / 2.0
        assert second_moment(DataMatrix(values=values)).covariance().tobytes() == expected.tobytes()

    def test_overwrite_centers_the_batch_in_place(self, rng):
        # the same bits, with Z formed in the batch the caller gives up, not
        # in a copy of it
        values = rng.standard_normal((192, 2000))
        want = second_moment(DataMatrix(values=values))
        data = DataMatrix(values=values.copy())
        moments = []
        peak = traced_peak(lambda: moments.append(second_moment(data, overwrite=True)))
        assert moments[0].mean.tobytes() == want.mean.tobytes()
        assert moments[0].scatter.tobytes() == want.scatter.tobytes()
        assert data.values.tobytes() == (values - want.mean[:, None]).tobytes()
        assert peak < 0.1 * values.nbytes


class TestMoments:
    @pytest.mark.parametrize("sizes", [[1] * 30, [1, 29], [17, 2, 1, 10], [3, 27]],
                             ids=["one-sample", "1+29", "uneven", "3+27"])
    @pytest.mark.parametrize("offset, spread", [(0.0, 1.0), (5e8, 1e8)], ids=["unit", "5e8"])
    def test_merge_matches_single_batch_and_oracle(self, rng, sizes, offset, spread):
        values = offset + spread * rng.standard_normal((5, sum(sizes)))
        batches = np.split(values, np.cumsum(sizes)[:-1], axis=1)
        merged = fold(batches)
        single = second_moment(DataMatrix(values=values))
        mean, cov = longdouble_moments(values)
        scale = spread * spread
        assert merged.n == single.n == values.shape[1]
        for m in (merged, single):
            np.testing.assert_allclose(m.mean, mean.astype(float), rtol=2e-15, atol=1e-14 * spread)
            assert np.abs(m.covariance() - cov).max() <= 1e-14 * scale
        np.testing.assert_allclose(merged.covariance(), single.covariance(), atol=1e-14 * scale)

    def test_merge_rejects_feature_mismatch(self, rng):
        a = second_moment(DataMatrix(values=rng.standard_normal((3, 4))))
        b = second_moment(DataMatrix(values=rng.standard_normal((4, 4))))
        with pytest.raises(ShapeError):
            a.merge(b)

    def test_reruns_are_bitwise_equal(self, rng):
        batches = np.split(rng.standard_normal((6, 40)), [3, 11, 12], axis=1)
        a, b = fold(batches), fold(batches)
        assert a.mean.tobytes() == b.mean.tobytes()
        assert a.scatter.tobytes() == b.scatter.tobytes()

    def test_merged_covariance_is_exactly_symmetric(self, rng):
        c = fold(np.split(3.0 + rng.standard_normal((6, 40)), [1, 2, 9], axis=1)).covariance()
        np.testing.assert_array_equal(c, c.T)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_merge_overflow_raises(self):
        # each part is constant (zero scatter); the offset between them squares past float64
        lo = second_moment(DataMatrix(values=np.full((2, 3), -1e160)))
        hi = second_moment(DataMatrix(values=np.full((2, 3), 1e160)))
        with pytest.raises(ArgumentError, match="overflows"):
            lo.merge(hi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scatter(self, bad):
        scatter = np.eye(4)
        scatter[2, 1] = bad
        with pytest.raises(ArgumentError, match="overflows"):
            Moments(n=5, mean=np.zeros(4), scatter=scatter)

    def test_finiteness_check_holds_no_mask(self, rng):
        # min and max instead of a bool array the size of the scatter
        scatter = rng.standard_normal((784, 784))
        peak = traced_peak(lambda: Moments(n=10, mean=np.zeros(784), scatter=scatter))
        assert peak <= 0.01 * scatter.nbytes

    def test_accepts_zero_features(self):
        assert second_moment(DataMatrix(values=np.zeros((0, 4)))).scatter.shape == (0, 0)

    def test_pair_from_moments_matches_pair_from_samples(self, rng):
        bg, fg = rng.standard_normal((4, 30)), rng.standard_normal((4, 25)) + 3.0
        pooled = build_covariance_pair(fold(np.split(bg, [7], axis=1)),
                                       fold(np.split(fg, [1, 20], axis=1)))
        direct = build_covariance_pair(DataMatrix(values=bg), DataMatrix(values=fg))
        assert (pooled.n_b, pooled.n_f) == (direct.n_b, direct.n_f) == (30, 25)
        np.testing.assert_allclose(pooled.r_b, direct.r_b, atol=1e-14)
        np.testing.assert_allclose(pooled.r_f, direct.r_f, atol=1e-14)
        np.testing.assert_allclose(pooled.mean_f, direct.mean_f, rtol=1e-15)


class TestBuildPair:
    def test_peak_from_moments_is_three_covariances(self, rng):
        # r_b, then the loading test's shifted copy and its Cholesky factor,
        # both freed before r_f is formed; each covariance is symmetrized in
        # place and no identity matrix is built
        m = 200
        bg, fg = (second_moment(DataMatrix(values=rng.standard_normal((m, n))))
                  for n in (150, 300))
        peak = traced_peak(lambda: build_covariance_pair(bg, fg))
        assert peak <= 3.5 * m * m * 8

    def test_equal_partitions(self, rng):
        data = DataMatrix(values=rng.standard_normal((4, 9)))
        pair = build_covariance_pair(data, data)
        np.testing.assert_array_equal(pair.r_b, pair.r_f)
        assert pair.n_b == pair.n_f == 9

    def test_rank_deficient_background_gets_loading(self, rng):
        bg = DataMatrix(values=rng.standard_normal((5, 3)))
        fg = DataMatrix(values=rng.standard_normal((5, 10)))
        pair = build_covariance_pair(bg, fg)
        assert pair.loading > 0

    @pytest.mark.parametrize("bg_values", [np.full((4, 20), 3.0), np.arange(4.0)[:, None]],
                             ids=["constant", "one-sample"])
    def test_zero_variance_background_raises(self, rng, bg_values):
        fg = DataMatrix(values=rng.standard_normal((4, 10)))
        with pytest.raises(DefinitenessError, match="background has no variance"):
            build_covariance_pair(DataMatrix(values=bg_values), fg)

    def test_rejects_mismatched_features(self, rng):
        with pytest.raises(ShapeError):
            build_covariance_pair(
                DataMatrix(values=rng.standard_normal((3, 4))),
                DataMatrix(values=rng.standard_normal((4, 4))),
            )

    def test_monte_carlo_concentration(self):
        # 1e4 draws from the planted-direction model land within 5% Frobenius
        # of the analytic background covariance.
        r_b, r_f, _, _ = gen_haystack()
        fg, bg = sample_haystack(5, 10_000, 10_000)
        pair = build_covariance_pair(bg, fg)
        assert np.linalg.norm(pair.r_b - r_b, "fro") <= 0.05 * np.linalg.norm(r_b, "fro")

    def test_deterministic(self, rng):
        bg = DataMatrix(values=rng.standard_normal((4, 12)))
        fg = DataMatrix(values=rng.standard_normal((4, 15)))
        p1 = build_covariance_pair(bg, fg)
        p2 = build_covariance_pair(bg, fg)
        assert np.array_equal(p1.r_b, p2.r_b) and np.array_equal(p1.r_f, p2.r_f)
        assert p1.loading == p2.loading

    def test_shift_invariance(self, rng):
        values = rng.standard_normal((5, 40))
        shift = rng.standard_normal(5) * 100
        r1 = second_moment(DataMatrix(values=values)).covariance()
        r2 = second_moment(DataMatrix(values=values + shift[:, None])).covariance()
        np.testing.assert_allclose(r1, r2, atol=1e-8)
