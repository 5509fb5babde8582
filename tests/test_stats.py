"""Centering and second-moment contracts against naive summation oracles."""

import numpy as np
import pytest

from cpcapp import (
    ArgumentError,
    DataMatrix,
    DefinitenessError,
    ShapeError,
    StateError,
    SyntheticSpec,
    build_covariance_pair,
    center,
    gen_haystack,
    sample_haystack,
    second_moment,
)


class TestCenter:
    def test_two_point_symmetry(self):
        raw = DataMatrix(values=np.array([[1.0, 3.0], [2.0, 4.0]]))
        c = center(raw)
        np.testing.assert_array_equal(c.values, [[-1.0, 1.0], [-1.0, 1.0]])
        np.testing.assert_array_equal(c.mean, [2.0, 3.0])
        assert c.centered

    def test_single_column(self):
        raw = DataMatrix(values=np.array([[5.0], [7.0]]))
        c = center(raw)
        np.testing.assert_array_equal(c.values, np.zeros((2, 1)))
        np.testing.assert_array_equal(c.mean, [5.0, 7.0])

    def test_row_sums_vanish(self, rng):
        c = center(DataMatrix(values=rng.standard_normal((4, 20))))
        # direct summation oracle
        sums = [sum(c.values[i, j] for j in range(20)) for i in range(4)]
        assert max(abs(s) for s in sums) < 1e-9

    def test_idempotent(self, rng):
        c = center(DataMatrix(values=rng.standard_normal((3, 7))))
        again = center(c)
        assert again is c

    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            DataMatrix(values=np.zeros((3, 0)))

    def test_centered_flag_requires_zero_sums(self):
        with pytest.raises(ArgumentError):
            DataMatrix(values=np.ones((2, 2)), centered=True, mean=np.zeros(2))

    def test_large_magnitude_data_centers(self, rng):
        # offset 5e8, spread 1e8: the residual sums of the centered output are
        # ~1e-5, far above an absolute 1e-9 * N slack but at rounding level
        raw = DataMatrix(values=5e8 + 1e8 * rng.standard_normal((3, 1000)))
        c = center(raw)
        np.testing.assert_allclose(c.values.mean(axis=1), 0.0, atol=1e-6)

    def test_unit_scale_slack_is_unchanged(self):
        values = np.array([[1.0, -1.0 + 3e-9]])  # residual sum 3e-9 > 1e-9 * N
        with pytest.raises(ArgumentError):
            DataMatrix(values=values, centered=True, mean=np.zeros(1))


class TestSecondMoment:
    def test_two_columns(self):
        z = DataMatrix(values=np.array([[1.0, -1.0], [0.0, 0.0]]), centered=True,
                       mean=np.zeros(2))
        np.testing.assert_array_equal(second_moment(z), [[1.0, 0.0], [0.0, 0.0]])

    def test_mirrored_column_gives_projector(self):
        w = np.array([2.0, 1.0, -2.0]) / 3.0  # unit vector
        z = DataMatrix(values=np.column_stack([w, -w]), centered=True, mean=np.zeros(3))
        np.testing.assert_allclose(second_moment(z), np.outer(w, w), atol=1e-12)

    def test_matches_triple_loop(self, rng):
        z = center(DataMatrix(values=rng.standard_normal((3, 50))))
        r = second_moment(z)
        oracle = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                for k in range(50):
                    oracle[i, j] += z.values[i, k] * z.values[j, k]
        oracle /= 50
        np.testing.assert_allclose(r, oracle, atol=1e-10)

    def test_rejects_uncentered(self, rng):
        with pytest.raises(StateError):
            second_moment(DataMatrix(values=rng.standard_normal((2, 5))))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rejects_overflow(self, rng):
        z = center(DataMatrix(values=1e200 * rng.standard_normal((3, 20))))
        with pytest.raises(ArgumentError, match="overflows"):
            second_moment(z)

    def test_psd(self, rng):
        z = center(DataMatrix(values=rng.standard_normal((6, 30))))
        r = second_moment(z)
        assert np.linalg.eigvalsh(r)[0] >= -1e-10 * np.trace(r)


class TestBuildPair:
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
        spec = SyntheticSpec(kind="haystack", seed=5, n_fg=10_000, n_bg=10_000)
        r_b, r_f, _, _ = gen_haystack(spec)
        fg, bg = sample_haystack(spec)
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
        r1 = second_moment(center(DataMatrix(values=values)))
        r2 = second_moment(center(DataMatrix(values=values + shift[:, None])))
        np.testing.assert_allclose(r1, r2, atol=1e-8)
