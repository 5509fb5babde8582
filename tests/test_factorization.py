"""Basis recovery, oblique projection, and the determinant-ratio statistic."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from cpcapp import (
    CovariancePair,
    DataMatrix,
    FactorModel,
    RankError,
    build_covariance_pair,
    denoise,
    fit_cpcapp,
    gen_haystack,
    glrt_statistic,
    recover_w,
    sample_haystack,
)

from conftest import random_spd, traced_peak


def pair_from(rng, m, n=200, bg_scale=1.0):
    fg = DataMatrix(values=rng.standard_normal((m, n)))
    bg = DataMatrix(values=bg_scale * rng.standard_normal((m, n)))
    return build_covariance_pair(bg, fg)


def identity_pair(r_f, m):
    return CovariancePair(r_b=np.eye(m), r_f=r_f, loading=0.0, n_b=100, n_f=100,
                          mean_b=np.zeros(m), mean_f=np.zeros(m))


class TestRecoverW:
    def test_identity_background_collapses_to_f(self, rng):
        z = rng.standard_normal((5, 5))
        pair = identity_pair(z @ z.T, 5)
        bank = fit_cpcapp(pair, 3)
        model = recover_w(pair, bank)
        np.testing.assert_allclose(model.w, bank.f, atol=1e-9)

    def test_planted_direction_spans_basis(self):
        # the basis recovery multiplies the filter by the background
        # covariance, whose 1000x anisotropy amplifies sampling error in the
        # filter, so this needs a generous sample count
        fg, bg = sample_haystack(3, 60_000, 60_000)
        _, _, c, _ = gen_haystack()
        pair = build_covariance_pair(bg, fg)
        bank = fit_cpcapp(pair, 1)
        model = recover_w(pair, bank)
        w1 = model.w[:, 0] / np.linalg.norm(model.w[:, 0])
        assert abs(w1 @ c) >= 0.99

    def test_biorthogonality(self, rng):
        pair = pair_from(rng, 8)
        bank = fit_cpcapp(pair, 3)
        model = recover_w(pair, bank)
        np.testing.assert_allclose(model.f.T @ model.w, np.eye(3), atol=1e-8)

    def test_scaling_matrix_is_diagonal(self, rng):
        pair = pair_from(rng, 10)
        bank = fit_cpcapp(pair, 4)
        r_b = pair.r_b + pair.loading * np.eye(10)
        lam = bank.f.T @ r_b @ bank.f
        off = lam - np.diag(np.diag(lam))
        assert np.linalg.norm(off) < 1e-6 * np.linalg.norm(np.diag(lam))
        recover_w(pair, bank)  # F^T W = I is checked on construction

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_model_rejects_non_finite_basis(self, rng, bad):
        pair = pair_from(rng, 5)
        model = recover_w(pair, fit_cpcapp(pair, 2))
        w = model.w.copy()
        w[0, 1] = bad
        with pytest.raises(RankError):
            FactorModel(w=w, f=model.f)

    def test_projector_idempotent(self, rng):
        pair = pair_from(rng, 9)
        bank = fit_cpcapp(pair, 3)
        model = recover_w(pair, bank)
        p = model.w @ model.f.T
        assert np.linalg.norm(p @ p - p, "fro") <= 1e-6 * np.linalg.norm(p, "fro")


class TestDenoise:
    def test_fixed_point_on_basis_range(self, rng):
        pair = pair_from(rng, 7)
        bank = fit_cpcapp(pair, 2)
        model = recover_w(pair, bank)
        z = model.w @ rng.standard_normal(2)
        np.testing.assert_allclose(denoise(model, z), z, atol=1e-6 * (1 + np.abs(z).max()))

    def test_null_input_maps_to_zero(self, rng):
        pair = pair_from(rng, 6)
        bank = fit_cpcapp(pair, 2)
        model = recover_w(pair, bank)
        # build a vector in the null space of F^T
        q, _ = np.linalg.qr(model.f)
        z = rng.standard_normal(6)
        z -= q @ (q.T @ z)
        np.testing.assert_allclose(denoise(model, z), np.zeros(6), atol=1e-8)

    def test_rejects_wrong_length(self, rng):
        pair = pair_from(rng, 6)
        model = recover_w(pair, fit_cpcapp(pair, 2))
        from cpcapp import ShapeError

        with pytest.raises(ShapeError):
            denoise(model, np.zeros(5))


class TestGlrt:
    def test_identical_partitions_give_power_of_two(self, rng):
        z = DataMatrix(values=rng.standard_normal((5, 60)))
        w = rng.standard_normal((5, 3))
        stat = glrt_statistic(build_covariance_pair(z, z), w)
        assert stat == pytest.approx(2.0**3, rel=1e-6)

    def test_zero_foreground_gives_one(self, rng):
        z_b = DataMatrix(values=rng.standard_normal((4, 50)))
        z_f = DataMatrix(values=np.zeros((4, 30)))
        stat = glrt_statistic(build_covariance_pair(z_b, z_f), rng.standard_normal((4, 2)))
        assert stat == pytest.approx(1.0, rel=1e-9)

    def test_optimal_basis_attains_maximum(self):
        fg, bg = sample_haystack(17, 2000, 2000)
        pair = build_covariance_pair(bg, fg)
        model = recover_w(pair, fit_cpcapp(pair, 1))
        best = glrt_statistic(pair, model.w)
        gen = np.random.default_rng(99)
        randoms = [glrt_statistic(pair, gen.standard_normal((4, 1))) for _ in range(100)]
        assert best >= max(randoms)

    def test_invariant_to_right_multiplication(self, rng):
        z_f = DataMatrix(values=rng.standard_normal((6, 70)))
        z_b = DataMatrix(values=rng.standard_normal((6, 80)))
        w = rng.standard_normal((6, 3))
        t = random_spd(rng, 3, jitter=0.1)  # invertible
        pair = build_covariance_pair(z_b, z_f)
        s1 = glrt_statistic(pair, w)
        s2 = glrt_statistic(pair, w @ t)
        assert s2 == pytest.approx(s1, rel=1e-7)

    def test_at_least_one(self, rng):
        for seed in range(5):
            gen = np.random.default_rng(seed)
            z_f = DataMatrix(values=gen.standard_normal((5, 40)))
            z_b = DataMatrix(values=gen.standard_normal((5, 45)))
            stat = glrt_statistic(build_covariance_pair(z_b, z_f), gen.standard_normal((5, 2)))
            assert stat >= 1.0 - 1e-9

    def test_rejects_rank_deficient_basis(self, rng):
        z = DataMatrix(values=rng.standard_normal((4, 30)))
        w = np.zeros((4, 2))
        w[:, 0] = w[:, 1] = 1.0
        with pytest.raises(RankError):
            glrt_statistic(build_covariance_pair(z, z), w)


class TestStackedGlrt:
    @pytest.mark.parametrize("g", [1, 5])
    @pytest.mark.parametrize("k", [1, 3])
    def test_stack_matches_per_basis(self, rng, g, k):
        pair = pair_from(rng, 12)
        ws = rng.standard_normal((g, 12, k))
        stacked = glrt_statistic(pair, ws)
        per_basis = np.array([glrt_statistic(pair, w) for w in ws])
        assert stacked.shape == (g,)
        if k > 1:
            assert stacked.tobytes() == per_basis.tobytes()
        else:
            # a one-column product takes gemv, not gemm, so one-column bases
            # whitened side by side differ in ulps
            np.testing.assert_allclose(stacked, per_basis, rtol=1e-12)

    def test_single_basis_gives_float(self, rng):
        stat = glrt_statistic(pair_from(rng, 6), rng.standard_normal((6, 2)))
        assert isinstance(stat, float)

    def test_any_batch_shape(self, rng):
        pair = pair_from(rng, 7)
        ws = rng.standard_normal((2, 3, 7, 2))
        stats = glrt_statistic(pair, ws)
        assert stats.shape == (2, 3)
        assert stats[1, 2] == glrt_statistic(pair, ws[1, 2])

    def test_rank_deficient_basis_anywhere_in_stack(self, rng):
        pair = pair_from(rng, 8)
        ws = rng.standard_normal((5, 8, 3))
        ws[3, :, 2] = ws[3, :, 0]
        with pytest.raises(RankError):
            glrt_statistic(pair, ws)

    def test_pooled_matrix_is_factored_in_place(self, rng):
        # the pooled n_f/n_b R_f + R_b is loaded and factored in its own
        # buffer: besides it, the factor, then the inverse and its block scratch
        m = 300
        pair = pair_from(rng, m, n=400)
        w = rng.standard_normal((3, m, 3))
        peak = traced_peak(lambda: glrt_statistic(pair, w))
        assert peak <= 2.6 * m * m * 8

    def test_rejects_feature_mismatch(self, rng):
        from cpcapp import ShapeError

        pair = pair_from(rng, 8)
        for w in (rng.standard_normal(8), rng.standard_normal((4, 7, 2))):
            with pytest.raises(ShapeError):
                glrt_statistic(pair, w)


class TestGlrtAgainstScipy:
    """The statistic against ``cho_solve`` on the same loaded matrices.

    Both forms are backward stable in the two Cholesky factorizations, so
    each log-determinant errs by about ``m eps cond(A)`` per dimension of the
    basis; the bound is twice that, summed over the two matrices A.
    """

    @pytest.mark.parametrize("n_b", [5, 40], ids=["loaded", "full-rank"])
    def test_matches_cho_solve(self, n_b):
        m, g, k = 12, 4, 3
        gen = np.random.default_rng(n_b)
        pair = build_covariance_pair(DataMatrix(values=gen.standard_normal((m, n_b))),
                                     DataMatrix(values=gen.standard_normal((m, 30))))
        assert (pair.loading > 0) == (n_b < m)
        loaded = pair.r_b + pair.loading * np.eye(m)
        mats = (loaded, pair.n_f / pair.n_b * pair.r_f + loaded)
        factors = [scipy.linalg.cho_factor(a) for a in mats]

        def reference(w):
            numer, denom = (np.linalg.slogdet(w.T @ scipy.linalg.cho_solve(f, w))[1]
                            for f in factors)
            return np.exp(numer - denom)

        ws = gen.standard_normal((g, m, k))
        eps = np.finfo(float).eps
        rtol = 2 * k * m * eps * sum(np.linalg.cond(a) for a in mats)
        np.testing.assert_allclose(glrt_statistic(pair, ws), [reference(w) for w in ws],
                                   rtol=rtol)


class TestFactorizationCount:
    def test_fit_spends_one_eigh_and_no_eigvalsh(self, rng):
        # rank-deficient background, so the loading decision is exercised
        bg = DataMatrix(values=rng.standard_normal((12, 8)))
        fg = DataMatrix(values=rng.standard_normal((12, 40)))
        with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh, \
                mock.patch("numpy.linalg.eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            pair = build_covariance_pair(bg, fg)
            recover_w(pair, fit_cpcapp(pair, 3))
        assert pair.loading > 0
        assert eigh.call_count == 1
        assert eigvalsh.call_count == 0
