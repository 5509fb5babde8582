"""Eigen-machinery contracts, with scipy's general solver as the cross-check."""

import numpy as np
import pytest
import scipy.linalg

from cpcapp import (
    ArgumentError,
    DefinitenessError,
    ShapeError,
    auto_loading,
    diagonal_load,
    eig_count,
    q_eig,
    reset_eig_count,
    sym_eig,
)

from conftest import random_psd, random_spd


class TestSymEig:
    def test_diagonal(self):
        res = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(res.values, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(res.vectors), np.eye(2), atol=1e-14)

    def test_exchange_matrix(self):
        res = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(res.values, [1.0, -1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(res.vectors), [[s, s], [s, s]], atol=1e-12)

    def test_reconstruction_6x6(self, rng):
        a = rng.standard_normal((6, 6))
        a = (a + a.T) / 2
        res = sym_eig(a)
        recon = res.vectors @ np.diag(res.values) @ res.vectors.T
        assert np.linalg.norm(recon - a) <= 1e-8 * (np.linalg.norm(a) + 1)

    @pytest.mark.parametrize("m", [2, 3, 5, 10, 20, 50])
    def test_reconstruction_sizes(self, rng, m):
        a = rng.standard_normal((m, m))
        a = (a + a.T) / 2
        res = sym_eig(a)
        recon = res.vectors @ np.diag(res.values) @ res.vectors.T
        assert np.linalg.norm(recon - a, "fro") <= 1e-7 * (np.linalg.norm(a, "fro") + 1)

    def test_descending_and_unit_norm(self, rng):
        res = sym_eig(random_spd(rng, 12))
        assert np.all(np.diff(res.values) <= 0)
        np.testing.assert_allclose(np.linalg.norm(res.vectors, axis=0), 1.0, atol=1e-12)

    def test_sign_convention_deterministic(self, rng):
        a = random_spd(rng, 9)
        r1, r2 = sym_eig(a), sym_eig(a.copy())
        assert np.array_equal(r1.vectors, r2.vectors)
        peaks = r1.vectors[np.argmax(np.abs(r1.vectors), axis=0), np.arange(9)]
        assert np.all(peaks > 0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            sym_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestDiagonalLoad:
    def test_zeros(self):
        np.testing.assert_array_equal(diagonal_load(np.zeros((2, 2)), 1.0), np.eye(2))

    def test_noop(self):
        np.testing.assert_array_equal(diagonal_load(np.eye(3), 0.0), np.eye(3))

    def test_negative_rho(self):
        with pytest.raises(ArgumentError):
            diagonal_load(np.eye(2), -0.5)

    def test_rank_deficient_gram_auto_rho(self, rng):
        z = rng.standard_normal((5, 3))
        gram = z @ z.T / 3  # rank 3 in 5 dims
        rho = auto_loading(gram)
        assert rho > 0
        loaded = diagonal_load(gram, rho)
        assert np.linalg.eigvalsh(loaded)[0] >= rho * (1 - 1e-9)

    def test_auto_loading_zero_for_spd(self, rng):
        assert auto_loading(random_spd(rng, 4)) == 0.0

    def test_auto_loading_rejects_zero_trace(self):
        with pytest.raises(DefinitenessError):
            auto_loading(np.zeros((3, 3)))

    @pytest.mark.parametrize("ratio", [0.0, 1e-14, 1e-12, 1e-8, 1e-6, 1e-2])
    def test_auto_loading_matches_eigenvalue_bound(self, rng, ratio):
        # spectrum with lambda_min = ratio * tr/M, away from the 1e-10 boundary
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        values = np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.0])
        values[-1] = ratio * values.sum() / (6 - ratio)
        r_b = (q * values) @ q.T
        r_b = (r_b + r_b.T) / 2
        mean_diag = np.trace(r_b) / 6
        expected = 1e-6 * mean_diag if np.linalg.eigvalsh(r_b)[0] < 1e-10 * mean_diag else 0.0
        rho = auto_loading(r_b)
        assert rho == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert (rho > 0) == (ratio < 1e-10)


class TestQEig:
    def test_identity_background(self, rng):
        r_f = random_psd(rng, 5)
        res = q_eig(np.eye(5), r_f, 5)
        direct = sym_eig(r_f)
        np.testing.assert_allclose(res.values, direct.values, atol=1e-10)
        np.testing.assert_allclose(np.abs(res.vectors), np.abs(direct.vectors), atol=1e-8)

    def test_planted_direction(self):
        # gamma=10, rho=0.01, beta=5, eps=0.1 with orthonormal a (shared) and
        # c (foreground-only): the top eigenvector must be c.
        m = 4
        a, c = np.eye(m)[:, 0], np.eye(m)[:, 1]
        r_b = 10.0 * np.outer(a, a) + 0.01 * np.eye(m)
        r_f = 5.0 * np.outer(a, a) + 0.1 * np.outer(c, c)
        res = q_eig(r_b, r_f, 1)
        assert abs(res.vectors[:, 0] @ c) >= 0.99

    def test_matches_general_eigensolver(self, rng):
        r_b = random_spd(rng, 6)
        r_f = random_psd(rng, 6)
        res = q_eig(r_b, r_f, 6)
        # brute force on the directly formed product, solved by a general solver
        brute = scipy.linalg.eig(np.linalg.inv(r_b) @ r_f)[0]
        brute = np.sort(np.real(brute))[::-1]
        np.testing.assert_allclose(res.values, brute, rtol=1e-6)

    def test_spectrum_matches_whitened_matrix(self, rng):
        r_b = random_spd(rng, 7)
        r_f = random_psd(rng, 7)
        b = scipy.linalg.fractional_matrix_power(r_b, -0.5)
        whitened = b @ r_f @ b
        ref = sym_eig((whitened + whitened.T) / 2)
        res = q_eig(r_b, r_f, 7)
        np.testing.assert_allclose(res.values, ref.values, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_eigenvalues_nonnegative(self, seed):
        gen = np.random.default_rng(seed)
        r_b = random_spd(gen, 8)
        r_f = random_psd(gen, 8, rank=5)
        res = q_eig(r_b, r_f, 8)
        assert res.values[-1] >= -1e-9

    def test_eigenpair_residuals(self, rng):
        r_b = random_spd(rng, 6)
        r_f = random_psd(rng, 6)
        res = q_eig(r_b, r_f, 4)
        q = np.linalg.solve(r_b, r_f)
        for i in range(4):
            v, lam = res.vectors[:, i], res.values[i]
            assert np.linalg.norm(q @ v - lam * v) <= 1e-6 * (1 + lam)

    def test_rejects_indefinite_background(self, rng):
        with pytest.raises(DefinitenessError):
            q_eig(np.diag([1.0, 0.0]), np.eye(2), 1)

    def test_rejects_bad_k(self, rng):
        r_b = random_spd(rng, 3)
        with pytest.raises(ArgumentError):
            q_eig(r_b, np.eye(3), 0)
        with pytest.raises(ArgumentError):
            q_eig(r_b, np.eye(3), 4)

    def test_counts_one_decomposition(self, rng):
        r_b, r_f = random_spd(rng, 5), random_psd(rng, 5)
        reset_eig_count()
        q_eig(r_b, r_f, 3)
        assert eig_count() == 1


def _sin_largest_angle(f1, f2):
    """Sine of the largest principal angle between two column spans.

    Taken from the projection residual rather than ``arccos`` of singular
    values, which cannot resolve angles below about 1e-8.
    """
    q1, _ = np.linalg.qr(f1)
    q2, _ = np.linalg.qr(f2)
    return np.linalg.norm(q2 - q1 @ (q1.T @ q2), 2)


class TestQEigAgainstScipy:
    """``q_eig(r_b, r_f, k)`` against ``scipy.linalg.eigh(r_f, r_b)`` (LAPACK sygvd).

    ``r_b`` has condition number 10^c for c = 0..10; ``r_f`` is a fixed-size
    Wishart matrix (condition about 30). With A = r_f, B = r_b, both solvers are
    backward stable: each returns the exact answer for A + dA, B + dB with
    ||dA|| <= p(m) eps ||A||, ||dB|| <= p(m) eps ||B||, taking p(m) = m. The
    tolerances are their first-order consequences, doubled because both
    solvers err:

    - eigenvalues (Weyl's inequality for the whitened pencil):
      |l_i - l'_i| <= 2 m eps (||A|| + |l_i| ||B||) ||B^-1||;
    - top-k subspace (LAPACK Users' Guide, section 4.10.1):
      sin(theta_max) <= 2 m eps ||A|| ||B^-1|| kappa(B)^(1/2) / (l_k - l_{k+1}).
    """

    M, K = 40, 4

    @pytest.mark.parametrize("log_kappa", range(11))
    @pytest.mark.parametrize("seed", range(2))
    def test_top_k_agree_within_conditioning_bounds(self, log_kappa, seed):
        m, k = self.M, self.K
        gen = np.random.default_rng([log_kappa, seed])
        q, _ = np.linalg.qr(gen.standard_normal((m, m)))
        r_b = (q * np.logspace(0, -log_kappa, m)) @ q.T
        r_b = (r_b + r_b.T) / 2
        g = gen.standard_normal((m, 2 * m))
        r_f = g @ g.T / (2 * m)
        res = q_eig(r_b, r_f, k)
        values, vectors = scipy.linalg.eigh(r_f, r_b)
        values, vectors = values[::-1], vectors[:, ::-1]

        eps = np.finfo(float).eps
        a_norm, b_norm = np.linalg.norm(r_f, 2), np.linalg.norm(r_b, 2)
        b_inv_norm = np.linalg.norm(np.linalg.inv(r_b), 2)
        value_tol = 2 * m * eps * (a_norm + values[:k] * b_norm) * b_inv_norm
        assert np.all(np.abs(res.values - values[:k]) <= value_tol)
        angle_tol = (2 * m * eps * a_norm * b_inv_norm * np.sqrt(b_norm * b_inv_norm)
                     / (values[k - 1] - values[k]))
        assert _sin_largest_angle(res.vectors, vectors[:, :k]) <= angle_tol


class TestEigenResultValidation:
    def test_rejects_count_mismatch(self):
        from cpcapp import EigenResult

        with pytest.raises(ShapeError):
            EigenResult(values=np.array([1.0]), vectors=np.eye(2))

    def test_rejects_ascending_values(self):
        from cpcapp import EigenResult

        with pytest.raises(ArgumentError):
            EigenResult(values=np.array([1.0, 2.0]), vectors=np.eye(2))
