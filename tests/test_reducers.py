"""Fit/transform behavior across the three methods."""

import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

import cpcapp
from cpcapp import (
    ArgumentError,
    DataMatrix,
    DefinitenessError,
    build_covariance_pair,
    default_alpha_grid,
    fit_cpca,
    fit_cpcapp,
    fit_pca,
    gen_four_class,
    gen_haystack,
    gen_textured_digits,
    score_patches,
    sym_eig,
    transform,
)

from cpcapp.linalg import symmetrize_, whitener

from conftest import principal_angles, traced_peak


def example1_pair(n=4000, seed=11):
    """Covariance pair sampled from the planted-direction model."""
    from cpcapp import sample_haystack

    fg, bg = sample_haystack(seed, n, n)
    r_b, r_f, c, a = gen_haystack()
    return build_covariance_pair(bg, fg), c, a


def analytic_pair():
    """Exact planted-direction covariances wrapped as a CovariancePair."""
    from cpcapp import CovariancePair

    r_b, r_f, c, a = gen_haystack()
    pair = CovariancePair(r_b=r_b, r_f=r_f, loading=0.0, n_b=1000, n_f=1000,
                          mean_b=np.zeros(4), mean_f=np.zeros(4))
    return pair, c, a


class TestFitPca:
    def test_dominant_direction(self, rng):
        direction = np.array([1.0, 1.0]) / np.sqrt(2)
        weights = rng.standard_normal(300)
        noise = 0.01 * rng.standard_normal((2, 300))
        data = DataMatrix(values=np.outer(direction, weights) + noise)
        bank = fit_pca(data, 1)
        assert abs(bank.f[:, 0] @ direction) >= 0.999

    def test_isotropic_eigenvalue(self, rng):
        data = DataMatrix(values=rng.standard_normal((3, 20000)))
        bank = fit_pca(data, 1)
        assert bank.eigenvalues[0] == pytest.approx(1.0, rel=0.1)

    def test_noise_block_dominates_four_class(self):
        fg, _ = gen_four_class(33, 400, 400)
        with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
            bank = fit_pca(fg.data, 2)
        assert eigh.call_count == 1
        mass = float(np.sum(bank.f[20:30] ** 2)) / 2.0
        assert mass >= 0.8

    def test_rejects_bad_k(self, rng):
        data = DataMatrix(values=rng.standard_normal((3, 5)))
        with pytest.raises(ArgumentError):
            fit_pca(data, 0)
        with pytest.raises(ArgumentError):
            fit_pca(data, 4)


class TestFitCpca:
    def test_alpha_zero_equals_pca_on_foreground(self, rng):
        fg = DataMatrix(values=rng.standard_normal((6, 80)))
        bg = DataMatrix(values=rng.standard_normal((6, 80)))
        pair = build_covariance_pair(bg, fg)
        contrast = fit_cpca(pair, 3, 0.0)
        pca = fit_pca(fg, 3)
        assert principal_angles(contrast.f, pca.f).max() < 1e-6

    def test_huge_alpha_matches_direct_eigensolve(self):
        # Oracle: eigendecomposition of the directly formed contrast matrix,
        # top filter by algebraic eigenvalue. (At alpha -> inf this picks the
        # direction minimizing background variance, which here is the
        # foreground-only direction, not the shared one.)
        pair, c, a = analytic_pair()
        alpha = 1e9
        bank = fit_cpca(pair, 1, alpha)
        w, v = np.linalg.eigh(pair.r_f - alpha * pair.r_b)
        oracle_top = v[:, np.argmax(w)]
        assert abs(bank.f[:, 0] @ oracle_top) >= 1 - 1e-9
        assert abs(bank.f[:, 0] @ c) >= 0.99

    def test_nulling_alpha_recovers_planted_direction(self):
        pair, c, _ = analytic_pair()
        bank = fit_cpca(pair, 1, 5.0 / 10.0)  # beta/gamma
        assert abs(bank.f[:, 0] @ c) >= 0.99

    def test_rejects_negative_alpha(self, rng):
        pair, _, _ = analytic_pair()
        with pytest.raises(ArgumentError):
            fit_cpca(pair, 1, -1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        pair, _, _ = analytic_pair()
        with pytest.raises(ArgumentError, match="must be finite"):
            fit_cpca(pair, 1, alpha)


class TestSweep:
    """The cPCA sweep is one ``fit_cpca`` per grid point, in grid order."""

    def test_singleton_matches_single_fit(self):
        # a repeated fit has the same bits: a grid point's bank does not
        # depend on the fits before it
        pair, _, _ = analytic_pair()
        single = fit_cpca(pair, 2, 0.7)
        swept = [fit_cpca(pair, 2, alpha) for alpha in [0.1, 0.7]]
        np.testing.assert_array_equal(swept[1].f, single.f)

    def test_default_grid_hits_planted_direction(self):
        pair, c, _ = example1_pair()
        banks = [fit_cpca(pair, 1, alpha) for alpha in default_alpha_grid()]
        best = max(abs(b.f[:, 0] @ c) for b in banks)
        assert best >= 0.99

    def test_grid_size_and_decomposition_count(self):
        pair, _, _ = analytic_pair()
        alphas = np.linspace(0.1, 10.0, 40)
        with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
            banks = [fit_cpca(pair, 1, alpha) for alpha in alphas]
        assert len(banks) == 40
        assert eigh.call_count == 40
        assert [b.alpha for b in banks] == list(alphas)

    def test_banks_keep_no_eigenvector_matrix_alive(self, rng):
        # each fit_cpca decomposes an M x M matrix; its banks must keep only
        # their own M x k filters, not views into the M x M eigenvectors
        m, k = 300, 2
        pair = build_covariance_pair(DataMatrix(values=rng.standard_normal((m, 400))),
                                     DataMatrix(values=rng.standard_normal((m, 400))))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            banks = [fit_cpca(pair, k, alpha) for alpha in np.linspace(0.1, 10.0, 10)]
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(banks) == 10
        assert kept < m * m * 8  # views would keep 10 * m * m * 8 bytes


class TestFitMemory:
    """Transient M x M arrays a fit allocates above its covariance pair."""

    M = 300

    @pytest.fixture
    def pair(self, rng):
        return build_covariance_pair(DataMatrix(values=rng.standard_normal((self.M, 600))),
                                     DataMatrix(values=rng.standard_normal((self.M, 600))))

    def test_cpcapp_peak(self, pair):
        # L^-1 with L^-1 r_f and S while S is formed, then L^-1, S and the
        # eigenvectors; the loaded background and L are freed once used
        peak = traced_peak(lambda: fit_cpcapp(pair, 3))
        assert peak <= 3.5 * self.M * self.M * 8

    def test_in_place_cpcapp_peak(self, pair):
        # S is formed in r_f: L^-1 with L^-1 r_f while S is formed, no third
        # array; the peak is the triangular inverse's, about 2.5
        peak = traced_peak(lambda: fit_cpcapp(pair, 3, overwrite=True))
        assert peak <= 2.6 * self.M * self.M * 8

    def test_cpca_peak(self, pair):
        # the contrast matrix and its eigenvectors
        peak = traced_peak(lambda: fit_cpca(pair, 3, 2.0))
        assert peak <= 3 * self.M * self.M * 8

    def test_cpca_forms_its_contrast_in_one_buffer(self):
        # at the digits' M: the contrast matrix alone when the eigensolve
        # starts (2 M x M when alpha * r_b was a temporary of its own), then
        # the contrast and its eigenvectors
        m = 784
        fg, bg, _ = gen_textured_digits(1, 200, 200)
        pair = build_covariance_pair(bg, fg.data)
        formed = []

        def eig(a, k):
            formed.append(tracemalloc.get_traced_memory()[1] - base)
            return sym_eig(a, k)

        with mock.patch("cpcapp.reducers.sym_eig", eig):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                bank = fit_cpca(pair, 3, 2.0)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert formed[0] <= 1.05 * m * m * 8
        assert peak <= 2.1 * m * m * 8
        assert bank.f.tobytes() == sym_eig(pair.r_f - 2.0 * pair.r_b, 3).vectors.tobytes()


class TestFitCpcapp:
    def test_in_place_fit_gives_up_r_f_alone(self, rng):
        # the library fit leaves the pair intact; the in-place one has the same
        # bits and leaves S = L^-1 r_f L^-T in r_f, the rest of the pair as it was
        pair = build_covariance_pair(DataMatrix(values=rng.standard_normal((40, 30))),
                                     DataMatrix(values=rng.standard_normal((40, 50))))
        before = {name: getattr(pair, name).copy() for name in ("r_b", "r_f", "mean_b", "mean_f")}
        bank = fit_cpcapp(pair, 3)
        assert all(getattr(pair, name).tobytes() == v.tobytes() for name, v in before.items())
        in_place = fit_cpcapp(pair, 3, overwrite=True)
        assert in_place.f.tobytes() == bank.f.tobytes()
        assert in_place.eigenvalues.tobytes() == bank.eigenvalues.tobytes()
        l_inv = whitener(before["r_b"], pair.loading)
        assert pair.r_f.tobytes() == symmetrize_((l_inv @ before["r_f"]) @ l_inv.T).tobytes()
        for name in ("r_b", "mean_b", "mean_f"):
            assert getattr(pair, name).tobytes() == before[name].tobytes(), name

    def test_identity_background(self, rng):
        from cpcapp import CovariancePair

        z = rng.standard_normal((5, 5))
        r_f = z @ z.T
        pair = CovariancePair(r_b=np.eye(5), r_f=r_f, loading=0.0, n_b=10, n_f=10,
                              mean_b=np.zeros(5), mean_f=np.zeros(5))
        bank = fit_cpcapp(pair, 5)
        direct = sym_eig(r_f, 5)
        np.testing.assert_allclose(bank.eigenvalues, direct.values, atol=1e-9)
        np.testing.assert_allclose(np.abs(bank.f), np.abs(direct.vectors), atol=1e-7)

    def test_planted_direction(self):
        pair, c, _ = analytic_pair()
        bank = fit_cpcapp(pair, 1)
        assert abs(bank.f[:, 0] @ c) >= 0.99

    def test_four_class_recovers_closed_form(self):
        from cpcapp import oracle_four_class_filters

        fg, bg = gen_four_class(33, 400, 400)
        bank = fit_cpcapp(build_covariance_pair(bg, fg.data), 2)
        u = oracle_four_class_filters()
        assert abs(bank.f[:, 0] @ u[:, 0]) >= 0.95
        assert abs(bank.f[:, 1] @ u[:, 1]) >= 0.95

    def test_eigen_residuals(self, rng):
        fg = DataMatrix(values=rng.standard_normal((7, 60)))
        bg = DataMatrix(values=rng.standard_normal((7, 60)))
        pair = build_covariance_pair(bg, fg)
        bank = fit_cpcapp(pair, 4)
        q = np.linalg.solve(pair.r_b + pair.loading * np.eye(7), pair.r_f)
        for i in range(4):
            resid = q @ bank.f[:, i] - bank.eigenvalues[i] * bank.f[:, i]
            assert np.linalg.norm(resid) <= 1e-6 * (1 + bank.eigenvalues[i])
        assert np.all(np.diff(bank.eigenvalues) <= 1e-12)

    def test_background_scale_equivariance(self, rng):
        fg = DataMatrix(values=rng.standard_normal((6, 90)))
        bg_values = rng.standard_normal((6, 90))
        pair1 = build_covariance_pair(DataMatrix(values=bg_values), fg)
        pair2 = build_covariance_pair(DataMatrix(values=2.0 * bg_values), fg)
        bank1 = fit_cpcapp(pair1, 3)
        bank2 = fit_cpcapp(pair2, 3)
        assert principal_angles(bank1.f, bank2.f).max() < 1e-8
        np.testing.assert_allclose(bank2.eigenvalues, bank1.eigenvalues / 4.0, rtol=1e-9)

    def test_one_sample_foreground_raises(self, rng):
        pair = build_covariance_pair(DataMatrix(values=rng.standard_normal((4, 30))),
                                     DataMatrix(values=rng.standard_normal((4, 1))))
        with pytest.raises(DefinitenessError, match="foreground has no variance"):
            fit_cpcapp(pair, 2)

    @pytest.mark.parametrize("scale", [1e-158, 1e-160])
    def test_subnormal_loading_scale_raises(self, rng, scale):
        # rank-deficient 6x3 background: tr/M ~ scale^2, loading 1e-6 * tr/M
        # would be subnormal (1e-158) or zero (1e-160)
        bg = DataMatrix(values=scale * rng.standard_normal((6, 3)))
        fg = DataMatrix(values=scale * rng.standard_normal((6, 20)))
        with pytest.raises(DefinitenessError,
                           match="background has no variance.*tr/M = .*rescale the data"):
            build_covariance_pair(bg, fg)

    def test_tiny_normal_loading_scale_fits(self, rng):
        bg = DataMatrix(values=1e-150 * rng.standard_normal((6, 3)))
        fg = DataMatrix(values=1e-150 * rng.standard_normal((6, 20)))
        pair = build_covariance_pair(bg, fg)
        assert pair.loading >= np.finfo(float).tiny
        bank = fit_cpcapp(pair, 2)
        np.testing.assert_allclose(np.linalg.norm(bank.f, axis=0), 1.0, rtol=1e-12)
        assert bank.eigenvalues[-1] > 0

    def test_exactly_one_decomposition(self, rng):
        fg = DataMatrix(values=rng.standard_normal((6, 50)))
        bg = DataMatrix(values=rng.standard_normal((6, 50)))
        pair = build_covariance_pair(bg, fg)
        with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
            fit_cpcapp(pair, 2)
        assert eigh.call_count == 1


# Fits textured digits (seed 1, 400+400): cpca++ and the sweep over every
# 8th point of the default grid. Saves both fits' filters, the pick, and the
# symmetric matrix each fit diagonalizes (S = L^-1 r_f L^-T for cpca++, with
# L^-1; the picked contrast matrix for the sweep) with its eigvalsh spectrum,
# to the .npz named by argv[1].
_THREAD_CHILD = """
import sys
import numpy as np
import cpcapp as cp
from cpcapp.linalg import symmetrize_, whitener
fg, bg, _ = cp.gen_textured_digits(1, 400, 400)
pair = cp.build_covariance_pair(bg, fg.data)
alphas = cp.default_alpha_grid()[::8]
banks = [cp.fit_cpca(pair, 3, alpha) for alpha in alphas]
pick = int(np.argmax(cp.glrt_statistic(pair, np.stack([b.f for b in banks]))))
l_inv = whitener(pair.r_b, pair.loading)
s = symmetrize_((l_inv @ pair.r_f) @ l_inv.T)
c = pair.r_f - alphas[pick] * pair.r_b
np.savez(sys.argv[1], f_pp=cp.fit_cpcapp(pair, 3).f, f_sweep=banks[pick].f, pick=pick,
         l_inv=l_inv, s=s, c=c, eig_s=np.linalg.eigvalsh(s), eig_c=np.linalg.eigvalsh(c))
"""


def davis_kahan(a1, a2, values, k):
    """Bound on the largest principal sine between top-k eigenvector spans of a1 and a2.

    ``values`` is ``eigvalsh(a1)``. The sin-theta theorem of Davis & Kahan
    (1970) gives ``sin(theta) <= ||E|| / delta``. ``E`` is ``a2 - a1`` plus
    each eigensolver's backward error (taken as ``m eps ||a1||`` per solve).
    ``delta`` is the eigengap ``l_k - l_{k+1}`` of ``a1`` less ``||E||``
    (Weyl), which separates the kept spectrum of one from the rest of the other.
    """
    m = a1.shape[0]
    e = np.linalg.norm(a1 - a2, 2) + 2 * m * np.finfo(float).eps * np.abs(values).max()
    delta = values[-k] - values[-k - 1] - e
    assert delta > 0, "eigengap closed by the perturbation"
    return e / delta


class TestThreadCountDeterminism:
    def test_one_and_two_blas_threads_agree(self, tmp_path):
        # README: bytes may differ across BLAS thread counts, but not the fit
        src = str(Path(cpcapp.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.npz"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-c", _THREAD_CHILD, str(out)],
                           env=env, check=True, timeout=300)
            runs.append(np.load(out))
        one, two = runs
        k = one["f_pp"].shape[1]
        assert int(one["pick"]) == int(two["pick"])
        # the sweep's filters are the contrast matrix's eigenvectors
        assert (principal_angles(one["f_sweep"], two["f_sweep"]).max()
                <= davis_kahan(one["c"], two["c"], one["eig_c"], k))
        # cpca++: S's eigenvectors x = L^T f, then the back-map f = L^-T x. With
        # G = L1^T L2^-T - I, span(f2) = L1^-T span((I + G) x2), and a map T
        # grows a principal sine by at most cond(T)
        x1, x2 = (scipy.linalg.solve_triangular(run["l_inv"].T, run["f_pp"])
                  for run in (one, two))
        sine_x = davis_kahan(one["s"], two["s"], one["eig_s"], k)
        assert principal_angles(x1, x2).max() <= sine_x
        g = np.linalg.norm(scipy.linalg.solve_triangular(one["l_inv"].T, two["l_inv"].T)
                           - np.eye(x1.shape[0]), 2)
        assert g < 1
        sine_f = np.linalg.cond(one["l_inv"]) * (sine_x + g / (1 - g))
        assert principal_angles(one["f_pp"], two["f_pp"]).max() <= sine_f


def _splice_pair(seed=1, count=8):
    """The train-splice pair of a few 128^2 probes."""
    from cpcapp import gen_spliced_image, splice_pair

    return splice_pair((s, *gen_spliced_image(s, 128, 128)[:2])
                       for s in cpcapp.SplitMix64(seed).spawn_seeds(count))


def _four_class_pair():
    fg, bg = gen_four_class(5, 400, 400)
    return build_covariance_pair(bg, fg.data)


def _haystack_pair():
    from cpcapp import sample_haystack

    fg, bg = sample_haystack(5, 400, 400)
    return build_covariance_pair(bg, fg)


def _digits_pair():
    fg, bg, _ = gen_textured_digits(1, 800, 800)
    return build_covariance_pair(bg, fg.data)


BRIDGE_PAIRS = {"four-class": _four_class_pair, "haystack": _haystack_pair,
                "textured-digits": _digits_pair, "spliced-image": _splice_pair}


@pytest.fixture(scope="class")
def bridge():
    """A generator's pair and cPCA++'s first four filters on it, built once per class."""
    @functools.cache
    def build(kind):
        pair = BRIDGE_PAIRS[kind]()
        return pair, fit_cpcapp(pair, 4)

    return build


class TestCpcaBridge:
    """cPCA at alpha = lambda_i, cPCA++'s i-th eigenvalue, gives cPCA++'s filter v_i as its i-th.

    With B = r_b + rho I = L L^T, r_f - lambda_i B = L (S - lambda_i I) L^T is
    congruent to the whitened S - lambda_i I. By Sylvester's inertia it has
    exactly i - 1 positive eigenvalues, and v_i spans its null space when
    lambda_i is simple; fit_cpca's unloaded r_b only shifts that spectrum by
    lambda_i rho. So v_i is the i-th eigenvector of fit_cpca's contrast
    C = r_f - lambda_i r_b, with eigenvalue mu = lambda_i rho.

    The bounds rest on measurements, not on a model of the eigensolver's
    rounding. The full eigensolve of C that fit_cpca runs, (theta, V), has a
    measured residual R = C V - V diag(theta) and a measured loss of
    orthogonality E = V^T V - I; with V = U P its polar form, U^T C U =
    diag(theta) + G and ||G|| <= (||R|| + 2 ||E|| ||theta||) / sqrt(1 - ||E||),
    so by Weyl each eigenvalue of C lies within ||G|| of its theta. A unit
    vector x with residual r = C x - t x lies within ||r|| of an eigenvalue of
    C, and its sine to the j-th eigenvector is at most ||r|| over the distance
    from t to the other eigenvalues, which the computed spectrum less ||G||
    bounds below. That bounds the sines of v_i and of fit_cpca's i-th filter
    to the i-th eigenvector of C, and their sum bounds the sine between them.
    Where each residual is below its gap, the eigenvalue it is near is the
    i-th, so mu and fit_cpca's i-th eigenvalue lie within the sum of the two
    residuals. Each residual is taken in long double and raised by its
    forward error bound, so another LAPACK moves the bounds with its own
    rounding rather than failing them. Haystack's lambda_3 is not simple
    (lambda_3 = lambda_4 = 0 up to rounding), so i = 3 is not checked there.
    """

    @staticmethod
    def _bound(pair, cpcapp_bank, i):
        """Bounds on the sine between v_i and fit_cpca(pair, i, lambda_i)'s i-th
        filter, and on the distance of its i-th eigenvalue from lambda_i rho."""
        lam = cpcapp_bank.eigenvalues[i - 1]
        c = pair.r_f - lam * pair.r_b  # fit_cpca's contrast, bit for bit
        full = sym_eig(c, c.shape[0])  # and its eigensolve, of which it keeps the first i
        theta, vectors = full.values, full.vectors
        m, eps = c.shape[0], np.finfo(float).eps

        def slack(n, u, *terms):
            """Higham's gamma_n (unit roundoff u) times the norm of the summed |terms|:
            how far rounding can move a computed sum of n products of them."""
            return np.linalg.norm(sum(terms)) * n * u / (1 - n * u)

        spread = np.linalg.norm(c @ vectors - vectors * theta) + slack(
            m + 2, eps, np.abs(c) @ np.abs(vectors), np.abs(vectors) * np.abs(theta))
        skew = np.linalg.norm(vectors.T @ vectors - np.eye(m)) + slack(
            m + 1, eps, np.abs(vectors.T) @ np.abs(vectors), np.eye(m))
        assert skew < 1
        weyl = (spread + 2 * skew * np.abs(theta).max()) / np.sqrt(1 - skew)
        c_long, ulp = c.astype(np.longdouble), np.finfo(np.longdouble).eps

        def residual(x, t):
            """An upper bound on ||c x - t x|| / ||x||."""
            x = x.astype(np.longdouble)
            r = np.linalg.norm(c_long @ x - t * x) + slack(
                m + 2, ulp, np.abs(c_long) @ np.abs(x), abs(t) * np.abs(x))
            return float(r / np.linalg.norm(x))

        def gap(t):
            """A lower bound on the distance from t to C's eigenvalues other than the i-th."""
            return np.abs(np.delete(theta, i - 1) - t).min() - weyl

        mu = lam * pair.loading
        r_v, gap_v = residual(cpcapp_bank.f[:, i - 1], mu), gap(mu)
        r_c, gap_c = residual(vectors[:, i - 1], theta[i - 1]), gap(theta[i - 1])
        assert r_v < gap_v and r_c < gap_c, "eigengap closed by the residuals"
        return r_v / gap_v + r_c / gap_c, r_v + r_c

    def _check(self, pair, cpcapp_bank, i):
        lam = cpcapp_bank.eigenvalues[i - 1]
        bound, residual = self._bound(pair, cpcapp_bank, i)
        assert bound < 1e-3  # the bound says something
        bank = fit_cpca(pair, i, lam)
        # the computed sine's own rounding, to first order
        rounding = (pair.r_f.shape[0] + 3) * np.finfo(float).eps
        assert principal_angles(bank.f[:, i - 1:i], cpcapp_bank.f[:, i - 1:i]).max() <= (
            bound + rounding)
        assert abs(bank.eigenvalues[i - 1] - lam * pair.loading) <= residual

    @pytest.mark.parametrize("kind", BRIDGE_PAIRS)
    def test_contrast_at_top_eigenvalue_gives_cpcapp_filter(self, bridge, kind):
        self._check(*bridge(kind), 1)

    @pytest.mark.parametrize("kind, i", [(kind, i) for kind in BRIDGE_PAIRS for i in (2, 3)
                                         if (kind, i) != ("haystack", 3)])
    def test_contrast_at_ith_eigenvalue_gives_ith_filter(self, bridge, kind, i):
        self._check(*bridge(kind), i)

    @pytest.mark.parametrize("kind", BRIDGE_PAIRS)
    def test_no_single_alpha_gives_two_filters(self, bridge, kind):
        # (r_f - alpha r_b) v_2 = (lambda_2 - alpha) B v_2 + alpha rho v_2, so v_2
        # is a contrast eigenvector only at alpha = lambda_2 or where B v_2 is
        # parallel to v_2
        pair, cpcapp_bank = bridge(kind)
        bank = fit_cpca(pair, 2, cpcapp_bank.eigenvalues[0])
        sine = principal_angles(bank.f, cpcapp_bank.f[:, :2]).max()
        assert sine > 100 * self._bound(pair, cpcapp_bank, 1)[0]


class TestTransform:
    def test_axis_filter(self):
        from cpcapp import FilterBank

        bank = FilterBank(method="pca", f=np.array([[1.0], [0.0]]),
                          train_mean_bg=np.zeros(2), train_mean_fg=np.zeros(2),
                          eigenvalues=np.array([1.0]), loading=0.0)
        data = DataMatrix(values=np.array([[2.0, -2.0], [5.0, -5.0]]))
        proj = transform(bank, data)
        np.testing.assert_array_equal(proj, [[2.0, -2.0]])

    def test_full_rank_isometry(self, rng):
        data = DataMatrix(values=rng.standard_normal((5, 40)))
        bank = fit_pca(data, 5)
        proj = transform(bank, data)
        centered = data.values - data.values.mean(axis=1, keepdims=True)
        assert np.linalg.norm(proj) == pytest.approx(np.linalg.norm(centered), rel=1e-12)

    def test_four_class_embedding_separates(self):
        fg, bg = gen_four_class(33, 2000, 2000)
        bank = fit_cpcapp(build_covariance_pair(bg, fg.data), 2)
        proj = transform(bank, fg.data)
        centroids = np.stack([proj[:, fg.labels == k].mean(axis=1) for k in range(4)])
        dists = [np.linalg.norm(centroids[i] - centroids[j])
                 for i in range(4) for j in range(i + 1, 4)]
        within = np.mean([proj[:, fg.labels == k].std(axis=1).mean() for k in range(4)])
        assert min(dists) > 3.0 * within

    def test_rejects_feature_mismatch(self, rng):
        data = DataMatrix(values=rng.standard_normal((5, 10)))
        bank = fit_pca(data, 2)
        from cpcapp import ShapeError

        with pytest.raises(ShapeError):
            transform(bank, DataMatrix(values=rng.standard_normal((4, 10))))

    @pytest.mark.parametrize("n", [1, 2, 4095, 4096, 4097, 8193, 16129])
    def test_column_blocks_match_one_shot_product(self, rng, n):
        # near-equal blocks never leave a single column (gemv) unless n = 1,
        # so every block takes gemm and the bits equal the one-shot product
        from cpcapp import FilterBank

        m, k = 192, 6
        f, _ = np.linalg.qr(rng.standard_normal((m, k)))
        bank = FilterBank(method="pca", f=f, train_mean_bg=np.zeros(m),
                          train_mean_fg=rng.standard_normal(m) + 128.0,
                          eigenvalues=np.arange(float(k), 0.0, -1.0), loading=0.0)
        data = DataMatrix(values=40.0 * rng.standard_normal((m, n)) + 128.0)
        want = bank.f.T @ (data.values - data.values.mean(axis=1)[:, None])
        assert transform(bank, data).tobytes() == want.tobytes()
        norms = np.sum(want ** 2, axis=0)
        scores = norms / norms.max() if norms.max() else norms  # one sample is its own mean
        assert score_patches(bank, data).tobytes() == scores.tobytes()


class TestDefaults:
    def test_alpha_grid_shape(self):
        grid = default_alpha_grid()
        assert grid.shape == (41,)
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(1e3)
        assert np.all(np.diff(grid) > 0)


class TestFilterBankValidation:
    def _args(self):
        return dict(train_mean_bg=np.zeros(3), train_mean_fg=np.zeros(3),
                    eigenvalues=np.array([2.0, 1.0]), loading=0.0)

    def test_rejects_non_unit_columns(self):
        from cpcapp import FilterBank

        f = np.eye(3)[:, :2] * 2.0
        with pytest.raises(ArgumentError):
            FilterBank(method="pca", f=f, **self._args())

    def test_rejects_ascending_eigenvalues(self):
        from cpcapp import FilterBank

        args = self._args()
        args["eigenvalues"] = np.array([1.0, 2.0])
        with pytest.raises(ArgumentError):
            FilterBank(method="pca", f=np.eye(3)[:, :2], **args)

    def test_owns_a_copy_of_its_filters(self):
        from cpcapp import FilterBank

        vectors = np.eye(3)
        bank = FilterBank(method="pca", f=vectors[:, :2], **self._args())
        assert not np.shares_memory(bank.f, vectors)
        np.testing.assert_array_equal(bank.f, vectors[:, :2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["f", "train_mean_bg", "train_mean_fg", "eigenvalues",
                                       "loading", "alpha"])
    def test_rejects_non_finite_values(self, field, bad):
        from cpcapp import FilterBank

        args = dict(self._args(), f=np.eye(3)[:, :2], method="cpca", alpha=1.0)
        if field in ("loading", "alpha"):
            args[field] = bad
        else:
            args[field] = args[field].copy()
            args[field][-1] = bad  # the last eigenvalue keeps the order check quiet
        with pytest.raises(ArgumentError, match="values must be finite"):
            FilterBank(**args)

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1)])  # M - 1, M + 1, a column
    @pytest.mark.parametrize("field", ["train_mean_bg", "train_mean_fg"])
    def test_rejects_training_means_not_of_length_m(self, field, shape):
        from cpcapp import FilterBank, ShapeError

        args = dict(self._args(), **{field: np.zeros(shape)})
        with pytest.raises(ShapeError, match=r"training means must have shape \(3,\)"):
            FilterBank(method="pca", f=np.eye(3)[:, :2], **args)

    def test_rejects_negative_loading(self):
        from cpcapp import FilterBank

        with pytest.raises(ArgumentError, match="loading"):
            FilterBank(method="pca", f=np.eye(3)[:, :2], **dict(self._args(), loading=-5.0))

    def test_alpha_only_for_contrastive(self):
        from cpcapp import FilterBank

        with pytest.raises(ArgumentError):
            FilterBank(method="pca", f=np.eye(3)[:, :2], alpha=1.0, **self._args())
        with pytest.raises(ArgumentError):
            FilterBank(method="cpca", f=np.eye(3)[:, :2], **self._args())
