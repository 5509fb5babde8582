"""Eigen-machinery contracts, with scipy's general solver as the cross-check."""

import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

import cpcapp

from cpcapp import (
    ArgumentError,
    DefinitenessError,
    ShapeError,
    auto_loading,
    diagonal_load,
    q_eig,
    sym_eig,
)
from cpcapp.linalg import BAND_ROWS, TRI_INV_LEAF, _tri_inv, symmetrize_, whitener

from conftest import principal_angles, random_psd, random_spd, traced_peak


class TestSymEig:
    def test_diagonal(self):
        res = sym_eig(np.diag([3.0, 1.0]), 2)
        np.testing.assert_allclose(res.values, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(res.vectors), np.eye(2), atol=1e-14)

    def test_exchange_matrix(self):
        res = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
        np.testing.assert_allclose(res.values, [1.0, -1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(res.vectors), [[s, s], [s, s]], atol=1e-12)

    def test_reconstruction_6x6(self, rng):
        a = rng.standard_normal((6, 6))
        a = (a + a.T) / 2
        res = sym_eig(a, a.shape[0])
        recon = res.vectors @ np.diag(res.values) @ res.vectors.T
        assert np.linalg.norm(recon - a) <= 1e-8 * (np.linalg.norm(a) + 1)

    @pytest.mark.parametrize("m", [2, 3, 5, 10, 20, 50])
    def test_reconstruction_sizes(self, rng, m):
        a = rng.standard_normal((m, m))
        a = (a + a.T) / 2
        res = sym_eig(a, a.shape[0])
        recon = res.vectors @ np.diag(res.values) @ res.vectors.T
        assert np.linalg.norm(recon - a, "fro") <= 1e-7 * (np.linalg.norm(a, "fro") + 1)

    def test_descending_and_unit_norm(self, rng):
        res = sym_eig(random_spd(rng, 12), 12)
        assert np.all(np.diff(res.values) <= 0)
        np.testing.assert_allclose(np.linalg.norm(res.vectors, axis=0), 1.0, atol=1e-12)

    def test_sign_convention_deterministic(self, rng):
        a = random_spd(rng, 9)
        r1, r2 = sym_eig(a, 9), sym_eig(a.copy(), 9)
        assert np.array_equal(r1.vectors, r2.vectors)
        peaks = r1.vectors[np.argmax(np.abs(r1.vectors), axis=0), np.arange(9)]
        assert np.all(peaks > 0)

    @pytest.mark.parametrize("k", [1, 3, 11])
    def test_top_k_is_a_bitwise_prefix_of_the_full_spectrum(self, rng, k):
        a = random_spd(rng, 12)
        full, top = sym_eig(a, 12), sym_eig(a, k)
        assert top.values.tobytes() == full.values[:k].tobytes()
        assert top.vectors.tobytes() == full.vectors[:, :k].tobytes()

    @pytest.mark.parametrize("k", [0, 4])
    def test_rejects_k_out_of_range(self, k):
        with pytest.raises(ArgumentError, match=r"k must be in \[1, 3\]"):
            sym_eig(np.eye(3), k)

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            sym_eig(np.ones((2, 3)), 2)

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]), 2)


class TestDiagonalLoad:
    def test_zeros(self):
        np.testing.assert_array_equal(diagonal_load(np.zeros((2, 2)), 1.0), np.eye(2))

    def test_noop(self):
        np.testing.assert_array_equal(diagonal_load(np.eye(3), 0.0), np.eye(3))

    @pytest.mark.parametrize("rho", [0.0, 1e-6, 2.5])
    def test_keeps_bytes_of_identity_sum(self, rng, rho):
        a = rng.standard_normal((7, 7))
        a[a > 0.5] = -0.0
        assert diagonal_load(a, rho).tobytes() == (a + rho * np.eye(7)).tobytes()

    def test_holds_one_matrix(self, rng):
        # a copy with rho added on its diagonal, no identity matrix; at this
        # size numpy does not reuse temporaries, so rho * I would cost two more
        a = rng.standard_normal((100, 100))
        peak = traced_peak(lambda: diagonal_load(a, 0.5))
        assert peak <= 1.5 * a.nbytes

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
        direct = sym_eig(r_f, 5)
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
        ref = sym_eig((whitened + whitened.T) / 2, 7)
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
        with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
            q_eig(r_b, r_f, 3)
        assert eigh.call_count == 1


class TestQEigAgainstScipy:
    """``q_eig(r_b, r_f, k, loading)`` against ``scipy.linalg.eigh(r_f, B)`` (LAPACK sygvd).

    ``B = r_b + loading * I`` is the loaded background. ``r_f`` is a
    fixed-size Wishart matrix (condition about 30). With A = r_f, both solvers
    are backward stable: each returns the exact answer for A + dA, B + dB
    with ||dA|| <= p(m) eps ||A||, ||dB|| <= p(m) eps ||B||, taking p(m) = m.
    The tolerances are their first-order consequences, doubled because both
    solvers err; ``||B|| ||B^-1|| = cond(B)`` is what they grow with:

    - eigenvalues (Weyl's inequality for the whitened pencil):
      |l_i - l'_i| <= 2 m eps (||A|| + |l_i| ||B||) ||B^-1||;
    - top-k subspace (LAPACK Users' Guide, section 4.10.1):
      sin(theta_max) <= 2 m eps ||A|| ||B^-1|| cond(B)^(1/2) / (l_k - l_{k+1}).
    """

    M, K = 40, 4

    def assert_agrees(self, gen, r_b, loading):
        m, k = self.M, self.K
        g = gen.standard_normal((m, 2 * m))
        r_f = g @ g.T / (2 * m)
        res = q_eig(r_b, r_f, k, loading=loading)
        b = r_b + loading * np.eye(m)
        values, vectors = scipy.linalg.eigh(r_f, b)
        values, vectors = values[::-1], vectors[:, ::-1]

        eps = np.finfo(float).eps
        a_norm, b_norm = np.linalg.norm(r_f, 2), np.linalg.norm(b, 2)
        b_inv_norm = np.linalg.norm(np.linalg.inv(b), 2)
        value_tol = 2 * m * eps * (a_norm + values[:k] * b_norm) * b_inv_norm
        assert np.all(np.abs(res.values - values[:k]) <= value_tol)
        angle_tol = (2 * m * eps * a_norm * b_inv_norm * np.sqrt(b_norm * b_inv_norm)
                     / (values[k - 1] - values[k]))
        assert principal_angles(res.vectors, vectors[:, :k]).max() <= angle_tol

    @pytest.mark.parametrize("log_kappa", range(11))
    @pytest.mark.parametrize("seed", range(2))
    def test_top_k_agree_within_conditioning_bounds(self, log_kappa, seed):
        # full rank, cond(r_b) = 10^log_kappa, no loading
        m = self.M
        gen = np.random.default_rng([log_kappa, seed])
        q, _ = np.linalg.qr(gen.standard_normal((m, m)))
        r_b = (q * np.logspace(0, -log_kappa, m)) @ q.T
        self.assert_agrees(gen, (r_b + r_b.T) / 2, 0.0)

    @pytest.mark.parametrize("rank", [1, 10, 20, 39])
    def test_loaded_rank_deficient_background(self, rank):
        # the loading auto_loading picks makes cond(B) about 1e6 * M / rank
        gen = np.random.default_rng(rank)
        g = gen.standard_normal((self.M, rank))
        r_b = g @ g.T / rank
        loading = auto_loading(r_b)
        assert loading > 0
        self.assert_agrees(gen, r_b, loading)

    def test_loading_argument_matches_a_loaded_copy(self, rng):
        r_b = random_psd(rng, 9, rank=4)
        r_f = random_psd(rng, 9)
        loaded = q_eig(diagonal_load(r_b, 0.1), r_f, 3)
        own = q_eig(r_b, r_f, 3, loading=0.1)
        assert own.values.tobytes() == loaded.values.tobytes()
        assert own.vectors.tobytes() == loaded.vectors.tobytes()


class TestTriInv:
    """The block inverse of a lower-triangular matrix, leaves by ``np.linalg.inv``.

    Block triangular inversion is backward stable in the sense
    ``||L X - I|| <= p(m) eps ||L|| ||X||`` (Higham, Accuracy and Stability
    of Numerical Algorithms, section 14.2), taking p(m) = m.
    """

    @pytest.mark.parametrize("m", [1, TRI_INV_LEAF - 1, TRI_INV_LEAF, TRI_INV_LEAF + 1,
                                   2 * TRI_INV_LEAF + 1, 784])
    @pytest.mark.parametrize("jitter", [1e-3, 1.0])
    def test_inverts_a_cholesky_factor(self, rng, m, jitter):
        l = np.linalg.cholesky(random_spd(rng, m, jitter=jitter))
        inv = _tri_inv(l)
        assert inv.shape == (m, m)
        assert not np.triu(inv, 1).any()
        eps = np.finfo(float).eps
        resid = np.linalg.norm(l @ inv - np.eye(m), 2)
        assert resid <= m * eps * np.linalg.norm(l, 2) * np.linalg.norm(inv, 2)

    def test_whitener_whitens_the_loaded_matrix(self, rng):
        r_b = random_psd(rng, 70, rank=30)
        l_inv = whitener(r_b, 0.5)
        whitened = l_inv @ diagonal_load(r_b, 0.5) @ l_inv.T
        np.testing.assert_allclose(whitened, np.eye(70), atol=1e-12)

    def test_whitener_rejects_indefinite(self):
        with pytest.raises(DefinitenessError, match="pooled covariance is not positive"):
            whitener(np.diag([1.0, -1.0]), 0.5, "pooled covariance")


class TestSymmetrize:
    @pytest.mark.parametrize("m", [1, BAND_ROWS - 1, BAND_ROWS, BAND_ROWS + 1,
                                   2 * BAND_ROWS + 1])
    def test_bit_identical_to_out_of_place_mean(self, rng, m):
        a = rng.standard_normal((m, m))
        a[rng.random((m, m)) < 0.2] = -0.0
        a[rng.random((m, m)) < 0.1] = 0.0
        # signed zeros on and across the band edges: -0.0 paired with -0.0 stays
        # -0.0, paired with +0.0 becomes +0.0
        edge = min(BAND_ROWS, m - 1)
        a[edge, 0] = a[0, edge] = -0.0
        a[m - 1, edge - 1] = -0.0
        a[edge - 1, m - 1] = 0.0
        expected = (a + a.T) / 2
        out = symmetrize_(a)
        assert out is a
        assert out.tobytes() == expected.tobytes()

    def test_holds_no_square_copy(self, rng):
        m = 400
        a = rng.standard_normal((m, m))
        assert traced_peak(lambda: symmetrize_(a)) <= 2 * BAND_ROWS * m * 8


def _general_solves(source: str) -> list[int]:
    """Line numbers of ``np.linalg.solve``/``numpy.linalg.solve`` uses in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "solve"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
              and any(alias.name == "solve" for alias in node.names)):
            lines.append(node.lineno)
    return lines


class TestNoGeneralSolve:
    """Whitening multiplies by an inverted Cholesky factor; no LU solve runs.

    A general solve re-factors what the Cholesky factor already gives, and
    its 2 M x M LAPACK buffer raises glibc's dynamic mmap threshold, which
    then keeps every later covariance-sized array on a heap that is not
    trimmed.
    """

    def test_package_calls_no_general_solve(self):
        package = Path(cpcapp.__file__).parent
        found = {path.name: lines for path in sorted(package.glob("*.py"))
                 if (lines := _general_solves(path.read_text()))}
        assert found == {}

    @pytest.mark.parametrize("source", [
        "import numpy as np\nx = np.linalg.solve(a, b)",
        "import numpy\nf = numpy.linalg.solve",
        "from numpy.linalg import inv, solve",
    ])
    def test_check_finds_a_solve(self, source):
        assert _general_solves(source)


_EIGENSOLVERS = ("eigh", "eigvalsh")


def _eigensolver_uses(source: str) -> list[tuple[str, str, int]]:
    """``(enclosing function, solver, line)`` of each ``eigh``/``eigvalsh`` of
    ``numpy.linalg`` referenced in ``source``; the scope is ``""`` at module level."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Attribute) and node.attr in _EIGENSOLVERS
                and (isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                     or isinstance(node.value, ast.Name) and node.value.id == "linalg")):
            uses.append((scope, node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            uses.extend((scope, alias.name, node.lineno) for alias in node.names
                        if alias.name in _EIGENSOLVERS)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return uses


class TestOneEigensolver:
    """``linalg.sym_eig`` is the package's one symmetric eigensolver call.

    So a fit's decompositions are its ``sym_eig`` calls, and wrapping
    ``numpy.linalg.eigh`` counts all of them, as the count tests do.
    """

    def test_only_sym_eig_calls_eigh(self):
        package = Path(cpcapp.__file__).parent
        found = {path.name: [use[:2] for use in uses] for path in sorted(package.glob("*.py"))
                 if (uses := _eigensolver_uses(path.read_text()))}
        assert found == {"linalg.py": [("sym_eig", "eigh")]}

    @pytest.mark.parametrize("source, uses", [
        ("import numpy as np\ndef sym_eig(a):\n    return np.linalg.eigh(a)\n"
         "def fit(a):\n    return np.linalg.eigh(a)",
         [("sym_eig", "eigh", 3), ("fit", "eigh", 5)]),
        ("from numpy.linalg import eigvalsh", [("", "eigvalsh", 1)]),
        ("import numpy\nclass A:\n    def f(self, a):\n        return numpy.linalg.eigvalsh(a)",
         [("A.f", "eigvalsh", 4)]),
        ("from numpy import linalg\ndef sym_eig(a):\n    return linalg.eigvalsh(a)",
         [("sym_eig", "eigvalsh", 3)]),
    ], ids=["eigh-outside-sym_eig", "from-import-eigvalsh", "eigvalsh-in-a-method",
            "eigvalsh-in-sym_eig"])
    def test_check_finds_each_eigensolver(self, source, uses):
        assert _eigensolver_uses(source) == uses


class TestEigenResultValidation:
    def test_rejects_count_mismatch(self):
        from cpcapp import EigenResult

        with pytest.raises(ShapeError):
            EigenResult(values=np.array([1.0]), vectors=np.eye(2))

    def test_rejects_ascending_values(self):
        from cpcapp import EigenResult

        with pytest.raises(ArgumentError):
            EigenResult(values=np.array([1.0, 2.0]), vectors=np.eye(2))
