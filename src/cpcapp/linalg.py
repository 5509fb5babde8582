"""Dense symmetric eigen-machinery and the background-whitened eigenproblem.

Everything here operates on plain float64 ``numpy`` arrays (row-major).
Eigenvalues are always returned in descending order and eigenvectors carry a
deterministic sign (largest-magnitude component positive, ties resolved at
the lowest index), so repeated runs on identical input are bit-identical.

One eigensolver rule: :func:`sym_eig` is the only code in the package that
calls ``np.linalg.eigh``, and nothing calls ``np.linalg.eigvalsh``, so a fit
spends exactly one symmetric eigendecomposition per :func:`sym_eig` call (one
for PCA and for :func:`q_eig`, one per grid point for the contrast sweep).
The loading decision uses a Cholesky test, and whitening (:func:`q_eig`, the
detection statistic) multiplies by the inverse of a Cholesky factor
(:func:`whitener`). No general linear solve is run. Tests check both rules
on the package source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DefinitenessError, ShapeError, ArgumentError

# Relative asymmetry tolerated before an input is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-9

# Auto-loading rule, shared with the statistics module: load when the smallest
# eigenvalue of a background covariance drops below EPS_FLOOR_SCALE * tr/M,
# using rho = LOADING_SCALE * tr/M.
EPS_FLOOR_SCALE = 1e-10
LOADING_SCALE = 1e-6

# Rows per band of the in-place symmetrization, and the largest triangular
# block inverted by LAPACK rather than split further.
BAND_ROWS = 64
TRI_INV_LEAF = 64

@dataclass(frozen=True, eq=False)
class EigenResult:
    """Eigenvalues (descending) paired with unit-norm eigenvector columns."""

    values: np.ndarray   # shape (k,)
    vectors: np.ndarray  # shape (m, k); column i pairs with values[i]

    def __post_init__(self):
        if self.values.ndim != 1 or self.vectors.ndim != 2:
            raise ShapeError("EigenResult expects a 1-D value vector and 2-D vector matrix")
        if self.values.shape[0] != self.vectors.shape[1]:
            raise ShapeError(
                f"{self.values.shape[0]} eigenvalues but {self.vectors.shape[1]} vector columns"
            )
        if np.any(np.diff(self.values) > 0):
            raise ArgumentError("eigenvalues must be sorted in descending order")


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    return a


def _require_symmetric(a: np.ndarray, name: str = "matrix") -> None:
    # max|a| from two reductions and |a - a^T| in one buffer: no M x M copy of |a|
    scale = max(a.max(), -a.min()) if a.size else 0.0
    asym = a - a.T
    np.abs(asym, out=asym)
    if np.max(asym, initial=0.0) > SYMMETRY_RTOL * scale:
        raise ShapeError(f"{name} is not symmetric within tolerance")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns in place so the largest-magnitude entry of each is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)  # argmax takes the lowest index on ties
    flip = vectors[idx, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] *= -1.0
    return vectors


def sym_eig(a, k: int) -> EigenResult:
    """The k largest eigenpairs of a real symmetric matrix.

    Values come back descending with a stable tie order; vectors are
    orthonormal columns with the deterministic sign convention. The solve is
    always the full one; only the k kept columns are copied out, and they are
    bit-identical to the first k of a full decomposition (pass ``k = M``).
    """
    a = _as_square(a)
    m = a.shape[0]
    if not 1 <= k <= m:
        raise ArgumentError(f"k must be in [1, {m}], got {k}")
    _require_symmetric(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed to converge: {exc}") from exc
    order = np.argsort(-values, kind="stable")[:k]
    return EigenResult(values=values[order], vectors=_fix_signs(vectors[:, order]))


def symmetrize_(a: np.ndarray) -> np.ndarray:
    """Overwrite a square ``a`` with ``(a + a^T) / 2`` and return it.

    Bit-identical to the out-of-place expression: each entry pair is summed
    and halved once. Works in bands of ``BAND_ROWS`` rows: a band's strip
    right of the diagonal takes the mean of itself and the mirrored strip
    below, which then copies it back, so numpy's scratch is at most a few
    bands, never an M x M copy.
    """
    m = a.shape[0]
    for lo in range(0, m, BAND_ROWS):
        hi = min(lo + BAND_ROWS, m)
        block = a[lo:hi, lo:hi]
        block += block.T  # numpy buffers the overlapping operand
        block /= 2.0
        upper, lower = a[lo:hi, hi:], a[hi:, lo:hi]
        upper += lower.T
        upper /= 2.0
        lower[...] = upper.T
    return a


def _tri_inv(l: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, by 2 x 2 blocks.

    ``inv([[A, 0], [C, D]]) = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]``; blocks of
    at most ``TRI_INV_LEAF`` rows go to ``np.linalg.inv``, whose upper
    triangle is cleared, so the result's upper triangle is exactly zero.
    """
    m = l.shape[0]
    if m <= TRI_INV_LEAF:
        leaf = np.linalg.inv(l)
        for i in range(m - 1):  # not np.tril, whose numpy code no other fit step pages in
            leaf[i, i + 1:] = 0.0
        return leaf
    h = m // 2
    out = np.zeros_like(l)
    out[:h, :h] = _tri_inv(l[:h, :h])
    out[h:, h:] = _tri_inv(l[h:, h:])
    out[h:, :h] = out[h:, h:] @ (l[h:, :h] @ out[:h, :h])
    out[h:, :h] *= -1.0
    return out


def whitener(a, loading: float = 0.0, name: str = "matrix") -> np.ndarray:
    """``L^-1`` for the Cholesky factor ``L L^T = a + loading * I``.

    ``L^-1`` whitens the loaded matrix: ``L^-1 (a + loading I) L^-T = I``.
    The loaded copy is freed once factored and the factor once inverted, so
    besides ``a`` no more than two M x M arrays and the block scratch of the
    inverse are alive at once. A matrix that is not positive definite after
    loading raises :class:`DefinitenessError`.
    """
    return whitener_(_as_square(a).copy(), loading, name)


def whitener_(a: np.ndarray, loading: float = 0.0, name: str = "matrix") -> np.ndarray:
    """:func:`whitener` of a float array that the caller passes without
    keeping it: ``a`` is loaded in place and freed once factored, so no copy
    of it is made."""
    _load_(a, loading)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(
            f"{name} is not positive definite; apply diagonal loading first"
        ) from exc
    del a
    return _tri_inv(chol)


def diagonal_load(a, rho: float) -> np.ndarray:
    """Return ``a + rho * I``."""
    return _load_(_as_square(a).copy(), rho)


def _load_(a: np.ndarray, rho: float) -> np.ndarray:
    """Add ``rho * I`` to the square float array ``a`` in place and return it."""
    if rho < 0:
        raise ArgumentError(f"loading factor must be non-negative, got {rho}")
    a += 0.0  # like a + rho * I, turns off-diagonal -0.0 into 0.0
    a.flat[::a.shape[0] + 1] += rho
    return a


def auto_loading(r_b) -> float:
    """Loading factor for a background covariance, 0.0 when none is needed.

    Loads with ``1e-6 * tr/M`` whenever the smallest eigenvalue falls below
    ``1e-10 * tr/M``; this keeps the Cholesky factorization of the loaded
    matrix well defined for rank-deficient sample covariances. The bound is
    tested by factorizing ``r_b - 1e-10 * tr/M * I``, which fails exactly
    when it is violated (up to rounding), so no eigensolve is spent on it.
    A matrix whose loading ``1e-6 * tr/M`` would be zero or subnormal (a zero
    trace included) has no variance to scale the loading by at float64
    precision and raises :class:`DefinitenessError`.
    """
    r_b = _as_square(r_b, "background covariance")
    m = r_b.shape[0]
    mean_diag = float(np.trace(r_b)) / m
    if not LOADING_SCALE * mean_diag >= np.finfo(float).tiny:
        raise DefinitenessError(f"background has no variance at float64 precision "
                                f"(tr/M = {mean_diag:.3g}); rescale the data")
    shifted = r_b.copy()
    shifted.flat[::m + 1] -= EPS_FLOOR_SCALE * mean_diag
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return LOADING_SCALE * mean_diag
    return 0.0


def q_eig(r_b, r_f, k: int, loading: float = 0.0) -> EigenResult:
    """Top-k eigenpairs of the background-whitened product ``(r_b + loading I)^-1 r_f``.

    Solved through a symmetric congruence: with the Cholesky factor
    ``r_b + loading I = L L^T``, the symmetric matrix ``S = (L^-1 r_f) L^-T``
    shares the (real, non-negative) spectrum of the product, and each
    symmetric eigenvector x maps back to an eigenvector ``v = L^-T x`` of the
    product. ``L`` is inverted once (:func:`whitener`) and no general solve
    runs; the loaded copy of ``r_b`` and ``L`` itself are freed before the
    eigensolve. Returned vectors are unit-norm with the deterministic sign
    convention.
    """
    r_b = _as_square(r_b, "background covariance")
    r_f = _as_square(r_f, "foreground covariance")
    if r_b.shape != r_f.shape:
        raise ShapeError(f"covariance shapes differ: {r_b.shape} vs {r_f.shape}")
    m = r_b.shape[0]
    if not 1 <= k <= m:
        raise ArgumentError(f"k must be in [1, {m}], got {k}")
    _require_symmetric(r_b, "background covariance")
    _require_symmetric(r_f, "foreground covariance")
    l_inv = whitener(r_b, loading, "background covariance")
    s = symmetrize_((l_inv @ r_f) @ l_inv.T)  # L^-1 r_f is freed before the symmetrization
    res = sym_eig(s, k)
    del s
    vectors = l_inv.T @ res.vectors
    vectors /= np.linalg.norm(vectors, axis=0)
    return EigenResult(values=res.values, vectors=_fix_signs(vectors))
