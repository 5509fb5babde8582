"""Dense symmetric eigen-machinery and the background-whitened eigenproblem.

Everything here operates on plain float64 ``numpy`` arrays (row-major).
Eigenvalues are always returned in descending order and eigenvectors carry a
deterministic sign (largest-magnitude component positive, ties resolved at
the lowest index), so repeated runs on identical input are bit-identical.

The number of symmetric eigendecompositions performed is counted in a
module-level counter so callers can verify how many decompositions a fitting
routine actually spends (see :func:`eig_count` / :func:`reset_eig_count`).
It counts every :func:`sym_eig` call, which is the only place the package
runs a symmetric eigensolver: the loading decision uses a Cholesky test and
the detection statistic uses linear solves. The counter is the one piece of
shared state here; read it from a single thread when instrumenting.
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

_eig_count = 0


def eig_count() -> int:
    """Number of symmetric eigendecompositions since the last reset."""
    return _eig_count


def reset_eig_count() -> None:
    global _eig_count
    _eig_count = 0


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
    global _eig_count
    a = _as_square(a)
    m = a.shape[0]
    if not 1 <= k <= m:
        raise ArgumentError(f"k must be in [1, {m}], got {k}")
    _require_symmetric(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed to converge: {exc}") from exc
    _eig_count += 1
    order = np.argsort(-values, kind="stable")[:k]
    return EigenResult(values=values[order], vectors=_fix_signs(vectors[:, order]))


def diagonal_load(a, rho: float) -> np.ndarray:
    """Return ``a + rho * I``."""
    a = _as_square(a)
    if rho < 0:
        raise ArgumentError(f"loading factor must be non-negative, got {rho}")
    out = a + 0.0  # a copy that, like a + rho * I, turns off-diagonal -0.0 into 0.0
    out.flat[::a.shape[0] + 1] += rho
    return out


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


def q_eig(r_b, r_f, k: int) -> EigenResult:
    """Top-k eigenpairs of the background-whitened product ``r_b^-1 r_f``.

    Solved through a symmetric congruence: with the Cholesky factor
    ``r_b = L L^T``, the symmetric matrix ``S = L^-1 r_f L^-T`` shares the
    (real, non-negative) spectrum of the product, and each symmetric
    eigenvector x maps back to an eigenvector ``v = L^-T x`` of the product.
    Returned vectors are unit-norm with the deterministic sign convention.
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
    try:
        chol = np.linalg.cholesky(r_b)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(
            "background covariance is not positive definite; apply diagonal loading first"
        ) from exc
    half = np.linalg.solve(chol, r_f)          # L^-1 r_f
    s = np.linalg.solve(chol, half.T)          # L^-1 (L^-1 r_f)^T = L^-1 r_f L^-T
    del half
    s = s + s.T                                # symmetrized in one buffer
    s /= 2.0
    res = sym_eig(s, k)
    vectors = np.linalg.solve(chol.T, res.vectors)
    vectors /= np.linalg.norm(vectors, axis=0)
    return EigenResult(values=res.values, vectors=_fix_signs(vectors))
