"""The three reduction methods: PCA, contrastive PCA, and its sweep-free form.

All three produce a :class:`FilterBank` whose columns project samples onto a
K-dimensional discriminative (or maximum-variance) subspace. The sweep-free
method solves one background-whitened eigenproblem instead of scanning a
contrast parameter, so it costs a single eigendecomposition regardless of
grid size. :func:`transform` applies a bank, centering each batch with its
own mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DefinitenessError, ShapeError
from .linalg import q_eig, sym_eig
from .stats import CovariancePair, DataMatrix, Moments, second_moment

METHODS = ("pca", "cpca", "cpca++")

# transform centers and projects at most this many samples at a time; blocks
# are near-equal, so none is a single column unless there is one sample (a
# one-column product takes gemv, whose last bits differ from gemm's).
TRANSFORM_BLOCK = 4096

# Default contrast grid: alpha = 0 plus 40 log-spaced points spanning six decades.
ALPHA_GRID_MIN = 1e-3
ALPHA_GRID_MAX = 1e3
ALPHA_GRID_POINTS = 40


def default_alpha_grid() -> np.ndarray:
    """{0} followed by 40 log-spaced contrast values in [1e-3, 1e3]."""
    return np.concatenate(
        [[0.0], np.logspace(np.log10(ALPHA_GRID_MIN), np.log10(ALPHA_GRID_MAX), ALPHA_GRID_POINTS)]
    )


@dataclass(frozen=True, eq=False)
class FilterBank:
    """A fitted M x K projection with the statistics needed to apply it."""

    method: str
    f: np.ndarray                # (M, K), unit-norm columns
    train_mean_bg: np.ndarray    # (M,)
    train_mean_fg: np.ndarray    # (M,)
    eigenvalues: np.ndarray      # (K,), descending
    loading: float
    alpha: float | None = None   # contrast parameter, cpca only

    def __post_init__(self):
        # an owned copy: a bank cut from a full eigenvector matrix must not keep it alive
        object.__setattr__(self, "f", np.array(self.f, dtype=float))
        if self.f.ndim != 2:
            raise ShapeError("filter matrix must be 2-D")
        m, k = self.f.shape
        if k > m:
            raise ShapeError(f"more filters ({k}) than features ({m})")
        if self.method not in METHODS:
            raise ArgumentError(f"unknown method {self.method!r}")
        if (self.method == "cpca") != (self.alpha is not None):
            raise ArgumentError("alpha must be present exactly when method is 'cpca'")
        if self.eigenvalues.shape != (k,):
            raise ShapeError("one eigenvalue per filter column is required")
        for mean in (self.train_mean_bg, self.train_mean_fg):
            if np.shape(mean) != (m,):
                raise ShapeError(f"training means must have shape ({m},), got {np.shape(mean)}")
        values = (self.f, self.train_mean_bg, self.train_mean_fg, self.eigenvalues,
                  self.loading, 0.0 if self.alpha is None else self.alpha)
        if not all(np.isfinite(v).all() for v in values):
            raise ArgumentError("filter bank values must be finite")
        if self.loading < 0:
            raise ArgumentError(f"loading must be non-negative, got {self.loading}")
        if np.any(np.diff(self.eigenvalues) > 1e-12 * (1.0 + np.abs(self.eigenvalues[:-1]))):
            raise ArgumentError("eigenvalues must be descending")
        norms = np.linalg.norm(self.f, axis=0)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ArgumentError("filter columns must have unit norm")

    @property
    def features(self) -> int:
        return self.f.shape[0]

    @property
    def k(self) -> int:
        return self.f.shape[1]


def fit_pca(data: DataMatrix | Moments, k: int) -> FilterBank:
    """Top-k eigenvectors of the sample covariance of ``data``, a sample matrix or its moments."""
    moments = data if isinstance(data, Moments) else second_moment(data)
    if moments.n < 2:
        raise ArgumentError("PCA needs at least two samples")
    res = sym_eig(moments.covariance(), k)
    return FilterBank(
        method="pca",
        f=res.vectors,
        train_mean_bg=moments.mean,
        train_mean_fg=moments.mean,
        eigenvalues=res.values,
        loading=0.0,
    )


def fit_cpca(pair: CovariancePair, k: int, alpha: float) -> FilterBank:
    """Top-k filters of the contrast matrix ``r_f - alpha * r_b``.

    Selection is by largest algebraic (signed) eigenvalue. The stored
    background matrix is used as-is: loading only shifts the contrast
    spectrum uniformly and cannot change the chosen filters.
    """
    if not 0 <= alpha < np.inf:
        raise ArgumentError(f"contrast parameter must be finite and non-negative, got {alpha}")
    contrast = np.multiply(pair.r_b, alpha)  # r_f - alpha * r_b, in one M x M buffer
    res = sym_eig(np.subtract(pair.r_f, contrast, out=contrast), k)
    return FilterBank(
        method="cpca",
        f=res.vectors,
        train_mean_bg=pair.mean_b,
        train_mean_fg=pair.mean_f,
        eigenvalues=res.values,
        loading=pair.loading,
        alpha=float(alpha),
    )


def fit_cpcapp(pair: CovariancePair, k: int, overwrite: bool = False) -> FilterBank:
    """Sweep-free contrastive fit: top-k eigenvectors of the whitened product.

    Costs exactly one symmetric eigendecomposition; the relative scale of the
    two covariances cancels inside the product, which is what removes the
    contrast parameter. A zero-trace foreground (constant features, or one
    sample) has no structure to contrast and raises :class:`DefinitenessError`.
    With ``overwrite``, the caller gives up ``pair.r_f``: the whitened product
    is formed in it (:func:`~cpcapp.linalg.q_eig`), so the eigensolve runs
    beside ``r_b`` and that product alone. Afterwards ``pair.r_f`` holds the
    product, not the covariance; the pair's other fields are as they were.
    """
    if not np.trace(pair.r_f) > 0:
        raise DefinitenessError("foreground has no variance (zero-trace covariance)")
    res = q_eig(pair.r_b, pair.r_f, k, loading=pair.loading, overwrite=overwrite)
    return FilterBank(
        method="cpca++",
        f=res.vectors,
        train_mean_bg=pair.mean_b,
        train_mean_fg=pair.mean_f,
        eigenvalues=res.values,
        loading=pair.loading,
    )


def _splits(count: int, most: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` ranges cutting ``range(count)`` into the fewest near-equal parts of at most ``most``."""
    parts = -(-count // most)
    edges = [count * i // parts for i in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _project(bank: FilterBank, block: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``F^T (block - mean)``; ``block`` is a float scratch copy and is centered in place."""
    block -= mean[:, None]
    return bank.f.T @ block


def transform(bank: FilterBank, data: DataMatrix) -> np.ndarray:
    """Project samples through the bank: the (K, N) array ``F^T (data - mean)``.

    The batch is centered with its own mean. A patch's splice score is its
    column's squared norm (:func:`~cpcapp.splicing.score_patches`).
    """
    if data.features != bank.features:
        raise ShapeError(
            f"data has {data.features} features but bank expects {bank.features}"
        )
    x = data.values
    mean = x.mean(axis=1)
    out = np.empty((bank.k, x.shape[1]))
    # column blocks hold one centered M x TRANSFORM_BLOCK copy, not one of all N
    for lo, hi in _splits(x.shape[1], TRANSFORM_BLOCK):
        out[:, lo:hi] = _project(bank, x[:, lo:hi].copy(), mean)
    return out
