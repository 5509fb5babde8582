"""Basis recovery, oblique-projection denoising, and the detection statistic.

The filter bank F found by the sweep-free method pairs with a basis W such
that F^T W = I. Projecting a sample through ``W F^T`` keeps only the
structure spanned by the learned foreground bases, which is the denoising
route; the determinant-ratio statistic quantifies how much foreground energy
a candidate basis captures relative to the background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, RankError, ShapeError
from .linalg import diagonal_load, whitener, whitener_
from .reducers import FilterBank
from .stats import CovariancePair

BIORTHOGONALITY_ATOL = 1e-7


@dataclass(frozen=True, eq=False)
class FactorModel:
    """Filters F and basis W paired obliquely: ``F^T W = I``.

    W columns are intentionally left unnormalized; rescaling them would
    break the pairing.
    """

    w: np.ndarray  # (M, K) dictionary atoms as columns
    f: np.ndarray  # (M, K)

    def __post_init__(self):
        if self.w.shape != self.f.shape:
            raise ShapeError(f"W shape {self.w.shape} does not match F shape {self.f.shape}")
        if not (np.isfinite(self.w).all() and np.isfinite(self.f).all()):
            raise RankError("F and W must hold finite values")
        k = self.f.shape[1]
        gram = self.f.T @ self.w
        if np.max(np.abs(gram - np.eye(k))) > BIORTHOGONALITY_ATOL:
            raise RankError("F^T W deviates from identity; basis recovery failed")


def recover_w(pair: CovariancePair, bank: FilterBank) -> FactorModel:
    """Recover the basis paired with a sweep-free filter bank.

    Inverts the filter/basis relation as ``W = R_b F (F^T R_b F)^-1`` using
    the loaded background matrix, so the pairing ``F^T W = I`` holds exactly
    in floating point.
    """
    if bank.features != pair.features:
        raise ShapeError(
            f"bank has {bank.features} features but pair has {pair.features}"
        )
    r_b = diagonal_load(pair.r_b, pair.loading)
    lam = bank.f.T @ r_b @ bank.f
    if np.linalg.cond(lam) > 1e12:
        raise RankError("F^T R_b F is numerically singular; reduce k or check the data")
    w = r_b @ bank.f @ np.linalg.inv(lam)
    return FactorModel(w=w, f=bank.f)


def denoise(model: FactorModel, z) -> np.ndarray:
    """Oblique projection ``W F^T z`` of a single flattened sample."""
    z = np.asarray(z, dtype=float)
    if z.shape != (model.f.shape[0],):
        raise ShapeError(f"sample has shape {z.shape}, expected ({model.f.shape[0]},)")
    return model.w @ (model.f.T @ z)


def glrt_statistic(pair: CovariancePair, w) -> float | np.ndarray:
    """Determinant-ratio detection statistic for a candidate basis ``w``.

    Computes ``|W^T R_b^-1 W| / |W^T (N_f/N_b R_f + R_b)^-1 W|`` from the
    pair's second moments, with its loading applied to ``R_b``. Always >= 1
    up to rounding, and invariant to right-multiplying ``w`` by any
    invertible K x K matrix. ``w`` is one ``(M, K)`` basis (a float comes
    back) or a stack ``(..., M, K)`` (statistics of shape ``(...)``). Each of
    the two matrices ``A`` is Cholesky-factored once, ``A = L L^T``, and
    ``W^T A^-1 W`` is taken as the Gram matrix of ``L^-1 W`` for all the
    bases side by side, so it is positive semidefinite by construction.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim < 2 or w.shape[-2] != pair.features:
        raise ShapeError("basis rows must match the pair's feature count")
    if np.any(np.linalg.matrix_rank(w) < w.shape[-1]):
        raise RankError("candidate basis is rank deficient")
    columns = np.moveaxis(w, -2, 0)  # (M, ..., K)

    def projected(l_inv):  # W^T A^-1 W for every basis, from the whitener L^-1 of A
        half = l_inv @ columns.reshape(pair.features, -1)
        half = np.moveaxis(half.reshape(columns.shape), 0, -2)  # L^-1 W, (..., M, K)
        return np.swapaxes(half, -1, -2) @ half

    sign_n, logdet_n = np.linalg.slogdet(
        projected(whitener(pair.r_b, pair.loading, "background covariance")))
    sign_d, logdet_d = np.linalg.slogdet(projected(whitener_(  # loaded in place, not copied
        pair.n_f / pair.n_b * pair.r_f + pair.r_b, pair.loading, "pooled covariance")))
    if np.any(sign_n <= 0) or np.any(sign_d <= 0):
        raise DefinitenessError("projected covariances lost positive definiteness")
    return np.exp(logdet_n - logdet_d)
