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
from .linalg import diagonal_load
from .reducers import FilterBank
from .stats import CovariancePair

BIORTHOGONALITY_ATOL = 1e-7


@dataclass(frozen=True, eq=False)
class FactorModel:
    """Filters F and basis W paired obliquely: ``F^T W = I``.

    W columns are intentionally left unnormalized; rescaling them would
    break the pairing.
    """

    w: np.ndarray            # (M, K) dictionary atoms as columns
    f: np.ndarray            # (M, K)
    lambda_diag: np.ndarray  # (K,)

    def __post_init__(self):
        if self.w.shape != self.f.shape:
            raise ShapeError(f"W shape {self.w.shape} does not match F shape {self.f.shape}")
        k = self.f.shape[1]
        gram = self.f.T @ self.w
        if np.max(np.abs(gram - np.eye(k))) > BIORTHOGONALITY_ATOL:
            raise RankError("F^T W deviates from identity; basis recovery failed")
        if np.any(self.lambda_diag <= 0):
            raise DefinitenessError("scaling diagonal must be strictly positive")


def recover_w(pair: CovariancePair, bank: FilterBank) -> FactorModel:
    """Recover the basis paired with a sweep-free filter bank.

    Inverts the filter/basis relation as ``W = R_b F (F^T R_b F)^-1`` using
    the loaded background matrix, so the pairing ``F^T W = I`` holds exactly
    in floating point. ``F^T R_b F`` is diagonal for filters produced by the
    whitened eigenproblem; its diagonal is returned as the scaling.
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
    return FactorModel(w=w, f=bank.f, lambda_diag=np.diag(lam).copy())


def denoise(model: FactorModel, z) -> np.ndarray:
    """Oblique projection ``W F^T z`` of a single flattened sample."""
    z = np.asarray(z, dtype=float)
    if z.shape != (model.f.shape[0],):
        raise ShapeError(f"sample has shape {z.shape}, expected ({model.f.shape[0]},)")
    return model.w @ (model.f.T @ z)


def glrt_statistic(pair: CovariancePair, w) -> float:
    """Determinant-ratio detection statistic for a candidate basis ``w``.

    Computes ``|W^T R_b^-1 W| / |W^T (N_f/N_b R_f + R_b)^-1 W|`` from the
    pair's second moments, with its loading applied to ``R_b``. Always >= 1
    up to rounding, and invariant to right-multiplying ``w`` by any
    invertible K x K matrix.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != pair.features:
        raise ShapeError("basis rows must match the pair's feature count")
    if np.linalg.matrix_rank(w) < w.shape[1]:
        raise RankError("candidate basis is rank deficient")
    r_b = diagonal_load(pair.r_b, pair.loading)
    ratio = pair.n_f / pair.n_b
    numer = w.T @ np.linalg.solve(r_b, w)
    denom = w.T @ np.linalg.solve(ratio * pair.r_f + r_b, w)
    sign_n, logdet_n = np.linalg.slogdet(numer)
    sign_d, logdet_d = np.linalg.slogdet(denom)
    if sign_n <= 0 or sign_d <= 0:
        raise DefinitenessError("projected covariances lost positive definiteness")
    return float(np.exp(logdet_n - logdet_d))
