"""Sample matrices and their second-order statistics.

Data is kept feature-major: an ``(M, N)`` array holds N samples as columns.
Covariances are normalized by 1/N (not 1/(N-1)); users expecting unbiased
estimates should account for the difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError, StateError
from .linalg import auto_loading

# Per-feature residual-sum slack accepted when validating a centered matrix:
# N * max(atol, rtol * scale), scale being the feature's |mean| + max |value|.
# Centering leaves sums of about N * eps * scale, so the relative term admits
# large-magnitude data while unit-scale data still meets the absolute floor.
CENTERING_ATOL_PER_SAMPLE = 1e-9
CENTERING_RTOL_PER_SAMPLE = 1e-12


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """A collection of N samples in M dimensions, one sample per column."""

    values: np.ndarray               # (M, N) float64
    centered: bool = False
    mean: np.ndarray | None = None   # (M,), present iff centered

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ShapeError(f"sample matrix must be 2-D, got shape {values.shape}")
        if values.shape[1] < 1:
            raise ArgumentError("sample matrix needs at least one sample")
        if not np.all(np.isfinite(values)):
            raise ArgumentError("sample matrix contains non-finite entries")
        if self.centered:
            if self.mean is None:
                raise ArgumentError("centered matrix must carry its subtracted mean")
            mean = np.asarray(self.mean, dtype=float)
            object.__setattr__(self, "mean", mean)
            if mean.shape != (values.shape[0],):
                raise ShapeError(f"mean shape {mean.shape} does not match {values.shape[0]} features")
            # max |value| from two reductions: np.abs would copy the whole matrix
            scale = np.abs(mean) + np.maximum(values.max(axis=1), -values.min(axis=1))
            slack = values.shape[1] * np.maximum(CENTERING_ATOL_PER_SAMPLE,
                                                 CENTERING_RTOL_PER_SAMPLE * scale)
            if np.any(np.abs(values.sum(axis=1)) > slack):
                raise ArgumentError("matrix flagged centered but feature sums are not zero")
        elif self.mean is not None:
            raise ArgumentError("uncentered matrix must not carry a mean")

    @property
    def features(self) -> int:
        return self.values.shape[0]

    @property
    def samples(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class CovariancePair:
    """Background/foreground second moments plus the loading applied on use.

    ``r_b`` is stored unloaded; consumers add ``loading * I`` before
    inverting. The partition means are kept so downstream filter banks can
    offer training-mean centering at transform time.
    """

    r_b: np.ndarray      # (M, M)
    r_f: np.ndarray      # (M, M)
    loading: float
    n_b: int
    n_f: int
    mean_b: np.ndarray   # (M,)
    mean_f: np.ndarray   # (M,)

    def __post_init__(self):
        if self.r_b.shape != self.r_f.shape or self.r_b.ndim != 2:
            raise ShapeError(
                f"covariance shapes differ or are not 2-D: {self.r_b.shape} vs {self.r_f.shape}"
            )
        if self.loading < 0:
            raise ArgumentError(f"loading must be non-negative, got {self.loading}")

    @property
    def features(self) -> int:
        return self.r_b.shape[0]


def center(raw: DataMatrix) -> DataMatrix:
    """Subtract the per-feature mean; a no-op on already-centered input."""
    if raw.centered:
        return raw
    mean = raw.values.mean(axis=1)
    return DataMatrix(values=raw.values - mean[:, None], centered=True, mean=mean)


def second_moment(z: DataMatrix) -> np.ndarray:
    """``(1/N) Z Z^T`` of a centered sample matrix; symmetric PSD."""
    if not z.centered:
        raise StateError("second_moment requires a centered matrix; call center() first")
    r = (z.values @ z.values.T) / z.samples
    if not np.all(np.isfinite(r)):
        raise ArgumentError("second moment overflows float64; rescale the data")
    return (r + r.T) / 2.0


def build_covariance_pair(bg: DataMatrix, fg: DataMatrix) -> CovariancePair:
    """Center both partitions, form their second moments, pick the loading.

    The loading factor keeps the background matrix invertible when it is
    rank deficient (fewer background samples than features, say); it is
    recorded on the pair rather than folded into ``r_b``.
    """
    if bg.features != fg.features:
        raise ShapeError(
            f"background has {bg.features} features but foreground has {fg.features}"
        )
    bg_c = center(bg)
    fg_c = center(fg)
    r_b = second_moment(bg_c)
    r_f = second_moment(fg_c)
    return CovariancePair(
        r_b=r_b,
        r_f=r_f,
        loading=auto_loading(r_b),
        n_b=bg_c.samples,
        n_f=fg_c.samples,
        mean_b=bg_c.mean,
        mean_f=fg_c.mean,
    )
