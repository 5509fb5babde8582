"""Sample matrices and their second-order statistics.

Data is kept feature-major: an ``(M, N)`` array holds N samples as columns.
Covariances are normalized by 1/N (not 1/(N-1)); users expecting unbiased
estimates should account for the difference.

Each batch is reduced to :class:`Moments` (count, mean, scatter); merging
them pools the batches, so a training set streams through in O(M^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError
from .linalg import auto_loading, symmetrize_


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """A collection of N samples in M dimensions, one sample per column."""

    values: np.ndarray               # (M, N) float64

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ShapeError(f"sample matrix must be 2-D, got shape {values.shape}")
        if values.shape[1] < 1:
            raise ArgumentError("sample matrix needs at least one sample")
        if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise ArgumentError("sample matrix contains non-finite entries")

    @property
    def features(self) -> int:
        return self.values.shape[0]

    @property
    def samples(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class Moments:
    """Count, mean and scatter ``sum (x - mean)(x - mean)^T`` of a sample set."""

    n: int
    mean: np.ndarray      # (M,)
    scatter: np.ndarray   # (M, M)

    def __post_init__(self):
        scatter = self.scatter
        if scatter.size and not (np.isfinite(scatter.min()) and np.isfinite(scatter.max())):
            raise ArgumentError("second moment overflows float64; rescale the data")

    @property
    def features(self) -> int:
        return self.mean.shape[0]

    def merge(self, other: Moments) -> Moments:
        """Moments of both sample sets, ``self``'s first.

        The pairwise update of Chan, Golub & LeVeque (1979): with
        ``d = other.mean - self.mean``, the pooled scatter is the sum of the
        two plus ``d d^T * n_a n_b / n``. Each part stays centered on its own
        mean, so no large offset is ever squared.
        """
        if other.features != self.features:
            raise ShapeError(f"cannot merge moments of {other.features} features "
                             f"into moments of {self.features}")
        n = self.n + other.n
        delta = other.mean - self.mean
        return Moments(n=n, mean=self.mean + delta * (other.n / n),
                       scatter=self.scatter + other.scatter
                       + np.outer(delta, delta * (self.n * other.n / n)))

    def covariance(self) -> np.ndarray:
        """``scatter / n``, symmetrized in place; symmetric PSD."""
        return symmetrize_(self.scatter / self.n)


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


def second_moment(data: DataMatrix, overwrite: bool = False) -> Moments:
    """Moments of one batch: its row mean, then ``Z Z^T`` of ``Z = data - mean``.

    With ``overwrite``, ``Z`` is formed in ``data.values`` itself, which the
    caller gives up, instead of in a copy of the batch.
    """
    mean = data.values.mean(axis=1)
    z = np.subtract(data.values, mean[:, None], out=data.values if overwrite else None)
    return Moments(n=data.samples, mean=mean, scatter=z @ z.T)


def build_covariance_pair(bg: DataMatrix | Moments, fg: DataMatrix | Moments) -> CovariancePair:
    """Form both partitions' covariances and pick the loading.

    Either partition may be a sample matrix or moments pooled beforehand.
    The loading factor keeps the background matrix invertible when it is
    rank deficient (fewer background samples than features, say); it is
    recorded on the pair rather than folded into ``r_b``. It is chosen before
    ``r_f`` is formed, so the loading test's scratch never coexists with both
    covariances.
    """
    bg, fg = (x if isinstance(x, Moments) else second_moment(x) for x in (bg, fg))
    if bg.features != fg.features:
        raise ShapeError(
            f"background has {bg.features} features but foreground has {fg.features}"
        )
    r_b = bg.covariance()
    loading = auto_loading(r_b)
    return CovariancePair(r_b=r_b, r_f=fg.covariance(), loading=loading,
                          n_b=bg.n, n_f=fg.n, mean_b=bg.mean, mean_f=fg.mean)
