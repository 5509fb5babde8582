"""Patch-based boundary localization: extract, label, score, reconstruct, score.

A probe image is cut into overlapping patches; a fitted filter bank turns
each patch into a squared projection norm, normalized per image to [0, 1];
per-pixel averaging plus edge masking yields the boundary probability map,
which is then tallied against ground truth with F1 and Matthews scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError
from .reducers import FilterBank, transform
from .stats import DataMatrix

# Pipeline defaults; every one of these is overridable at the CLI.
PATCH_SIZE = 8
PATCH_STRIDE = 4
FG_SPLICE_RANGE = (0.3, 0.7)
BG_EDGE_MIN = 0.05
SCORE_THRESHOLD = 0.5
SPLICE_K = 6

_LUMA = np.array([0.299, 0.587, 0.114])


@dataclass(frozen=True, eq=False)
class PatchGrid:
    """Flattened n x n patches of one image, row-major over origins (i*stride, j*stride)."""

    image_w: int
    image_h: int
    n: int
    stride: int
    channels: int
    patches: DataMatrix          # (c*n*n, rows*cols), one flattened patch per column

    def __post_init__(self):
        if self.patches.features != self.channels * self.n * self.n:
            raise ShapeError("patch rows must equal channels * n^2")
        if self.stride < 1 or self.patches.samples != self.rows * self.cols:
            raise ShapeError("one patch per origin of a stride >= 1 lattice is required")

    @property
    def rows(self) -> int:
        return (self.image_h - self.n) // self.stride + 1

    @property
    def cols(self) -> int:
        return (self.image_w - self.n) // self.stride + 1


@dataclass(frozen=True, eq=False)
class ProbabilityMap:
    """Per-pixel boundary probabilities in [0, 1]."""

    width: int
    height: int
    values: np.ndarray  # (height, width)

    def __post_init__(self):
        if self.values.shape != (self.height, self.width):
            raise ShapeError("probability map dims do not match values array")
        if self.values.size and not (0 <= self.values.min() and self.values.max() <= 1):
            raise ArgumentError("probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ArgumentError("confusion counts must be non-negative")


def _as_image(image) -> np.ndarray:
    """``image`` as an (H, W, C) array; real numbers keep their dtype, the rest become floats."""
    image = np.asarray(image)
    if image.dtype.kind not in "biuf":
        image = np.asarray(image, dtype=float)
    if image.ndim == 2:
        return image[:, :, None]
    if image.ndim == 3 and image.shape[2] in (1, 3):
        return image
    raise ShapeError(f"expected (H, W) or (H, W, 1|3) image, got shape {np.shape(image)}")


def _luma(image: np.ndarray) -> np.ndarray:
    if image.shape[2] == 1:
        return image[:, :, 0]
    return image @ _LUMA


def _otsu_threshold(values: np.ndarray) -> float:
    """Otsu's level over a 256-bin histogram of ``values``."""
    hist, edges = np.histogram(values, bins=256, range=(0.0, float(values.max())))
    total = values.size
    omega0 = np.cumsum(hist) / total
    mu_cum = np.cumsum(hist * (edges[:-1] + edges[1:]) / 2) / total
    mu_total = mu_cum[-1]
    omega1 = 1.0 - omega0
    valid = (omega0 > 0) & (omega1 > 0)
    between = np.zeros(256)
    between[valid] = (mu_total * omega0[valid] - mu_cum[valid]) ** 2 / (
        omega0[valid] * omega1[valid]
    )
    return float(edges[int(np.argmax(between)) + 1])


def edge_mask(image) -> np.ndarray:
    """Gradient-magnitude edges: Sobel on luma, thresholded at Otsu's level.

    Returns a (H, W) uint8 mask with values 0/255.
    """
    image = _as_image(image).astype(float, copy=False)
    if image.size == 0:
        raise ArgumentError("cannot compute edges of an empty image")
    gray = _luma(image)
    padded = np.pad(gray, 1, mode="edge")
    h, w = gray.shape

    def t(dy, dx):
        return padded[dy:dy + h, dx:dx + w]

    # Sobel taps in the reference order; the zero taps are skipped, which can
    # flip only the sign of a zero, and hypot ignores it
    gx = t(0, 2) - t(0, 0) - 2 * t(1, 0) + 2 * t(1, 2) - t(2, 0) + t(2, 2)
    gy = -t(0, 0) - 2 * t(0, 1) - t(0, 2) + t(2, 0) + 2 * t(2, 1) + t(2, 2)
    magnitude = np.hypot(gx, gy)
    if magnitude.max() == 0:
        return np.zeros(gray.shape, dtype=np.uint8)
    level = _otsu_threshold(magnitude)
    return np.where(magnitude > level, 255, 0).astype(np.uint8)


def _windows(a: np.ndarray, n: int, stride: int) -> np.ndarray:
    """The (rows, cols, ..., n, n) view of the n x n windows on the stride lattice."""
    return np.lib.stride_tricks.sliding_window_view(a, (n, n), axis=(0, 1))[::stride, ::stride]


def extract_patches(image, n: int, stride: int) -> PatchGrid:
    """All n x n windows on the stride lattice, flattened channel-major.

    Within a column the layout is channel, then row, then column; patches
    are ordered row-major over their origins ``(i * stride, j * stride)``.
    """
    image = _as_image(image)
    height, width, channels = image.shape
    if not 1 <= n <= min(width, height):
        raise ArgumentError(f"patch size {n} is outside [1, {min(width, height)}] for {width}x{height}")
    if stride < 1:
        raise ArgumentError(f"stride must be positive, got {stride}")
    windows = _windows(image, n, stride)                   # (rows, cols, c, n, n)
    # one copy into C order, converted to float on the way (a uint8 probe is
    # never widened whole): second_moment takes row means, whose bits follow the layout
    view = np.moveaxis(windows, (0, 1), (3, 4))
    columns = np.empty(view.shape)
    np.copyto(columns, view)
    return PatchGrid(
        image_w=width,
        image_h=height,
        n=n,
        stride=stride,
        channels=channels,
        patches=DataMatrix(values=columns.reshape(-1, windows.shape[0] * windows.shape[1])),
    )


def label_patches(grid: PatchGrid, surface_mask, edge, fg_range=FG_SPLICE_RANGE,
                  bg_edge_min: float = BG_EDGE_MIN) -> tuple[np.ndarray, np.ndarray]:
    """Split patch indices into foreground and background training sets.

    Foreground patches have a spliced-pixel fraction inside ``fg_range``
    (they straddle the spliced boundary); background patches contain no
    spliced pixels but at least ``bg_edge_min`` of ordinary edge pixels.
    Everything else stays unlabeled. Both thresholds are fractions: the
    range needs ``0 <= lo <= hi <= 1`` and the edge floor ``0 <= bg_edge_min
    <= 1``, so NaN and infinities are rejected.
    """
    lo, hi = fg_range
    if not 0.0 <= lo <= hi <= 1.0:
        raise ArgumentError(f"foreground spliced-fraction range must satisfy "
                            f"0 <= lo <= hi <= 1, got ({lo}, {hi})")
    if not 0.0 <= bg_edge_min <= 1.0:
        raise ArgumentError(f"background edge fraction must be in [0, 1], got {bg_edge_min}")
    surface = np.asarray(surface_mask) > 0
    edges = np.asarray(edge) > 0
    if surface.shape != (grid.image_h, grid.image_w) or edges.shape != surface.shape:
        raise ShapeError("mask dimensions must match the patch grid's image")
    frac = _windows(surface, grid.n, grid.stride).mean(axis=(-2, -1)).ravel()
    edge_frac = _windows(edges, grid.n, grid.stride).mean(axis=(-2, -1)).ravel()
    is_fg = (lo <= frac) & (frac <= hi)
    return np.flatnonzero(is_fg), np.flatnonzero(~is_fg & (frac == 0) & (edge_frac >= bg_edge_min))


def score_patches(bank: FilterBank, test: DataMatrix, use_train_mean: bool = False) -> np.ndarray:
    """Per-patch probabilities: squared projection norms, max-normalized.

    The test batch is centered (its own mean by default), projected through
    the bank, and each column's squared L2 norm is divided by the batch
    maximum. An all-zero projection yields all-zero scores.
    """
    v = np.sum(transform(bank, test, use_train_mean=use_train_mean) ** 2, axis=0)
    peak = v.max()
    if peak == 0:
        return np.zeros_like(v)
    return v / peak


def reconstruct_map(scores, grid: PatchGrid, edge) -> ProbabilityMap:
    """Average patch scores onto pixels, then zero out non-edge pixels.

    Each pixel receives the mean score of every patch covering it
    (accumulated in patch-index order); pixels no patch covers, and pixels
    outside the edge mask, are 0.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (grid.patches.samples,):
        raise ArgumentError(
            f"got {scores.shape[0] if scores.ndim else 0} scores for {grid.patches.samples} patches"
        )
    edges = np.asarray(edge) > 0
    if edges.shape != (grid.image_h, grid.image_w):
        raise ShapeError("edge mask dimensions must match the patch grid's image")
    acc = np.zeros((grid.image_h, grid.image_w))
    cover = np.zeros((grid.image_h, grid.image_w))
    lattice = scores.reshape(grid.rows, grid.cols)
    s = grid.stride
    # Pixel (r*s + dy, c*s + dx) takes patch (r, c) at offset (dy, dx); taking
    # the offsets in descending order adds each pixel's patches by patch index.
    for dy in range(grid.n - 1, -1, -1):
        for dx in range(grid.n - 1, -1, -1):
            cell = np.s_[dy:dy + grid.rows * s:s, dx:dx + grid.cols * s:s]
            acc[cell] += lattice
            cover[cell] += 1.0
    np.divide(acc, cover, out=acc, where=cover > 0)
    acc *= edges
    return ProbabilityMap(width=grid.image_w, height=grid.image_h, values=acc)


def binarize_and_score(prob_map: ProbabilityMap, truth, threshold: float = SCORE_THRESHOLD) -> ConfusionCounts:
    """Threshold a probability map and tally it against a 0/255 truth mask."""
    if not 0 <= threshold <= 1:
        raise ArgumentError(f"threshold must be in [0, 1], got {threshold}")
    truth_pos = np.asarray(truth) > 0
    if truth_pos.shape != prob_map.values.shape:
        raise ShapeError("truth mask dimensions must match the probability map")
    predicted = prob_map.values >= threshold
    tp = int(np.sum(predicted & truth_pos))
    tn = int(np.sum(~predicted & ~truth_pos))
    fp = int(np.sum(predicted & ~truth_pos))
    fn = int(np.sum(~predicted & truth_pos))
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def f1_score(c: ConfusionCounts) -> float:
    """2TP / (2TP + FN + FP); 0 when the denominator vanishes."""
    denom = 2.0 * c.tp + c.fn + c.fp
    if denom == 0:
        return 0.0
    return 2.0 * c.tp / denom


def mcc_score(c: ConfusionCounts) -> float:
    """Matthews correlation; 0 when any marginal is empty.

    The numerator and the product under the root are formed in exact integer
    arithmetic so the only roundings are the final sqrt and divide.
    """
    product = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if product == 0:
        return 0.0
    return (c.tp * c.tn - c.fp * c.fn) / math.sqrt(product)


def random_scorer_expected_f1(edge, truth) -> float:
    """Expected F1 of scoring each edge-mask pixel uniformly at random.

    Such a scorer predicts positive on half the edge pixels (threshold 0.5)
    and can never predict outside the mask; the expectation is evaluated via
    expected counts.
    """
    edges = np.asarray(edge) > 0
    truth_pos = np.asarray(truth) > 0
    if edges.shape != truth_pos.shape:
        raise ShapeError("edge and truth masks must share dimensions")
    tp = 0.5 * np.sum(edges & truth_pos)
    fp = 0.5 * np.sum(edges & ~truth_pos)
    fn = np.sum(truth_pos) - tp
    denom = 2.0 * tp + fn + fp
    if denom == 0:
        return 0.0
    return float(2.0 * tp / denom)
