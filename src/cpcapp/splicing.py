"""Patch-based boundary localization: extract, label, score, reconstruct, score.

A probe image is cut into overlapping patches on a strided lattice; a fitted
filter bank turns each patch into a squared projection norm, normalized per
image to [0, 1]; per-pixel averaging plus edge masking yields the boundary
probability map, which is then tallied against ground truth with F1 and
Matthews scores. A patch's score is its column's squared norm in the
bank's centered projection, :func:`~cpcapp.reducers.transform`. Training
extracts each probe's patch matrix (:func:`splice_pair`); localization
scores a probe one band of lattice rows at a time (:func:`score_lattice`),
so no patch matrix of the whole image is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CpcappError, ShapeError
from .reducers import FilterBank, _project, _splits, transform
from .stats import CovariancePair, DataMatrix, Moments, build_covariance_pair, second_moment

# Pipeline defaults; every one of these is overridable at the CLI.
PATCH_SIZE = 8
PATCH_STRIDE = 4
FG_SPLICE_RANGE = (0.3, 0.7)
BG_EDGE_MIN = 0.05
SCORE_THRESHOLD = 0.5
SPLICE_K = 6

_LUMA = np.array([0.299, 0.587, 0.114])
# edge_mask and reconstruct_map work in row bands of about this many pixels;
# score_lattice projects bands of about this many patches
_BAND_PIXELS = 1 << 14
_SCORE_BAND = 1 << 10


@dataclass(frozen=True, eq=False)
class Lattice:
    """The n x n windows of an image whose origins are (i*stride, j*stride), row-major."""

    image_w: int
    image_h: int
    n: int
    stride: int

    def __post_init__(self):
        size = min(self.image_w, self.image_h)
        if not 1 <= self.n <= size:
            raise ArgumentError(f"patch size {self.n} is outside [1, {size}] "
                                f"for {self.image_w}x{self.image_h}")
        if self.stride < 1:
            raise ArgumentError(f"stride must be positive, got {self.stride}")

    @property
    def rows(self) -> int:
        return (self.image_h - self.n) // self.stride + 1

    @property
    def cols(self) -> int:
        return (self.image_w - self.n) // self.stride + 1


@dataclass(frozen=True, eq=False)
class PatchGrid(Lattice):
    """Flattened n x n patches of one image, one column per lattice origin."""

    patches: DataMatrix          # (c*n*n, rows*cols), one flattened patch per column

    def __post_init__(self):
        if self.n < 1 or self.patches.features % (self.n * self.n):
            raise ShapeError("patch rows must be a multiple of n^2")
        if self.stride < 1 or self.patches.samples != self.rows * self.cols:
            raise ShapeError("one patch per origin of a stride >= 1 lattice is required")
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class ProbabilityMap:
    """Per-pixel boundary probabilities in [0, 1]."""

    values: np.ndarray  # (height, width)

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ShapeError(f"probability map must be 2-D, got shape {self.values.shape}")
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


def _require_finite(image: np.ndarray) -> None:
    """``ArgumentError`` unless every value is finite: two reductions, no image-sized mask."""
    if not (np.isfinite(image.min()) and np.isfinite(image.max())):
        raise ArgumentError("image contains non-finite values")


def _row_bands(height: int, width: int):
    """``[lo, hi)`` row ranges of about ``_BAND_PIXELS`` pixels, at least one row each."""
    step = max(1, _BAND_PIXELS // width)
    return ((lo, min(lo + step, height)) for lo in range(0, height, step))


def _otsu_threshold(values: np.ndarray) -> float:
    """Otsu's level over a 256-bin histogram of ``values``.

    The counts are taken over ``_BAND_PIXELS`` values at a time; each
    value's bin does not depend on the others, and integer counts add up
    exactly.
    """
    flat = values.reshape(-1)
    top = float(values.max())
    hist = np.zeros(256, dtype=np.intp)
    for lo in range(0, flat.size, _BAND_PIXELS):
        counts, edges = np.histogram(flat[lo:lo + _BAND_PIXELS], bins=256, range=(0.0, top))
        hist += counts
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

    Returns a (H, W) uint8 mask with values 0/255; an empty image, or one
    with a non-finite value, raises ``ArgumentError``. The gradient is formed
    one band of rows at a time: the band's luma, with a one-row halo above
    and below and a one-pixel border, edge-replicated where the image ends
    (an RGB band is widened to float on the way), then the Sobel taps and
    ``hypot``. Only the magnitude field is held whole.
    """
    image = _as_image(image)
    if image.size == 0:
        raise ArgumentError("cannot compute edges of an empty image")
    _require_finite(image)
    h, w = image.shape[:2]
    magnitude = np.empty((h, w))
    for lo, hi in _row_bands(h, w):
        top, bottom = max(lo - 1, 0), min(hi + 1, h)
        padded = np.empty((hi - lo + 2, w + 2))  # row k is luma row lo + k - 1
        rows = image[top:bottom]
        # each row's product is the whole image's: per-channel sums would change its bits
        padded[top - lo + 1:bottom - lo + 1, 1:-1] = (
            rows[:, :, 0] if image.shape[2] == 1 else rows.astype(float) @ _LUMA)
        if lo == 0:
            padded[0] = padded[1]
        if hi == h:
            padded[-1] = padded[-2]
        padded[:, 0] = padded[:, 1]
        padded[:, -1] = padded[:, -2]

        def t(dy, dx):
            return padded[dy:dy + hi - lo, dx:dx + w]

        # Sobel taps in the reference order; the zero taps are skipped, which can
        # flip only the sign of a zero, and hypot ignores it
        gx = t(0, 2) - t(0, 0) - 2 * t(1, 0) + 2 * t(1, 2) - t(2, 0) + t(2, 2)
        gy = -t(0, 0) - 2 * t(0, 1) - t(0, 2) + t(2, 0) + 2 * t(2, 1) + t(2, 2)
        np.hypot(gx, gy, out=magnitude[lo:hi])
    if magnitude.max() == 0:
        return np.zeros((h, w), dtype=np.uint8)
    return (magnitude > _otsu_threshold(magnitude)) * np.uint8(255)


def _windows(a: np.ndarray, n: int, stride: int) -> np.ndarray:
    """The (rows, cols, ..., n, n) view of the n x n windows on the stride lattice."""
    return np.lib.stride_tricks.sliding_window_view(a, (n, n), axis=(0, 1))[::stride, ::stride]


def _patch_fields(image: np.ndarray, n: int, stride: int) -> np.ndarray:
    """The (c, n, n, rows, cols) view of an (H, W, C) image's lattice: one field per feature."""
    return np.moveaxis(_windows(image, n, stride), (0, 1), (3, 4))


def _patch_columns(fields: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The patches of lattice rows ``[lo, hi)`` as float columns, channel-major.

    One copy into C order, converted to float on the way (a uint8 probe is
    never widened whole): row means and BLAS products follow the layout.
    """
    columns = np.empty(fields.shape[:3] + (hi - lo, fields.shape[4]))
    np.copyto(columns, fields[..., lo:hi, :])
    return columns.reshape(-1, (hi - lo) * fields.shape[4])


def extract_patches(image, n: int, stride: int) -> PatchGrid:
    """All n x n windows on the stride lattice, flattened channel-major.

    Within a column the layout is channel, then row, then column; patches
    are ordered row-major over their origins ``(i * stride, j * stride)``.
    """
    image = _as_image(image)
    height, width = image.shape[:2]
    lattice = Lattice(image_w=width, image_h=height, n=n, stride=stride)
    return PatchGrid(
        image_w=width,
        image_h=height,
        n=n,
        stride=stride,
        patches=DataMatrix(values=_patch_columns(_patch_fields(image, n, stride), 0, lattice.rows)),
    )


def label_patches(grid: Lattice, surface_mask, edge, fg_range=FG_SPLICE_RANGE,
                  bg_edge_min: float = BG_EDGE_MIN) -> tuple[np.ndarray, np.ndarray]:
    """Split patch indices into foreground and background training sets.

    Foreground patches have a spliced-pixel fraction inside ``fg_range``
    (they straddle the spliced boundary); background patches contain no
    spliced pixels but at least ``bg_edge_min`` of ordinary edge pixels.
    Everything else stays unlabeled. Both thresholds are fractions: the
    range needs ``0 <= lo <= hi <= 1`` and the edge floor ``0 <= bg_edge_min
    <= 1``, so NaN and infinities are rejected.
    """
    lo, hi = _check_thresholds(fg_range, bg_edge_min)
    surface = np.asarray(surface_mask) > 0
    edges = np.asarray(edge) > 0
    if surface.shape != (grid.image_h, grid.image_w) or edges.shape != surface.shape:
        raise ShapeError("mask dimensions must match the patch grid's image")
    frac = _windows(surface, grid.n, grid.stride).mean(axis=(-2, -1)).ravel()
    edge_frac = _windows(edges, grid.n, grid.stride).mean(axis=(-2, -1)).ravel()
    is_fg = (lo <= frac) & (frac <= hi)
    return np.flatnonzero(is_fg), np.flatnonzero(~is_fg & (frac == 0) & (edge_frac >= bg_edge_min))


def _check_thresholds(fg_range, bg_edge_min: float) -> tuple[float, float]:
    """``fg_range`` as ``(lo, hi)``; an ``ArgumentError`` unless both thresholds are fractions."""
    lo, hi = fg_range
    if not 0.0 <= lo <= hi <= 1.0:
        raise ArgumentError(f"foreground spliced-fraction range must satisfy "
                            f"0 <= lo <= hi <= 1, got ({lo}, {hi})")
    if not 0.0 <= bg_edge_min <= 1.0:
        raise ArgumentError(f"background edge fraction must be in [0, 1], got {bg_edge_min}")
    return lo, hi


def _pool(acc: Moments | None, columns: np.ndarray) -> Moments | None:
    """``acc`` merged with the moments of ``columns``, if any; ``columns`` is centered in place."""
    if not columns.shape[1]:
        return acc
    batch = second_moment(DataMatrix(values=columns), overwrite=True)
    return batch if acc is None else acc.merge(batch)


def splice_pair(probes, n: int = PATCH_SIZE, stride: int = PATCH_STRIDE, fg_range=FG_SPLICE_RANGE,
                bg_edge_min: float = BG_EDGE_MIN) -> CovariancePair:
    """The training pair of spliced probes: boundary patches as target, edge patches as background.

    ``probes`` yields ``(name, probe, surface)``, one probe at a time. For
    each, in order, the probe's :func:`edge_mask`, :func:`extract_patches`
    and :func:`label_patches` split its patches; each set's columns are
    reduced to :class:`~cpcapp.stats.Moments` and merged in probe order, so
    memory is one probe's patches plus the M x M moments, however many
    probes there are. A ``ShapeError`` is prefixed with its probe's ``name``;
    a set with no patch at all raises ``CpcappError``.
    """
    _check_thresholds(fg_range, bg_edge_min)  # before the first probe is read
    fg = bg = None
    for name, probe, surface in probes:
        try:
            edge = edge_mask(probe)
            grid = extract_patches(probe, n, stride)
            fg_idx, bg_idx = label_patches(grid, surface, edge, fg_range, bg_edge_min)
            fg = _pool(fg, grid.patches.values[:, fg_idx])
            bg = _pool(bg, grid.patches.values[:, bg_idx])
        except ShapeError as exc:
            raise ShapeError(f"{name}: {exc}") from exc
    if fg is None or bg is None:
        raise CpcappError("training images produced no labeled patches; relax the thresholds")
    return build_covariance_pair(bg, fg)


def _max_normalized(v: np.ndarray) -> np.ndarray:
    """``v`` divided by its maximum; all zeros when the maximum is 0."""
    peak = v.max()
    if peak == 0:
        return np.zeros_like(v)
    return v / peak


def score_patches(bank: FilterBank, test: DataMatrix) -> np.ndarray:
    """Per-patch probabilities: squared projection norms, max-normalized.

    Each column's squared L2 norm of :func:`~cpcapp.reducers.transform` (the
    batch centered with its own mean and projected through the bank) is
    divided by the batch maximum. An all-zero projection yields all-zero
    scores.
    """
    return _max_normalized(np.sum(transform(bank, test) ** 2, axis=0))


def score_lattice(bank: FilterBank, image, stride: int) -> tuple[np.ndarray, Lattice]:
    """``score_patches`` of every patch on the image's lattice, and that lattice.

    The bank fixes the patch size: its M features are c*n^2 for an image of
    c channels, and any other M raises ShapeError. Bit-identical to
    ``score_patches(bank, extract_patches(image, n, stride).patches)``, but
    no patch matrix is built: each feature's mean comes from a contiguous
    copy of its (rows, cols) field, and then the patches are copied out,
    centered and projected one band of whole lattice rows at a time, about
    ``_SCORE_BAND`` patches each. Each patch's gemm column does not depend
    on how the columns are cut into bands.
    """
    image = _as_image(image)
    height, width, channels = image.shape
    n = math.isqrt(bank.features // channels)
    if channels * n * n != bank.features:
        raise ShapeError(f"model has M={bank.features} features, which is not c*n^2 "
                         f"for a probe of c={channels} channels")
    lattice = Lattice(image_w=width, image_h=height, n=n, stride=stride)
    _require_finite(image)
    cols = lattice.cols
    fields = _patch_fields(image, n, stride)
    field = np.empty(fields.shape[3:])
    mean = np.empty(bank.features)
    for i, index in enumerate(np.ndindex(fields.shape[:3])):
        # a contiguous copy sums in the order x.mean(axis=1) takes along a patch row
        np.copyto(field, fields[index])
        mean[i] = field.mean()

    v = np.empty(lattice.rows * cols)
    # near-equal bands of whole rows; none is a single column unless there is
    # one patch (a one-column product takes gemv, whose bits differ from gemm's)
    for lo, hi in _splits(lattice.rows, max(1, _SCORE_BAND // cols)):
        v[lo * cols:hi * cols] = np.sum(
            _project(bank, _patch_columns(fields, lo, hi), mean) ** 2, axis=0)
    return _max_normalized(v), lattice


def _cover(size: int, count: int, n: int, stride: int) -> np.ndarray:
    """Per pixel along one image axis, how many of ``count`` n-wide windows at that stride hold it."""
    cover = np.zeros(size)
    for d in range(n):
        cover[d:d + count * stride:stride] += 1.0
    return cover


def reconstruct_map(scores, lattice: Lattice, edge) -> ProbabilityMap:
    """Average patch scores onto pixels, then zero out non-edge pixels.

    ``scores`` holds one value per origin of ``lattice``, row-major (a
    :class:`PatchGrid` is a lattice too). Each pixel receives the mean score
    of every patch covering it (accumulated in patch-index order); pixels no
    patch covers, and pixels outside the edge mask, are 0. Pixel (y, x) is
    covered by ``cy[y] * cx[x]`` patches, an exact integer, so the sums are
    divided by it and masked one band of rows at a time, with no cover field.
    """
    scores = np.asarray(scores, dtype=float)
    rows, cols = lattice.rows, lattice.cols
    if scores.shape != (rows * cols,):
        raise ArgumentError(
            f"got {scores.shape[0] if scores.ndim else 0} scores for {rows * cols} patches"
        )
    edge = np.asarray(edge)
    height, width = lattice.image_h, lattice.image_w
    if edge.shape != (height, width):
        raise ShapeError("edge mask dimensions must match the lattice's image")
    acc = np.zeros((height, width))
    per_origin = scores.reshape(rows, cols)
    n, s = lattice.n, lattice.stride
    # Pixel (r*s + dy, c*s + dx) takes patch (r, c) at offset (dy, dx); taking
    # the offsets in descending order adds each pixel's patches by patch index.
    for dy in range(n - 1, -1, -1):
        for dx in range(n - 1, -1, -1):
            acc[dy:dy + rows * s:s, dx:dx + cols * s:s] += per_origin
    # an uncovered pixel's sum is 0, which a divisor of 1 leaves as it is
    cy = np.maximum(_cover(height, rows, n, s), 1.0)
    cx = np.maximum(_cover(width, cols, n, s), 1.0)
    for lo, hi in _row_bands(height, width):
        band = acc[lo:hi]
        band /= np.outer(cy[lo:hi], cx)
        band *= edge[lo:hi] > 0
    return ProbabilityMap(values=acc)


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
