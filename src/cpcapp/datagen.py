"""Synthetic dataset generators and their closed-form oracles.

Every generator is a pure function of its seed and sizes on the portable
SplitMix64 stream, so fixtures are identical across platforms. Draw order is
part of each generator's contract and noted in its docstring. The
constructions are fixed: their scalars are the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .rng import NORMAL_BLOCK, SplitMix64
from .stats import DataMatrix

# Four-class geometry: three independent 10-dim blocks.
BLOCK = 10
FOUR_CLASS_DIM = 3 * BLOCK
# Background block variances, and the class-mean offsets on blocks 1 and 2.
BG_VARS = (3.0, 1.0, 10.0)
MEAN_1 = 6.0
MEAN_2 = 3.0
# Foreground nuisance-block variance. The class-mean structure alone puts an
# eigenvalue of 91 on block 1 of the foreground covariance, so the nuisance
# block must carry more than that for plain PCA to lock onto it; 130 keeps
# the whitened problem's leading eigenvalues (30.33, 23.5) well clear of the
# nuisance ratio 13.
FG_H3_VAR = 130.0

DIGIT_SIDE = 28
GLYPH_AMP = 1.0
# Texture deviation sits exactly at 3x the glyph contrast; a small unsmoothed
# noise floor keeps the texture covariance away from numerical rank collapse.
TEXTURE_STD = 3.0
TEXTURE_FLOOR = 0.05
TEXTURE_PASSES = 3
GLYPH_JITTER = 3.0
STROKE_WIDTH = 1.2

# Haystack: shared-direction variances (background gamma, foreground beta),
# planted-direction variance eps, isotropic background noise rho, dimension.
# They satisfy eps < beta, rho < gamma and beta*rho/gamma < eps, so the
# planted direction leads the whitened problem but not plain PCA.
HAYSTACK_GAMMA = 10.0
HAYSTACK_BETA = 5.0
HAYSTACK_EPS = 0.1
HAYSTACK_RHO = 0.01
HAYSTACK_DIM = 4

# Bounds on the spliced-pixel fraction of a probe, and its default side.
SPLICE_AREA = (0.08, 0.20)
PROBE_SIDE = 64

# Standard (n_fg, n_bg) per sampled dataset kind.
TABLE_COUNTS = {
    "four-class": (400, 400),
    "haystack": (400, 400),
    "textured-digits": (5000, 5000),
}

# Each sampled kind's tables, in the order ``generate`` deals them to its
# workers round-robin: with two workers, the textured digits' fg and labels
# go to one and bg and clean to the other, about equal shares of the work.
TABLE_NAMES = {
    "four-class": ("fg", "bg", "labels"),
    "haystack": ("rb", "rf", "directions", "fg", "bg"),
    "textured-digits": ("fg", "bg", "labels", "clean"),
}


def sample_table(kind: str, name: str, seed: int, n_fg: int, n_bg: int) -> np.ndarray:
    """The feature-major table ``name`` of a sampled kind, drawn alone.

    The table is the generator's array of that name (``gen_four_class``,
    ``sample_haystack`` with ``gen_haystack``, or ``gen_textured_digits``;
    ``labels`` as one row, ``directions`` as the rows ``c`` and ``a``). It is
    formed by the draws that generator makes for it, read at the stream
    positions its docstring gives, so no other table is drawn and every
    value has the same bits.
    """
    if name not in TABLE_NAMES.get(kind, ()):
        raise ArgumentError(f"no table {name!r} of kind {kind!r}")
    check_counts(n_fg, n_bg)
    rng = SplitMix64(seed)
    if kind == "four-class":
        if name == "bg":
            return _four_class_bg(rng.at(n_fg + 2 * FOUR_CLASS_DIM * n_fg), n_bg)
        labels = rng.integers(n_fg, 4)
        return labels[None, :] if name == "labels" else _four_class_fg(rng, labels)
    if kind == "haystack":
        if name == "fg":
            return _haystack_fg(rng, n_fg)
        if name == "bg":
            return _haystack_bg(rng.at(4 * n_fg), n_bg)
        r_b, r_f, c_dir, a_dir = gen_haystack()
        return {"rb": r_b, "rf": r_f, "directions": np.column_stack([c_dir, a_dir]).T}[name]
    # textured digits
    if name == "bg":
        return _columns(_texture(rng.at(4 * n_fg + 4 * DIGIT_SIDE**2 * n_fg),
                                 (n_bg, DIGIT_SIDE, DIGIT_SIDE), TEXTURE_STD))
    if name == "labels":
        return rng.integers(n_fg, 2)[None, :]
    _, glyphs = _digit_glyphs(rng, n_fg)
    if name == "clean":
        return _columns(glyphs)
    fg_tex = _texture(rng, (n_fg, DIGIT_SIDE, DIGIT_SIDE), TEXTURE_STD)
    fg_tex += glyphs
    return _columns(fg_tex)


def check_counts(n_fg: int, n_bg: int) -> None:
    """Raise ArgumentError unless both sample counts are at least 1."""
    if n_fg < 1 or n_bg < 1:
        raise ArgumentError("sample counts must be at least 1")


def check_size(height: int, width: int) -> None:
    """Raise ArgumentError unless a probe is at least 1x1."""
    if height < 1 or width < 1:
        raise ArgumentError(f"image size {width}x{height} must be at least 1x1")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    data: DataMatrix
    labels: np.ndarray  # (N,) int class indices

    def __post_init__(self):
        if self.labels.shape != (self.data.samples,):
            raise ArgumentError("one label per sample is required")


# ---------------------------------------------------------------------------
# Four-class mixture
# ---------------------------------------------------------------------------

def gen_four_class(seed: int, n_fg: int, n_bg: int) -> tuple[LabeledDataset, DataMatrix]:
    """Foreground mixture of four classes plus a structure-free background.

    Classes differ by mean offsets on blocks 1 and 2 (offsets 6 and 3); the
    third block is zero-mean noise in both partitions. Draw order: class
    labels (stream words 0 to n_fg), then the (30, n_fg) foreground normals
    in C order (the next 60 n_fg words), then the (30, n_bg) background
    normals (from word 61 n_fg on).
    """
    check_counts(n_fg, n_bg)
    rng = SplitMix64(seed)
    labels = rng.integers(n_fg, 4)
    fg = _four_class_fg(rng, labels)
    bg = _four_class_bg(rng, n_bg)
    return LabeledDataset(data=DataMatrix(values=fg), labels=labels), DataMatrix(values=bg)


def _four_class_fg(rng: SplitMix64, labels: np.ndarray) -> np.ndarray:
    fg = rng.normal((FOUR_CLASS_DIM, labels.size))
    fg[0:BLOCK] += MEAN_1 * (labels >= 2).astype(float)
    fg[BLOCK:2 * BLOCK] += MEAN_2 * (labels % 2 == 1).astype(float)
    fg[2 * BLOCK:] *= np.sqrt(FG_H3_VAR)
    return fg


def _four_class_bg(rng: SplitMix64, n_bg: int) -> np.ndarray:
    bg = rng.normal((FOUR_CLASS_DIM, n_bg))
    for i, var in enumerate(BG_VARS):
        bg[i * BLOCK:(i + 1) * BLOCK] *= np.sqrt(var)
    return bg


def oracle_four_class_filters() -> np.ndarray:
    """Closed-form 30x2 filters: the normalized indicator of blocks 1 and 2."""
    f = np.zeros((FOUR_CLASS_DIM, 2))
    f[0:BLOCK, 0] = 1.0 / np.sqrt(BLOCK)
    f[BLOCK:2 * BLOCK, 1] = 1.0 / np.sqrt(BLOCK)
    return f


def analytic_four_class_covariances() -> tuple[np.ndarray, np.ndarray]:
    """Population covariances of the four-class construction (nuisance var 10).

    These are the idealized block matrices behind the closed-form filters;
    the foreground block-1/2 terms are ``mean^2/4 * 11^T + I``.
    """
    ones = np.ones((BLOCK, BLOCK))
    eye = np.eye(BLOCK)
    r_b = np.zeros((FOUR_CLASS_DIM, FOUR_CLASS_DIM))
    r_f = np.zeros((FOUR_CLASS_DIM, FOUR_CLASS_DIM))
    for i, var in enumerate(BG_VARS):
        r_b[i * BLOCK:(i + 1) * BLOCK, i * BLOCK:(i + 1) * BLOCK] = var * eye
    blocks = (
        (MEAN_1 / 2) ** 2 * ones + eye,
        (MEAN_2 / 2) ** 2 * ones + eye,
        BG_VARS[2] * eye,
    )
    for i, blk in enumerate(blocks):
        r_f[i * BLOCK:(i + 1) * BLOCK, i * BLOCK:(i + 1) * BLOCK] = blk
    return r_b, r_f


def analytic_four_class_q() -> np.ndarray:
    """The exact whitened product for the four-class construction.

    Block-diagonal with blocks ``3*11^T + I/3``, ``2.25*11^T + I`` and ``I``;
    its two leading eigenvalues are 91/3 = 30.33 and 23.5.
    """
    r_b, r_f = analytic_four_class_covariances()
    q = np.zeros_like(r_b)
    for i in range(3):
        sl = slice(i * BLOCK, (i + 1) * BLOCK)
        q[sl, sl] = r_f[sl, sl] / BG_VARS[i]
    return q


# ---------------------------------------------------------------------------
# Needle-in-a-haystack covariances
# ---------------------------------------------------------------------------

def gen_haystack() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact rank-1-plus-noise covariances with planted directions.

    Returns ``(r_b, r_f, c, a)`` where ``a`` (first basis vector) carries the
    shared high-variance structure and ``c`` (second basis vector) the
    foreground-only structure. No sampling happens here; the matrices are
    analytic.
    """
    m = HAYSTACK_DIM
    a = np.zeros(m)
    a[0] = 1.0
    c = np.zeros(m)
    c[1] = 1.0
    r_b = HAYSTACK_GAMMA * np.outer(a, a) + HAYSTACK_RHO * np.eye(m)
    r_f = HAYSTACK_BETA * np.outer(a, a) + HAYSTACK_EPS * np.outer(c, c)
    return r_b, r_f, c, a


def sample_haystack(seed: int, n_fg: int, n_bg: int) -> tuple[DataMatrix, DataMatrix]:
    """Gaussian draws matching the haystack covariances.

    Draw order: the n_fg shared-direction weights, the n_fg planted-direction
    weights (together stream words 0 to 4 n_fg), then the n_bg background
    weights followed by the (m, n_bg) isotropic noise block (from word 4 n_fg
    on).
    """
    check_counts(n_fg, n_bg)
    rng = SplitMix64(seed)
    fg = _haystack_fg(rng, n_fg)
    return DataMatrix(values=fg), DataMatrix(values=_haystack_bg(rng, n_bg))


def _haystack_fg(rng: SplitMix64, n_fg: int) -> np.ndarray:
    _, _, c, a = gen_haystack()
    g_shared = rng.normal(n_fg)
    g_planted = rng.normal(n_fg)
    return (np.sqrt(HAYSTACK_BETA) * np.outer(a, g_shared)
            + np.sqrt(HAYSTACK_EPS) * np.outer(c, g_planted))


def _haystack_bg(rng: SplitMix64, n_bg: int) -> np.ndarray:
    _, _, _, a = gen_haystack()
    g_bg = rng.normal(n_bg)
    noise = rng.normal((HAYSTACK_DIM, n_bg))
    return np.sqrt(HAYSTACK_GAMMA) * np.outer(a, g_bg) + np.sqrt(HAYSTACK_RHO) * noise


# ---------------------------------------------------------------------------
# Textured digits
# ---------------------------------------------------------------------------

_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
# _smooth works on slabs of about this many values
_SLAB_VALUES = 1 << 15
# _deviation forms at most this many squared deviations at a time
_LEAF_VALUES = 1 << 13


def _reflect_pad(field: np.ndarray, axis: int, padded: np.ndarray) -> None:
    """Write ``field`` into ``padded`` with the kernel's half-width of cells
    on each side along ``axis``, as ``np.pad(mode="reflect")`` pads them (the
    reflection repeats where the field is shorter than the pad): the middle
    as one slice copy, each pad cell as a copy of its source slice."""
    size, half = field.shape[axis], _BINOMIAL5.size // 2
    period = max(2 * (size - 1), 1)  # of the reflected index sequence

    def cells(array, index):
        return array[(slice(None),) * axis + (index,)]

    cells(padded, slice(half, half + size))[...] = field
    for k in (*range(half), *range(half + size, 2 * half + size)):
        j = (k - half) % period
        cells(padded, k)[...] = cells(field, min(j, period - j))


def _smooth(field: np.ndarray, axis: int) -> None:
    """TEXTURE_PASSES reflect-padded binomial convolutions along one axis, in place.

    The C-contiguous ``field`` is viewed as (outer, size, inner) lines
    around ``axis`` and smoothed in slabs of about ``_SLAB_VALUES``: runs
    of whole outer lines, or runs of inner columns where one outer line is
    larger. A slab runs every pass before the next slab: each pass copies
    it and its reflect padding into one buffer, then multiply-accumulates
    the taps, in order, back into the slab through one scratch buffer.
    Every value takes the steps of one whole-field pass.
    """
    size, half = field.shape[axis], _BINOMIAL5.size // 2
    outer, inner = math.prod(field.shape[:axis]), math.prod(field.shape[axis + 1:])
    lines = field.reshape(outer, size, inner)  # a view of the C-contiguous field
    outer_step = max(1, _SLAB_VALUES // (size * inner))
    inner_step = inner if size * inner <= _SLAB_VALUES else max(1, _SLAB_VALUES // size)
    for o in range(0, outer, outer_step):
        for i in range(0, inner, inner_step):
            slab = lines[o:o + outer_step, :, i:i + inner_step]
            padded = np.empty((slab.shape[0], size + 2 * half, slab.shape[2]))
            term = np.empty_like(slab)
            for _ in range(TEXTURE_PASSES):
                _reflect_pad(slab, 1, padded)
                slab.fill(0.0)  # from zeros, not the first tap: 0.0 + -0.0 is +0.0
                for j, w in enumerate(_BINOMIAL5):
                    slab += np.multiply(w, padded[:, j:j + size], out=term)


def _add_floor(rng: SplitMix64, values: np.ndarray) -> None:
    """Add ``TEXTURE_FLOOR`` times the next ``values.size`` normals to ``values``, a block at a time."""
    fill = rng.reserve_normal(values.size)
    floor = np.empty(min(values.size, NORMAL_BLOCK))
    for lo in range(0, values.size, NORMAL_BLOCK):
        block = floor[:values.size - lo]
        fill(lo, block)
        block *= TEXTURE_FLOOR
        values[lo:lo + block.size] += block


def _squared_deviations(rows: np.ndarray, mean: np.ndarray, scratch: np.ndarray,
                        lo: int, hi: int) -> np.ndarray:
    """Per row, the sum of ``(rows[:, lo:hi] - mean)**2`` as numpy's pairwise sum forms it.

    Columns are split as that sum splits them (half the count, rounded down
    to a multiple of 8) until a leaf holds at most ``_LEAF_VALUES``; each
    leaf is formed in ``scratch`` and summed by numpy itself.
    """
    n = hi - lo
    if n <= _LEAF_VALUES:
        leaf = scratch[:rows.shape[0], :n]
        np.subtract(rows[:, lo:hi], mean, out=leaf)
        np.square(leaf, out=leaf)
        return leaf.sum(axis=1, keepdims=True)
    half = n // 2 - n // 2 % 8
    return (_squared_deviations(rows, mean, scratch, lo, lo + half)
            + _squared_deviations(rows, mean, scratch, lo + half, hi))


def _deviation(flat: np.ndarray) -> np.ndarray:
    """``flat.std(axis=1, keepdims=True)`` bit for bit, without its whole-array temporary.

    Rows of at most ``_LEAF_VALUES`` are reduced a block of rows at a time,
    longer rows one at a time in leaves, all through one small scratch buffer.
    """
    count, n = flat.shape
    mean = flat.sum(axis=1, keepdims=True) / n
    step = max(1, _LEAF_VALUES // n)
    scratch = np.empty((min(step, count), min(n, _LEAF_VALUES)))
    var = np.concatenate([_squared_deviations(flat[lo:lo + step], mean[lo:lo + step], scratch, 0, n)
                          for lo in range(0, count, step)])
    var /= n
    return np.sqrt(var, out=var)


def _texture(rng: SplitMix64, shape: tuple[int, int, int], std: float) -> np.ndarray:
    """``(count, H, W)`` smoothed noise fields, each normalized to deviation ``std``.

    Draw order: the smoothed fields, then their unsmoothed noise floor. The
    floor is added ``NORMAL_BLOCK`` values at a time, each block formed at
    its own stream positions, so it is never held whole. A constant field
    is centered but left unscaled.
    """
    fields = rng.normal(shape)
    _smooth(fields, axis=1)
    _smooth(fields, axis=2)
    _add_floor(rng, fields.reshape(-1))
    flat = fields.reshape(shape[0], -1)
    flat -= flat.mean(axis=1, keepdims=True)
    scale = _deviation(flat)
    scale[scale == 0] = 1.0
    flat *= std / scale
    return fields


def _glyph_images(labels: np.ndarray, jitter: np.ndarray, side: int) -> np.ndarray:
    """Soft ring (class 0) and bar (class 1) strokes; ``jitter`` is (3, count)."""
    yy, xx = np.mgrid[0:side, 0:side].astype(float)
    out = np.empty((labels.shape[0], side, side))
    width = STROKE_WIDTH
    ring = labels == 0
    j0, j1, j2 = jitter[:, ring, None, None]
    cx = side / 2 + GLYPH_JITTER * (j0 - 0.5)
    cy = side / 2 + GLYPH_JITTER * (j1 - 0.5)
    radius = 6.0 + (j2 - 0.5)
    dist = np.hypot(xx - cx, yy - cy)
    out[ring] = np.exp(-((dist - radius) ** 2) / (2 * width**2))
    j0, j1, j2 = jitter[:, ~ring, None, None]
    x0 = side / 2 + 1.2 * GLYPH_JITTER * (j0 - 0.5)
    tilt = 0.4 * (j1 - 0.5)
    span = 9.0 + 2.0 * (j2 - 0.5)
    dx = xx - (x0 + tilt * (yy - side / 2))
    window = np.exp(-(((yy - side / 2) / span) ** 8))
    out[~ring] = np.exp(-(dx**2) / (2 * width**2)) * window
    return out


def gen_textured_digits(seed: int, n_fg: int, n_bg: int
                        ) -> tuple[LabeledDataset, DataMatrix, DataMatrix]:
    """Two glyph classes superimposed on high-variance smoothed-noise texture.

    Returns (foreground, background, clean): foreground images are
    ``texture + glyph``, background images are texture only, and clean
    images are the bare glyphs used as denoising ground truth. Images are
    28x28, flattened row-major into 784-dim columns. Draw order: class
    labels (stream words 0 to n_fg), per-glyph jitter triples (the next
    3 n_fg words), the foreground texture fields (smoothed fields then
    their noise floor, the next 4 * 784 n_fg words), then the background
    texture fields (from word 4 n_fg + 4 * 784 n_fg on).
    """
    check_counts(n_fg, n_bg)
    rng = SplitMix64(seed)
    labels, glyphs = _digit_glyphs(rng, n_fg)
    fg_tex = _texture(rng, (n_fg, DIGIT_SIDE, DIGIT_SIDE), TEXTURE_STD)
    bg_tex = _texture(rng, (n_bg, DIGIT_SIDE, DIGIT_SIDE), TEXTURE_STD)
    fg_tex += glyphs
    return (
        LabeledDataset(data=DataMatrix(values=_columns(fg_tex)), labels=labels),
        DataMatrix(values=_columns(bg_tex)),
        DataMatrix(values=_columns(glyphs)),
    )


def _digit_glyphs(rng: SplitMix64, n_fg: int) -> tuple[np.ndarray, np.ndarray]:
    """The class labels and the ``(n_fg, 28, 28)`` glyph images, from their draws."""
    labels = rng.integers(n_fg, 2)
    jitter = rng.uniform(3 * n_fg).reshape(3, n_fg)
    return labels, GLYPH_AMP * _glyph_images(labels, jitter, DIGIT_SIDE)


def _columns(images: np.ndarray) -> np.ndarray:
    """``(count, H, W)`` images as the columns of a feature-major view."""
    return images.reshape(images.shape[0], -1).T


# ---------------------------------------------------------------------------
# Spliced images
# ---------------------------------------------------------------------------

def _polygon_mask(height: int, width: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Even-odd rasterization of a polygon over pixel centers.

    Each edge's crossing test and crossing abscissa depend on the row only,
    so they are formed over a column of pixel-center y and compared with a
    row of pixel-center x.
    """
    px = np.arange(width) + 0.5
    py = (np.arange(height) + 0.5)[:, None]
    inside = np.zeros((height, width), dtype=bool)
    left = np.empty((height, width), dtype=bool)
    j = len(xs) - 1
    for i in range(len(xs)):
        denom = ys[j] - ys[i]
        if denom == 0:
            j = i
            continue
        crosses = (ys[i] > py) != (ys[j] > py)
        x_at = (xs[j] - xs[i]) * (py - ys[i]) / denom + xs[i]
        np.less(px, x_at, out=left)
        left &= crosses
        inside ^= left
        j = i
    return inside


def _3x3(mask: np.ndarray, reduce: np.ufunc) -> np.ndarray:
    """``reduce`` over each pixel's 3x3 neighbourhood; outside the image is False.

    The nine shifted views are folded into one boolean output in place, so
    no (9, H, W) stack of them is formed.
    """
    height, width = mask.shape
    padded = np.pad(mask, 1)
    out = mask.astype(bool)
    for dy in range(3):
        for dx in range(3):
            reduce(out, padded[dy:dy + height, dx:dx + width], out=out)
    return out


def mask_boundary(mask: np.ndarray) -> np.ndarray:
    """Inner boundary of a boolean region, dilated by one pixel."""
    boundary = _3x3(mask, np.logical_and)
    np.logical_not(boundary, out=boundary)
    boundary &= mask
    return _3x3(boundary, np.logical_or)


# Spliced-image look: texture deviation in grey levels, donor exposure
# offset, per-channel tint deviation, and the interpolation dither left on
# the composite seam (all relative to unit texture deviation).
SPLICE_GREY_SCALE = 40.0
SPLICE_OFFSET = 0.5
SPLICE_TINT = 0.3
SPLICE_SEAM_DITHER = 1.2


def _fit_polygon(height, width, angles, radii, cx, cy, target):
    """Bisect the polygon's scale until its area fraction is in bounds; None if never."""
    lo_s, hi_s = 0.02, 1.5
    for _ in range(60):
        scale = (lo_s + hi_s) / 2
        r_pix = scale * min(width, height) * radii
        mask = _polygon_mask(height, width, cx + r_pix * np.cos(angles),
                             cy + r_pix * np.sin(angles))
        frac = mask.mean()
        if SPLICE_AREA[0] <= frac <= SPLICE_AREA[1]:
            return mask
        if frac < target:
            lo_s = scale
        else:
            hi_s = scale
    return None


def gen_spliced_image(seed: int, height: int = PROBE_SIDE, width: int = PROBE_SIDE
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One spliced probe plus its surface and boundary ground-truth masks.

    A polygonal region of an independently drawn donor texture is pasted
    into a host texture with an exposure offset; the composite seam carries
    a one-pixel-scale interpolation dither, the kind of high-frequency
    residue resampling leaves along a pasted contour, which authentic
    texture edges lack. Returns ``(probe, surface_mask, edge_truth)`` with
    the probe as (H, W, 3) uint8 and masks as (H, W) uint8 valued 0/255.
    The polygon is rescaled (no extra draws) until the spliced-pixel
    fraction lies inside ``SPLICE_AREA``; if the drawn vertex angles
    never get there, the same search runs once more with the vertices
    evenly spaced from the first angle. A height or width below 1 raises
    ArgumentError before anything is drawn. Draw order: vertex count,
    vertex angles, vertex radii, center x/y, target area, offset sign, then
    the host, donor, three host-tint and three donor-tint fields. The fields
    keep that order in the stream but are computed out of order, each from
    its own stream position: the donor, then the host, then per channel its
    donor tint and its host tint. Of a donor field only its values under
    the mask are kept, and a field is freed before the next is drawn, so
    at most one whole texture field is held beside the host/donor base.
    """
    check_size(height, width)
    rng = SplitMix64(seed)
    n_verts = 6 + int(rng.integers(1, 4)[0])
    angles = np.sort(rng.uniform(n_verts)) * 2 * np.pi
    radii = 0.9 + 0.1 * rng.uniform(n_verts)
    cx = width * (0.38 + 0.24 * rng.uniform(1)[0])
    cy = height * (0.38 + 0.24 * rng.uniform(1)[0])
    area_lo, area_hi = SPLICE_AREA
    target = area_lo + (area_hi - area_lo) * rng.uniform(1)[0]
    offset_sign = 1.0 if rng.uniform(1)[0] < 0.5 else -1.0

    mask = _fit_polygon(height, width, angles, radii, cx, cy, target)
    if mask is None:  # a vertex-angle gap above pi makes a sliver that misses its centre
        even = angles[0] + 2 * np.pi * np.arange(n_verts) / n_verts
        mask = _fit_polygon(height, width, even, radii, cx, cy, target)
    if mask is None:
        raise ArgumentError("could not fit a spliced region inside the area bounds")

    # field j is one _texture call at its own stream position, 4 H W words apart
    start = rng.position

    def field(j):
        return _texture(rng.at(start + 4 * height * width * j), (1, height, width), 1.0)[0]

    band = mask_boundary(mask)
    yy, xx = np.nonzero(band)
    # period-4 diagonal stripes: high-frequency against the smoothed texture
    # yet visible to a 3x3 gradient operator (a 1px checker would cancel)
    seam = SPLICE_SEAM_DITHER * (-1.0) ** ((xx + yy) // 2)
    del yy, xx
    donor = field(1)[mask]
    base = field(0)  # the host outside the mask, the donor inside it
    base[mask] = donor
    del donor
    probe_u8 = np.empty((height, width, 3), dtype=np.uint8)
    for c in range(3):
        donor_tint = field(5 + c)[mask]
        donor_tint *= SPLICE_TINT
        channel = field(2 + c)  # host tint
        channel *= SPLICE_TINT
        channel[mask] = donor_tint
        del donor_tint
        channel += base
        np.add(channel, offset_sign * SPLICE_OFFSET, out=channel, where=mask)
        channel[band] += seam
        channel *= SPLICE_GREY_SCALE
        channel += 128.0
        probe_u8[:, :, c] = np.clip(channel, 0, 255, out=channel)
        del channel
    return probe_u8, mask * np.uint8(255), band * np.uint8(255)
