"""Synthetic dataset generators and their closed-form oracles.

Every generator is a pure function of ``(spec, seed)`` on the portable
SplitMix64 stream, so fixtures are identical across platforms. Draw order is
part of each generator's contract and noted in its docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError
from .rng import SplitMix64
from .stats import DataMatrix

KINDS = ("four-class", "haystack", "textured-digits", "spliced-image")

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

TABLE_COUNTS = {
    "four-class": (400, 400),
    "textured-digits": (5000, 5000),
    "haystack": (400, 400),
    "spliced-image": (1, 1),
}


@dataclass(frozen=True)
class SyntheticSpec:
    """What to generate: kind, seed, sample counts, kind-specific scalars."""

    kind: str
    seed: int
    n_fg: int
    n_bg: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ArgumentError(f"unknown dataset kind {self.kind!r}")
        if self.n_fg < 1 or self.n_bg < 1:
            raise ArgumentError("sample counts must be at least 1")

    def param(self, name: str, default):
        return self.params.get(name, default)


def default_spec(kind: str, seed: int, **params) -> SyntheticSpec:
    """A spec with the standard sample counts for the kind."""
    n_fg, n_bg = TABLE_COUNTS[kind]
    return SyntheticSpec(kind=kind, seed=seed, n_fg=n_fg, n_bg=n_bg, params=params)


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

def gen_four_class(spec: SyntheticSpec) -> tuple[LabeledDataset, DataMatrix]:
    """Foreground mixture of four classes plus a structure-free background.

    Classes differ by mean offsets on blocks 1 and 2 (offsets 6 and 3); the
    third block is zero-mean noise in both partitions. Draw order: class
    labels, then the (30, n_fg) foreground normals in C order, then the
    (30, n_bg) background normals.
    """
    if spec.kind != "four-class":
        raise ArgumentError(f"spec kind is {spec.kind!r}, expected 'four-class'")
    rng = SplitMix64(spec.seed)
    labels = rng.integers(spec.n_fg, 4)
    fg = rng.normal((FOUR_CLASS_DIM, spec.n_fg))
    h3_sd = np.sqrt(spec.param("fg_h3_var", FG_H3_VAR))
    fg[0:BLOCK] += MEAN_1 * (labels >= 2).astype(float)
    fg[BLOCK:2 * BLOCK] += MEAN_2 * (labels % 2 == 1).astype(float)
    fg[2 * BLOCK:] *= h3_sd
    bg = rng.normal((FOUR_CLASS_DIM, spec.n_bg))
    for i, var in enumerate(BG_VARS):
        bg[i * BLOCK:(i + 1) * BLOCK] *= np.sqrt(var)
    return LabeledDataset(data=DataMatrix(values=fg), labels=labels), DataMatrix(values=bg)


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

def gen_haystack(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact rank-1-plus-noise covariances with planted directions.

    Returns ``(r_b, r_f, c, a)`` where ``a`` (first basis vector) carries the
    shared high-variance structure and ``c`` (second basis vector) the
    foreground-only structure. No sampling happens here; the matrices are
    analytic.
    """
    if spec.kind != "haystack":
        raise ArgumentError(f"spec kind is {spec.kind!r}, expected 'haystack'")
    gamma = spec.param("gamma", 10.0)
    beta = spec.param("beta", 5.0)
    eps = spec.param("eps", 0.1)
    rho = spec.param("rho", 0.01)
    m = int(spec.param("m", 4))
    if min(gamma, beta, eps, rho) <= 0:
        raise ArgumentError("all haystack scale parameters must be positive")
    if m < 2:
        raise ArgumentError("haystack needs at least 2 dimensions")
    if not (eps < beta and rho < gamma and beta * rho / gamma < eps):
        raise ArgumentError(
            "haystack parameters must satisfy eps < beta, rho < gamma and beta*rho/gamma < eps"
        )
    a = np.zeros(m)
    a[0] = 1.0
    c = np.zeros(m)
    c[1] = 1.0
    r_b = gamma * np.outer(a, a) + rho * np.eye(m)
    r_f = beta * np.outer(a, a) + eps * np.outer(c, c)
    return r_b, r_f, c, a


def sample_haystack(spec: SyntheticSpec) -> tuple[DataMatrix, DataMatrix]:
    """Gaussian draws matching the haystack covariances.

    Draw order: the n_fg shared-direction weights, the n_fg planted-direction
    weights, then the n_bg background weights followed by the (m, n_bg)
    isotropic noise block.
    """
    r_b, r_f, c, a = gen_haystack(spec)
    gamma = spec.param("gamma", 10.0)
    beta = spec.param("beta", 5.0)
    eps = spec.param("eps", 0.1)
    rho = spec.param("rho", 0.01)
    m = a.shape[0]
    rng = SplitMix64(spec.seed)
    g_shared = rng.normal(spec.n_fg)
    g_planted = rng.normal(spec.n_fg)
    fg = np.sqrt(beta) * np.outer(a, g_shared) + np.sqrt(eps) * np.outer(c, g_planted)
    g_bg = rng.normal(spec.n_bg)
    noise = rng.normal((m, spec.n_bg))
    bg = np.sqrt(gamma) * np.outer(a, g_bg) + np.sqrt(rho) * noise
    return DataMatrix(values=fg), DataMatrix(values=bg)


# ---------------------------------------------------------------------------
# Textured digits
# ---------------------------------------------------------------------------

_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def _smooth(field: np.ndarray, kernel: np.ndarray, axis: int, passes: int = 1) -> np.ndarray:
    """Separable reflect-padded convolution along one axis."""
    half = kernel.size // 2
    out = field
    for _ in range(passes):
        padded = np.pad(
            out,
            [(half, half) if ax == axis else (0, 0) for ax in range(out.ndim)],
            mode="reflect",
        )
        acc = np.zeros_like(out)
        for j, w in enumerate(kernel):
            sl = [slice(None)] * out.ndim
            sl[axis] = slice(j, j + out.shape[axis])
            acc += w * padded[tuple(sl)]
        out = acc
    return out


def _texture_batch(rng: SplitMix64, count: int, side: int, std: float,
                   passes_y: int, passes_x: int, floor: float = 0.0) -> np.ndarray:
    """Smoothed noise fields normalized to a fixed per-image deviation."""
    fields = rng.normal((count, side, side))
    fields = _smooth(fields, _BINOMIAL5, axis=1, passes=passes_y)
    fields = _smooth(fields, _BINOMIAL5, axis=2, passes=passes_x)
    if floor:
        fields = fields + floor * rng.normal((count, side, side))
    flat = fields.reshape(count, -1)
    flat -= flat.mean(axis=1, keepdims=True)
    scale = flat.std(axis=1, keepdims=True)
    scale[scale == 0] = 1.0
    return (flat * (std / scale)).reshape(count, side, side)


def _glyph_images(labels: np.ndarray, jitter: np.ndarray, side: int) -> np.ndarray:
    """Soft ring (class 0) and bar (class 1) strokes with positional jitter."""
    yy, xx = np.mgrid[0:side, 0:side].astype(float)
    count = labels.shape[0]
    out = np.empty((count, side, side))
    width = STROKE_WIDTH
    for i in range(count):
        j0, j1, j2 = jitter[:, i]
        if labels[i] == 0:
            cx = side / 2 + GLYPH_JITTER * (j0 - 0.5)
            cy = side / 2 + GLYPH_JITTER * (j1 - 0.5)
            radius = 6.0 + (j2 - 0.5)
            dist = np.hypot(xx - cx, yy - cy)
            out[i] = np.exp(-((dist - radius) ** 2) / (2 * width**2))
        else:
            x0 = side / 2 + 1.2 * GLYPH_JITTER * (j0 - 0.5)
            tilt = 0.4 * (j1 - 0.5)
            span = 9.0 + 2.0 * (j2 - 0.5)
            dx = xx - (x0 + tilt * (yy - side / 2))
            window = np.exp(-(((yy - side / 2) / span) ** 8))
            out[i] = np.exp(-(dx**2) / (2 * width**2)) * window
    return out


def gen_textured_digits(spec: SyntheticSpec) -> tuple[LabeledDataset, DataMatrix, DataMatrix]:
    """Two glyph classes superimposed on high-variance smoothed-noise texture.

    Returns (foreground, background, clean): foreground images are
    ``texture + glyph``, background images are texture only, and clean
    images are the bare glyphs used as denoising ground truth. Images are
    28x28, flattened row-major into 784-dim columns. Draw order: class
    labels, per-glyph jitter triples, foreground texture fields (smoothed
    field then noise floor per batch), background texture fields.
    """
    if spec.kind != "textured-digits":
        raise ArgumentError(f"spec kind is {spec.kind!r}, expected 'textured-digits'")
    side = DIGIT_SIDE
    amp = spec.param("glyph_amp", GLYPH_AMP)
    std = spec.param("texture_std", TEXTURE_STD)
    rng = SplitMix64(spec.seed)
    labels = rng.integers(spec.n_fg, 2)
    jitter = rng.uniform(3 * spec.n_fg).reshape(3, spec.n_fg)
    glyphs = amp * _glyph_images(labels, jitter, side)
    fg_tex = _texture_batch(rng, spec.n_fg, side, std,
                            passes_y=TEXTURE_PASSES, passes_x=TEXTURE_PASSES, floor=TEXTURE_FLOOR)
    bg_tex = _texture_batch(rng, spec.n_bg, side, std,
                            passes_y=TEXTURE_PASSES, passes_x=TEXTURE_PASSES, floor=TEXTURE_FLOOR)
    composite = fg_tex + glyphs

    def to_cols(imgs):
        return DataMatrix(values=imgs.reshape(imgs.shape[0], -1).T)

    return (
        LabeledDataset(data=to_cols(composite), labels=labels),
        to_cols(bg_tex),
        to_cols(glyphs),
    )


# ---------------------------------------------------------------------------
# Spliced images
# ---------------------------------------------------------------------------

def _polygon_mask(height: int, width: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Even-odd rasterization of a polygon over pixel centers."""
    px, py = np.meshgrid(np.arange(width) + 0.5, np.arange(height) + 0.5)
    inside = np.zeros((height, width), dtype=bool)
    j = len(xs) - 1
    for i in range(len(xs)):
        denom = ys[j] - ys[i]
        if denom == 0:
            j = i
            continue
        crosses = (ys[i] > py) != (ys[j] > py)
        x_at = (xs[j] - xs[i]) * (py - ys[i]) / denom + xs[i]
        inside ^= crosses & (px < x_at)
        j = i
    return inside


def _shift(mask: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(mask)
    ys = slice(max(dy, 0), mask.shape[0] + min(dy, 0))
    xs = slice(max(dx, 0), mask.shape[1] + min(dx, 0))
    ys_src = slice(max(-dy, 0), mask.shape[0] + min(-dy, 0))
    xs_src = slice(max(-dx, 0), mask.shape[1] + min(-dx, 0))
    out[ys, xs] = mask[ys_src, xs_src]
    return out


def _dilate(mask: np.ndarray) -> np.ndarray:
    out = mask.copy()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out |= _shift(mask, dy, dx)
    return out


def _erode(mask: np.ndarray) -> np.ndarray:
    out = mask.copy()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out &= _shift(mask, dy, dx)
    return out


def mask_boundary(mask: np.ndarray) -> np.ndarray:
    """Inner boundary of a boolean region, dilated by one pixel."""
    return _dilate(mask & ~_erode(mask))


# Spliced-image look: texture deviation in grey levels, donor exposure
# offset, per-channel tint deviation, and the interpolation dither left on
# the composite seam (all relative to unit texture deviation).
SPLICE_GREY_SCALE = 40.0
SPLICE_OFFSET = 0.5
SPLICE_TINT = 0.3
SPLICE_SEAM_DITHER = 1.2
SPLICE_PASSES = 3
SPLICE_FLOOR = 0.05


def _splice_field(rng: SplitMix64, height: int, width: int) -> np.ndarray:
    """One smoothed unit-deviation texture field with a high-frequency floor."""
    field = rng.normal((1, height, width))
    field = _smooth(field, _BINOMIAL5, axis=1, passes=SPLICE_PASSES)
    field = _smooth(field, _BINOMIAL5, axis=2, passes=SPLICE_PASSES)
    field = field[0] + SPLICE_FLOOR * rng.normal((height, width))
    field -= field.mean()
    dev = field.std()
    return field / dev if dev > 0 else field


def _fit_polygon(height, width, angles, radii, cx, cy, area_lo, area_hi, target):
    """Bisect the polygon's scale until its area fraction is in bounds; None if never."""
    lo_s, hi_s = 0.02, 1.5
    for _ in range(60):
        scale = (lo_s + hi_s) / 2
        r_pix = scale * min(width, height) * radii
        mask = _polygon_mask(height, width, cx + r_pix * np.cos(angles),
                             cy + r_pix * np.sin(angles))
        frac = mask.mean()
        if area_lo <= frac <= area_hi:
            return mask
        if frac < target:
            lo_s = scale
        else:
            hi_s = scale
    return None


def gen_spliced_image(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One spliced probe plus its surface and boundary ground-truth masks.

    A polygonal region of an independently drawn donor texture is pasted
    into a host texture with an exposure offset; the composite seam carries
    a one-pixel-scale interpolation dither, the kind of high-frequency
    residue resampling leaves along a pasted contour, which authentic
    texture edges lack. Returns ``(probe, surface_mask, edge_truth)`` with
    the probe as (H, W, 3) uint8 and masks as (H, W) uint8 valued 0/255.
    The polygon is rescaled (no extra draws) until the spliced-pixel
    fraction lies inside ``(area_lo, area_hi)``; if the drawn vertex angles
    never get there, the same search runs once more with the vertices
    evenly spaced from the first angle. Draw order: vertex count,
    vertex angles, vertex radii, center x/y, target area, offset sign, then
    the host, donor, three host-tint and three donor-tint fields.
    """
    if spec.kind != "spliced-image":
        raise ArgumentError(f"spec kind is {spec.kind!r}, expected 'spliced-image'")
    height = int(spec.param("height", 64))
    width = int(spec.param("width", 64))
    area_lo = spec.param("area_lo", 0.08)
    area_hi = spec.param("area_hi", 0.20)
    if not 0 < area_lo < area_hi < 1:
        raise ArgumentError("area bounds must satisfy 0 < lo < hi < 1")
    rng = SplitMix64(spec.seed)
    n_verts = 6 + int(rng.integers(1, 4)[0])
    angles = np.sort(rng.uniform(n_verts)) * 2 * np.pi
    radii = 0.9 + 0.1 * rng.uniform(n_verts)
    cx = width * (0.38 + 0.24 * rng.uniform(1)[0])
    cy = height * (0.38 + 0.24 * rng.uniform(1)[0])
    target = area_lo + (area_hi - area_lo) * rng.uniform(1)[0]
    offset_sign = 1.0 if rng.uniform(1)[0] < 0.5 else -1.0

    mask = _fit_polygon(height, width, angles, radii, cx, cy, area_lo, area_hi, target)
    if mask is None:  # a vertex-angle gap above pi makes a sliver that misses its centre
        even = angles[0] + 2 * np.pi * np.arange(n_verts) / n_verts
        mask = _fit_polygon(height, width, even, radii, cx, cy, area_lo, area_hi, target)
    if mask is None:
        raise ArgumentError("could not fit a spliced region inside the area bounds")

    host = _splice_field(rng, height, width)
    donor = _splice_field(rng, height, width)
    host_tints = [_splice_field(rng, height, width) for _ in range(3)]
    donor_tints = [_splice_field(rng, height, width) for _ in range(3)]
    probe = np.stack([host + SPLICE_TINT * t for t in host_tints], axis=-1)
    donor_rgb = np.stack(
        [donor + SPLICE_TINT * t + offset_sign * SPLICE_OFFSET for t in donor_tints], axis=-1
    )
    probe[mask] = donor_rgb[mask]
    band = mask_boundary(mask)
    yy, xx = np.mgrid[0:height, 0:width]
    # period-4 diagonal stripes: high-frequency against the smoothed texture
    # yet visible to a 3x3 gradient operator (a 1px checker would cancel)
    dither = (-1.0) ** ((xx + yy) // 2)
    probe[band] += SPLICE_SEAM_DITHER * dither[band, None]
    probe_u8 = np.clip(128.0 + SPLICE_GREY_SCALE * probe, 0, 255).astype(np.uint8)
    surface = np.where(mask, 255, 0).astype(np.uint8)
    edge = np.where(band, 255, 0).astype(np.uint8)
    return probe_u8, surface, edge
