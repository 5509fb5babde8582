"""Patch pipeline: edges, extraction, labeling, scoring, maps, and metrics."""

import math

import numpy as np
import pytest

from cpcapp import (
    ArgumentError,
    ConfusionCounts,
    CpcappError,
    DataMatrix,
    FilterBank,
    Lattice,
    PatchGrid,
    ProbabilityMap,
    ShapeError,
    binarize_and_score,
    edge_mask,
    extract_patches,
    f1_score,
    gen_spliced_image,
    label_patches,
    mcc_score,
    random_scorer_expected_f1,
    reconstruct_map,
    score_lattice,
    score_patches,
    splice_pair,
)
from cpcapp.reducers import TRANSFORM_BLOCK

from conftest import traced_peak


def axis_bank(m, k=1):
    f = np.zeros((m, k))
    for i in range(k):
        f[i, i] = 1.0
    return FilterBank(method="pca", f=f, train_mean_bg=np.zeros(m),
                      train_mean_fg=np.zeros(m), eigenvalues=np.zeros(k), loading=0.0)


def random_bank(rng, m, k=6):
    """A bank of min(k, m) random orthonormal filters over m features."""
    f, _ = np.linalg.qr(rng.standard_normal((m, min(k, m))))
    return FilterBank(method="pca", f=f, train_mean_bg=np.zeros(m), train_mean_fg=np.zeros(m),
                      eigenvalues=np.arange(f.shape[1], 0.0, -1.0), loading=0.0)


class TestEdgeMask:
    def test_constant_image_gives_empty_mask(self):
        assert edge_mask(np.full((10, 12), 77, dtype=np.uint8)).sum() == 0

    def test_vertical_step(self):
        img = np.zeros((16, 16), dtype=np.uint8)
        img[:, 8:] = 200
        mask = edge_mask(img)
        assert mask[:, 7:9].all()
        assert mask[:, :6].sum() == 0 and mask[:, 10:].sum() == 0

    def test_recall_of_spliced_boundary(self):
        probe, _, edge_truth = gen_spliced_image(3)
        mask = edge_mask(probe)
        truth = edge_truth > 0
        recall = (mask[truth] > 0).mean()
        assert recall >= 0.7

    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            edge_mask(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_image(self, rng, bad):
        for shape in ((16, 16), (16, 16, 3)):
            image = 255 * rng.random(shape)
            image[3, 4] = bad
            with pytest.raises(ArgumentError, match="image contains non-finite values"):
                edge_mask(image)

    # (257, 300, 3) widens its luma in two row bands
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 3), (16, 16, 3), (33, 20), (40, 31, 3),
                                       (257, 300, 3)])
    def test_matches_tap_loop(self, rng, shape):
        for image in (rng.integers(0, 256, shape).astype(np.uint8),
                      np.full(shape, 77, dtype=np.uint8)):
            assert edge_mask(image).tobytes() == _loop_edge_mask(image).tobytes()

    def test_peak_on_a_large_probe(self):
        # luma is widened in row bands, never as a whole float RGB copy; the
        # peak is the padded luma, gx, gy and one tap temporary, and hypot
        # writes into gx once the padded luma is released
        side = 512
        probe = gen_spliced_image(5, side, side)[0]
        assert edge_mask(probe).tobytes() == _loop_edge_mask(probe).tobytes()
        peak = traced_peak(lambda: edge_mask(probe))
        assert peak <= 4.5 * side * side * 8

    def test_holds_only_the_magnitude(self):
        # row bands: the magnitude field, one band of luma and taps, the mask
        side = 512
        probe = gen_spliced_image(5, side, side)[0]
        peak = traced_peak(lambda: edge_mask(probe))
        assert peak <= 2.0 * side * side * 8


def _loop_edge_mask(image):
    """The 18-tap Sobel loop edge_mask replaced: every tap, zero weights included,
    on the luma of the whole image widened to float at once."""
    from cpcapp.splicing import _LUMA, _as_image, _otsu_threshold

    sobel_x = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    image = _as_image(image).astype(float)
    gray = image[:, :, 0] if image.shape[2] == 1 else image @ _LUMA
    padded = np.pad(gray, 1, mode="edge")
    gx = np.zeros_like(gray)
    gy = np.zeros_like(gray)
    for dy in range(3):
        for dx in range(3):
            window = padded[dy:dy + gray.shape[0], dx:dx + gray.shape[1]]
            gx += sobel_x[dy, dx] * window
            gy += sobel_x[dx, dy] * window
    magnitude = np.hypot(gx, gy)
    if magnitude.max() == 0:
        return np.zeros(gray.shape, dtype=np.uint8)
    return np.where(magnitude > _otsu_threshold(magnitude), 255, 0).astype(np.uint8)


def _whole_otsu(values):
    """Otsu's level from one histogram of all of ``values``."""
    hist, edges = np.histogram(values, bins=256, range=(0.0, float(values.max())))
    omega0 = np.cumsum(hist) / values.size
    mu_cum = np.cumsum(hist * (edges[:-1] + edges[1:]) / 2) / values.size
    omega1 = 1.0 - omega0
    valid = (omega0 > 0) & (omega1 > 0)
    between = np.zeros(256)
    between[valid] = (mu_cum[-1] * omega0[valid] - mu_cum[valid]) ** 2 / (
        omega0[valid] * omega1[valid])
    return float(edges[int(np.argmax(between)) + 1])


def _whole_edge_mask(image):
    """The whole-image edge_mask the row bands replaced: one padded luma, whole-image
    taps and hypot, one histogram."""
    from cpcapp.splicing import _LUMA, _as_image

    image = _as_image(image)
    h, w = image.shape[:2]
    gray = image[:, :, 0].astype(float) if image.shape[2] == 1 else image.astype(float) @ _LUMA
    padded = np.pad(gray, 1, mode="edge")

    def t(dy, dx):
        return padded[dy:dy + h, dx:dx + w]

    gx = t(0, 2) - t(0, 0) - 2 * t(1, 0) + 2 * t(1, 2) - t(2, 0) + t(2, 2)
    gy = -t(0, 0) - 2 * t(0, 1) - t(0, 2) + t(2, 0) + 2 * t(2, 1) + t(2, 2)
    magnitude = np.hypot(gx, gy)
    if magnitude.max() == 0:
        return np.zeros((h, w), dtype=np.uint8)
    return np.where(magnitude > _whole_otsu(magnitude), 255, 0).astype(np.uint8)


def _whole_map(scores, lattice, edge):
    """The whole-image reconstruct_map the row bands replaced: a cover field
    beside the sums, one masked divide."""
    rows, cols, s = lattice.rows, lattice.cols, lattice.stride
    acc = np.zeros((lattice.image_h, lattice.image_w))
    cover = np.zeros_like(acc)
    for dy in range(lattice.n - 1, -1, -1):
        for dx in range(lattice.n - 1, -1, -1):
            cell = np.s_[dy:dy + rows * s:s, dx:dx + cols * s:s]
            acc[cell] += np.asarray(scores).reshape(rows, cols)
            cover[cell] += 1.0
    np.divide(acc, cover, out=acc, where=cover > 0)
    acc *= np.asarray(edge) > 0
    return acc


# sizes no row band divides (one-row last bands included), and single rows and columns
BAND_EDGE_SIZES = [(1, 1), (1, 513), (513, 1), (3, 5), (129, 513), (32, 513), (16390, 1)]


class TestBandEdges:
    """The row-band edge mask and map equal the whole-image expressions, bit for bit."""

    @pytest.mark.parametrize("size", BAND_EDGE_SIZES)
    @pytest.mark.parametrize("channels", [(), (3,)])
    def test_edge_mask(self, rng, size, channels):
        shape = size + channels
        for image in (rng.integers(0, 256, shape, dtype=np.uint8),
                      np.full(shape, 77, dtype=np.uint8), 255 * rng.random(shape)):
            assert edge_mask(image).tobytes() == _whole_edge_mask(image).tobytes()

    def test_edge_mask_of_a_spliced_probe(self):
        probe = gen_spliced_image(6, 129, 513)[0]
        assert edge_mask(probe).tobytes() == _whole_edge_mask(probe).tobytes()

    @pytest.mark.parametrize("size, n, stride", [((1, 1), 1, 1), ((1, 513), 1, 2), ((513, 1), 1, 3),
                                                 ((3, 5), 2, 2), ((129, 513), 8, 5),
                                                 ((129, 513), 3, 1), ((32, 513), 7, 9),
                                                 ((16390, 1), 1, 4)])
    def test_reconstruct_map(self, rng, size, n, stride):
        lattice = Lattice(image_w=size[1], image_h=size[0], n=n, stride=stride)
        scores = rng.random(lattice.rows * lattice.cols)
        edge = (rng.random(size) < 0.6).astype(np.uint8) * 255
        got = reconstruct_map(scores, lattice, edge).values
        assert got.tobytes() == _whole_map(scores, lattice, edge).tobytes()


class TestExtractPatches:
    def test_single_patch(self):
        grid = extract_patches(np.arange(64.0).reshape(8, 8), 8, 4)
        assert grid.patches.samples == 1
        assert (grid.rows, grid.cols) == (1, 1)

    def test_two_patches_wide_image(self):
        grid = extract_patches(np.zeros((8, 12)), 8, 4)
        assert grid.patches.samples == 2
        assert (grid.rows, grid.cols) == (1, 2)  # origins (0, 0) and (0, 4)

    def test_flattening_round_trip(self, rng):
        img = rng.integers(0, 255, size=(20, 24, 3)).astype(np.uint8)
        grid = extract_patches(img, 8, 4)
        assert (grid.rows, grid.cols) == (4, 5)
        i = 7
        r, c = i // grid.cols * 4, i % grid.cols * 4
        assert (r, c) == (4, 8)
        col = grid.patches.values[:, i].reshape(3, 8, 8)  # channel-major
        window = np.moveaxis(img[r:r + 8, c:c + 8, :].astype(float), 2, 0)
        np.testing.assert_array_equal(col, window)

    def test_rejects_oversize_patch(self):
        with pytest.raises(ArgumentError):
            extract_patches(np.zeros((6, 6)), 8, 4)

    def test_builds_patch_matrix_with_one_copy(self):
        # a float image needs no conversion; a uint8 one is converted while
        # it is copied into the patch matrix, never as a whole float image
        for dtype in (float, np.uint8):
            image = np.zeros((128, 128, 3), dtype=dtype)
            grids = []
            peak = traced_peak(lambda: grids.append(extract_patches(image, 8, 4)))
            values = grids[0].patches.values
            assert values.flags.c_contiguous
            assert peak < 1.25 * values.nbytes, dtype

    @pytest.mark.parametrize("stride, samples", [(4, 3), (0, 2)])
    def test_grid_rejects_patches_off_the_lattice(self, stride, samples):
        with pytest.raises(ShapeError, match="one patch per origin"):
            PatchGrid(image_w=12, image_h=8, n=8, stride=stride,
                      patches=DataMatrix(values=np.zeros((64, samples))))

    @pytest.mark.parametrize("rows", [63, 65, 96])
    def test_grid_rejects_rows_off_whole_patches(self, rows):
        with pytest.raises(ShapeError, match="multiple of n"):
            PatchGrid(image_w=12, image_h=8, n=8, stride=4,
                      patches=DataMatrix(values=np.zeros((rows, 2))))

    @pytest.mark.parametrize("n", [0, -2])
    def test_rejects_nonpositive_patch_size(self, n):
        with pytest.raises(ArgumentError, match=r"patch size -?\d+ is outside \[1, 6\]"):
            extract_patches(np.zeros((6, 6)), n, 4)


def _loop_origins(height, width, n, stride):
    return [(r, c) for r in range(0, height - n + 1, stride)
            for c in range(0, width - n + 1, stride)]


def _loop_extract(image, n, stride):
    """Per-patch reference: one column per origin, channel-major."""
    image = np.asarray(image, dtype=float)
    image = image[:, :, None] if image.ndim == 2 else image
    origins = _loop_origins(image.shape[0], image.shape[1], n, stride)
    columns = np.empty((image.shape[2] * n * n, len(origins)))
    for i, (r, c) in enumerate(origins):
        columns[:, i] = np.moveaxis(image[r:r + n, c:c + n, :], 2, 0).ravel()
    return columns


def _loop_label(surface, edge, n, stride, fg_range, bg_edge_min):
    """Per-patch reference for label_patches."""
    surface, edges = np.asarray(surface) > 0, np.asarray(edge) > 0
    fg, bg = [], []
    for i, (r, c) in enumerate(_loop_origins(*surface.shape, n, stride)):
        frac = surface[r:r + n, c:c + n].mean()
        if fg_range[0] <= frac <= fg_range[1]:
            fg.append(i)
        elif frac == 0.0 and edges[r:r + n, c:c + n].mean() >= bg_edge_min:
            bg.append(i)
    return np.array(fg, dtype=int), np.array(bg, dtype=int)


def _loop_map(scores, shape, n, stride, edge):
    """Per-patch reference for reconstruct_map, summed in patch-index order."""
    acc, cover = np.zeros(shape), np.zeros(shape)
    for i, (r, c) in enumerate(_loop_origins(*shape, n, stride)):
        acc[r:r + n, c:c + n] += scores[i]
        cover[r:r + n, c:c + n] += 1.0
    covered = cover > 0
    acc[covered] /= cover[covered]
    return acc * (np.asarray(edge) > 0)


LATTICE_CASES = [
    ((32, 32, 3), 8, 4),
    ((37, 53), 8, 3),      # stride divides neither extent
    ((37, 53, 3), 5, 7),   # stride > n: uncovered columns between patches
    ((24, 30), 8, 1),
    ((29, 31, 3), 3, 5),
    ((37, 53), 37, 1),     # one patch row spanning the full height
    ((9, 11, 3), 1, 1),
    ((20, 44), 8, 8),
]


class TestLatticeMatchesPatchLoops:
    """Byte equality of the lattice code with the per-patch loops it replaced."""

    @pytest.mark.parametrize("shape, n, stride", LATTICE_CASES)
    def test_patches_labels_and_map(self, rng, shape, n, stride):
        image = rng.integers(0, 256, size=shape).astype(np.uint8)
        surface = np.zeros(shape[:2], dtype=np.uint8)
        surface[shape[0] // 3:, shape[1] // 2:] = 255
        edge = (rng.random(shape[:2]) < 0.3).astype(np.uint8) * 255
        grid = extract_patches(image, n, stride)
        assert grid.patches.values.flags.c_contiguous
        assert grid.patches.values.tobytes() == _loop_extract(image, n, stride).tobytes()

        for fg_range, bg_edge_min in [((0.3, 0.7), 0.05), ((0.0, 0.5), 0.0), ((0.2, 1.0), 0.3)]:
            fg, bg = label_patches(grid, surface, edge, fg_range=fg_range,
                                   bg_edge_min=bg_edge_min)
            want_fg, want_bg = _loop_label(surface, edge, n, stride, fg_range, bg_edge_min)
            assert fg.dtype == want_fg.dtype and bg.dtype == want_bg.dtype
            assert fg.tobytes() == want_fg.tobytes()
            assert bg.tobytes() == want_bg.tobytes()

        scores = rng.random(grid.patches.samples)
        pmap = reconstruct_map(scores, grid, edge)
        assert pmap.values.tobytes() == _loop_map(scores, shape[:2], n, stride, edge).tobytes()

    def test_spliced_probe(self):
        probe, surface, _ = gen_spliced_image(11)
        edge = edge_mask(probe)
        grid = extract_patches(probe, 8, 4)
        assert grid.patches.values.tobytes() == _loop_extract(probe, 8, 4).tobytes()
        fg, bg = label_patches(grid, surface, edge)
        want_fg, want_bg = _loop_label(surface, edge, 8, 4, (0.3, 0.7), 0.05)
        assert fg.size and bg.size
        assert (fg.tobytes(), bg.tobytes()) == (want_fg.tobytes(), want_bg.tobytes())
        # scores with many distinct mantissas, so a changed summation order shows
        scores = np.sqrt(np.arange(1.0, grid.patches.samples + 1)) / 7.0
        scores /= scores.max()
        pmap = reconstruct_map(scores, grid, edge)
        want = _loop_map(scores, surface.shape, 8, 4, edge)
        assert pmap.values.tobytes() == want.tobytes()


def _patch_matrix_chain(bank, image, n, stride, edge):
    """The path score_lattice replaced: extract the patch matrix, score it, reconstruct."""
    grid = extract_patches(image, n, stride)
    scores = score_patches(bank, grid.patches)
    return scores, reconstruct_map(scores, grid, edge)


class TestScoreLattice:
    """Byte equality of banded scoring with the patch-matrix chain."""

    def _check(self, rng, image, n, stride):
        channels = 1 if image.ndim == 2 else image.shape[2]
        bank = random_bank(rng, channels * n * n)
        edge = (rng.random(image.shape[:2]) < 0.3).astype(np.uint8) * 255
        scores, lattice = score_lattice(bank, image, stride)
        want_scores, want_map = _patch_matrix_chain(bank, image, n, stride, edge)
        assert scores.tobytes() == want_scores.tobytes()
        assert reconstruct_map(scores, lattice, edge).values.tobytes() == want_map.values.tobytes()
        return lattice

    @pytest.mark.parametrize("dtype", [np.uint8, float])
    @pytest.mark.parametrize("shape, n, stride", LATTICE_CASES)
    def test_matches_patch_matrix_chain(self, rng, shape, n, stride, dtype):
        image = 255 * rng.random(shape) if dtype is float else rng.integers(0, 256, shape,
                                                                             dtype=np.uint8)
        self._check(rng, image, n, stride)

    @pytest.mark.parametrize("shape, n, stride, rows, cols", [
        ((300, 300), 8, 4, 74, 74),      # two bands of whole rows
        ((4200, 3), 3, 1, 4198, 1),      # one-column lattice in two bands
        ((40, 8), 8, 1, 33, 1),
        ((8, 8), 8, 4, 1, 1),            # one patch
        ((9, 9, 3), 9, 2, 1, 1),
    ])
    def test_band_edges(self, rng, shape, n, stride, rows, cols):
        lattice = self._check(rng, rng.integers(0, 256, shape, dtype=np.uint8), n, stride)
        assert (lattice.rows, lattice.cols) == (rows, cols)

    def test_spliced_probe(self, rng):
        probe = gen_spliced_image(11)[0]
        assert self._check(rng, probe, 8, 4).rows == 15

    def test_holds_one_band_of_patches(self, rng):
        # a 512x512 probe has 16129 patches; only one band of at most
        # TRANSFORM_BLOCK of them is copied out at a time
        probe = gen_spliced_image(5, 512, 512)[0]
        bank = random_bank(rng, 192)
        peak = traced_peak(lambda: score_lattice(bank, probe, 4))
        assert peak <= 1.15 * bank.features * TRANSFORM_BLOCK * 8

    def test_holds_about_a_thousand_patches(self, rng):
        # bands of about 1,024 patches: under 1.2 H x W float fields of a 512^2 probe
        side = 512
        probe = gen_spliced_image(5, side, side)[0]
        bank = random_bank(rng, 192)
        peak = traced_peak(lambda: score_lattice(bank, probe, 4))
        assert peak <= 1.2 * side * side * 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_probe(self, rng, bad):
        image = 255 * rng.random((16, 16))
        image[3, 4] = bad
        for score in (lambda: score_lattice(axis_bank(64), image, 4),
                      lambda: score_patches(axis_bank(64), extract_patches(image, 8, 4).patches)):
            with pytest.raises(ArgumentError, match="non-finite"):
                score()

    @pytest.mark.parametrize("n, stride, message", [(9, 4, r"patch size 9 is outside \[1, 8\]"),
                                                    (8, 0, "stride must be positive")])
    def test_rejects_lattice_off_the_image(self, n, stride, message):
        with pytest.raises(ArgumentError, match=message):
            score_lattice(axis_bank(n * n), np.zeros((8, 8)), stride)

    def test_rejects_bank_of_other_patch_size(self):
        message = r"model has M=64 features, which is not c\*n\^2 for a probe of c=3 channels"
        with pytest.raises(ShapeError, match=message):
            score_lattice(axis_bank(64), np.zeros((8, 8, 3)), 4)

    @pytest.mark.parametrize("features, shape, channels", [
        (64, (2, 2, 3), 3),     # a grey 8x8 model on an RGB probe
        (192, (4, 4), 1),       # an RGB 8x8 model on a grey probe
    ])
    def test_rejects_model_of_other_channel_count(self, features, shape, channels):
        # the probes are too small for the patch size isqrt(M // c): the shape
        # check raises before any lattice is built
        message = (rf"model has M={features} features, which is not c\*n\^2 "
                   rf"for a probe of c={channels} channels")
        with pytest.raises(ShapeError, match=message):
            score_lattice(axis_bank(features), np.zeros(shape), 4)


class TestLabelPatches:
    def _grid_and_masks(self):
        img = np.zeros((8, 16))
        grid = extract_patches(img, 8, 4)  # origins at columns 0, 4, 8
        surface = np.zeros((8, 16), dtype=np.uint8)
        edge = np.zeros((8, 16), dtype=np.uint8)
        return grid, surface, edge

    def test_fully_spliced_patch_unlabeled(self):
        grid, surface, edge = self._grid_and_masks()
        surface[:, :] = 255
        fg, bg = label_patches(grid, surface, edge)
        assert fg.size == 0 and bg.size == 0

    def test_half_spliced_patch_is_foreground(self):
        grid, surface, edge = self._grid_and_masks()
        surface[:, :4] = 255  # patch 0 is half spliced; patches 1 and 2 untouched
        fg, bg = label_patches(grid, surface, edge)
        assert 0 in fg

    def test_background_requires_edge_floor(self):
        grid, surface, edge = self._grid_and_masks()
        fg, bg = label_patches(grid, surface, edge, bg_edge_min=0.05)
        assert bg.size == 0
        edge[:, 8:] = 255
        fg, bg = label_patches(grid, surface, edge, bg_edge_min=0.05)
        assert 2 in bg

    def test_rejects_inverted_range(self):
        grid, surface, edge = self._grid_and_masks()
        with pytest.raises(ArgumentError):
            label_patches(grid, surface, edge, fg_range=(0.7, 0.3))

    @pytest.mark.parametrize("fg_range", [(np.nan, 0.7), (0.3, np.nan), (-3.0, 0.7),
                                          (0.3, 1.5), (-np.inf, np.inf)])
    def test_rejects_range_outside_unit_interval(self, fg_range):
        grid, surface, edge = self._grid_and_masks()
        with pytest.raises(ArgumentError, match=r"0 <= lo <= hi <= 1, got \("):
            label_patches(grid, surface, edge, fg_range=fg_range)

    @pytest.mark.parametrize("bg_edge_min", [np.nan, -0.1, 1.5, np.inf])
    def test_rejects_edge_floor_outside_unit_interval(self, bg_edge_min):
        grid, surface, edge = self._grid_and_masks()
        with pytest.raises(ArgumentError, match=f"in \\[0, 1\\], got {bg_edge_min}"):
            label_patches(grid, surface, edge, bg_edge_min=bg_edge_min)

    def test_accepts_closed_unit_interval_bounds(self):
        grid, surface, edge = self._grid_and_masks()
        fg, bg = label_patches(grid, surface, edge, fg_range=(0.0, 1.0), bg_edge_min=1.0)
        assert fg.size == 3 and bg.size == 0  # every patch is 0% spliced


class TestScorePatches:
    def test_single_patch_self_normalizes(self):
        # the batch mean is 0, so the one patch off the mean scores exactly 1
        bank = axis_bank(4)
        data = DataMatrix(values=np.array([[3.0, -1.0, -1.0, -1.0]] + 3 * [[0.0] * 4]))
        scores = score_patches(bank, data)
        np.testing.assert_array_equal(scores, [1.0, 1 / 9, 1 / 9, 1 / 9])
        # a lone patch is its own mean: nothing is left to score
        np.testing.assert_array_equal(score_patches(bank, DataMatrix(values=data.values[:, :1])),
                                      [0.0])

    def test_direct_formula(self):
        bank = axis_bank(2)
        data = DataMatrix(values=np.array([[2.0, -1.0, 0.0, -1.0], [0.0, 0.0, 5.0, -5.0]]))
        scores = score_patches(bank, data)
        np.testing.assert_allclose(scores, [1.0, 0.25, 0.0, 0.25])

    def test_zero_projection_gives_zeros(self):
        bank = axis_bank(3)
        data = DataMatrix(values=np.full((3, 4), 7.0))  # centered with its own mean: zeros
        np.testing.assert_array_equal(score_patches(bank, data), np.zeros(4))

    def test_permutation_equivariance(self, rng):
        bank = axis_bank(5, k=2)
        values = rng.standard_normal((5, 9))
        perm = rng.permutation(9)
        s1 = score_patches(bank, DataMatrix(values=values))
        s2 = score_patches(bank, DataMatrix(values=values[:, perm]))
        np.testing.assert_allclose(s2, s1[perm], atol=1e-12)

    def test_projects_in_column_blocks(self, rng):
        # a 512x512 probe gives 16129 patches, four transform blocks; the
        # projection holds one centered block, not a centered patch matrix
        grid = extract_patches(rng.integers(0, 256, (512, 512, 3)).astype(np.uint8), 8, 4)
        assert grid.patches.samples > 3 * TRANSFORM_BLOCK
        bank = random_bank(rng, grid.patches.features)
        peak = traced_peak(lambda: score_patches(bank, grid.patches))
        assert peak <= 0.4 * grid.patches.values.nbytes

    def test_separates_boundary_from_background_patches(self):
        from cpcapp import SplitMix64, fit_cpcapp

        seeds = SplitMix64(7).spawn_seeds(4)
        bank = fit_cpcapp(splice_pair((s, *gen_spliced_image(s)[:2]) for s in seeds[:3]), 6)
        probe, surface, _ = gen_spliced_image(seeds[3])
        edge = edge_mask(probe)
        grid = extract_patches(probe, 8, 4)
        fg_idx, bg_idx = label_patches(grid, surface, edge)
        scores = score_patches(bank, grid.patches)
        assert scores[fg_idx].mean() > scores[bg_idx].mean()


class TestSplicePair:
    def test_no_boundary_patch_is_an_error(self):
        probe, surface, _ = gen_spliced_image(3)
        with pytest.raises(CpcappError, match="no labeled patches"):
            splice_pair([("p0", probe, np.zeros_like(surface))])


class TestReconstructMap:
    def test_full_cover_full_mask(self):
        grid = extract_patches(np.zeros((8, 8)), 8, 4)
        pmap = reconstruct_map([1.0], grid, np.full((8, 8), 255, dtype=np.uint8))
        np.testing.assert_array_equal(pmap.values, np.ones((8, 8)))

    def test_zero_mask_zeroes_map(self):
        grid = extract_patches(np.zeros((8, 8)), 8, 4)
        pmap = reconstruct_map([1.0], grid, np.zeros((8, 8), dtype=np.uint8))
        np.testing.assert_array_equal(pmap.values, np.zeros((8, 8)))

    def test_overlap_averages(self):
        grid = extract_patches(np.zeros((8, 12)), 8, 4)
        full = np.full((8, 12), 255, dtype=np.uint8)
        pmap = reconstruct_map([0.2, 0.8], grid, full)
        np.testing.assert_allclose(pmap.values[:, :4], 0.2)
        np.testing.assert_allclose(pmap.values[:, 4:8], 0.5)
        np.testing.assert_allclose(pmap.values[:, 8:], 0.8)

    def test_bounded_by_edge_mask(self, rng):
        img = rng.integers(0, 255, (16, 16)).astype(np.uint8)
        grid = extract_patches(img, 8, 4)
        edge = (rng.random((16, 16)) < 0.5).astype(np.uint8) * 255
        scores = rng.random(grid.patches.samples)
        pmap = reconstruct_map(scores, grid, edge)
        assert np.all(pmap.values[edge == 0] == 0)
        assert np.all(pmap.values <= (edge > 0).astype(float) + 1e-12)

    def test_takes_the_lattice_alone(self, rng):
        grid = extract_patches(np.zeros((37, 53)), 8, 3)
        lattice = Lattice(image_w=53, image_h=37, n=8, stride=3)
        edge = (rng.random((37, 53)) < 0.5).astype(np.uint8) * 255
        scores = rng.random(grid.patches.samples)
        assert (reconstruct_map(scores, lattice, edge).values.tobytes()
                == reconstruct_map(scores, grid, edge).values.tobytes())

    def test_rejects_count_mismatch(self):
        grid = extract_patches(np.zeros((8, 8)), 8, 4)
        with pytest.raises(ArgumentError):
            reconstruct_map([0.5, 0.5], grid, np.zeros((8, 8), dtype=np.uint8))

    def test_holds_the_map_and_one_band(self, rng):
        side = 512
        lattice = Lattice(image_w=side, image_h=side, n=8, stride=4)
        scores = rng.random(lattice.rows * lattice.cols)
        edge = (rng.random((side, side)) < 0.3).astype(np.uint8) * 255
        peak = traced_peak(lambda: reconstruct_map(scores, lattice, edge))
        assert peak <= 1.5 * side * side * 8

    def test_uncovered_pixels_stay_zero(self):
        grid = extract_patches(np.zeros((8, 12)), 8, 8)  # columns 8-11 uncovered
        full = np.full((8, 12), 255, dtype=np.uint8)
        pmap = reconstruct_map([0.9], grid, full)
        np.testing.assert_allclose(pmap.values[:, :8], 0.9)
        np.testing.assert_array_equal(pmap.values[:, 8:], 0.0)


class TestMetrics:
    def test_f1_perfect(self):
        assert f1_score(ConfusionCounts(tp=5, tn=0, fp=0, fn=0)) == 1.0

    def test_f1_hand_value(self):
        assert f1_score(ConfusionCounts(tp=2, tn=0, fp=1, fn=1)) == pytest.approx(2 / 3)

    def test_f1_degenerate(self):
        assert f1_score(ConfusionCounts(tp=0, tn=9, fp=0, fn=0)) == 0.0

    def test_mcc_perfect(self):
        assert mcc_score(ConfusionCounts(tp=3, tn=3, fp=0, fn=0)) == 1.0

    def test_mcc_total_inversion(self):
        assert mcc_score(ConfusionCounts(tp=0, tn=0, fp=3, fn=3)) == -1.0

    def test_mcc_hand_value(self):
        got = mcc_score(ConfusionCounts(tp=6, tn=3, fp=1, fn=2))
        assert got == pytest.approx(16.0 / math.sqrt(1120.0))

    def test_mcc_degenerate(self):
        assert mcc_score(ConfusionCounts(tp=0, tn=5, fp=0, fn=0)) == 0.0

    def test_exact_match_against_formula_oracle(self, rng):
        for _ in range(1000):
            tp, tn, fp, fn = (int(x) for x in rng.integers(0, 500, 4))
            c = ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
            denom = 2 * tp + fn + fp
            assert f1_score(c) == (2 * tp / denom if denom else 0.0)
            prod = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
            want = ((tp * tn - fp * fn) / math.sqrt(prod)) if prod else 0.0
            assert mcc_score(c) == want

    def test_mcc_swap_identity(self, rng):
        for _ in range(200):
            tp, tn, fp, fn = (int(x) for x in rng.integers(0, 100, 4))
            a = mcc_score(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
            b = mcc_score(ConfusionCounts(tp=fn, tn=fp, fp=tn, fn=tp))
            assert a == pytest.approx(-b, abs=1e-15)


class TestBinarize:
    def test_perfect_prediction(self):
        truth = (np.arange(64).reshape(8, 8) % 3 == 0).astype(np.uint8) * 255
        pmap = ProbabilityMap(values=(truth > 0).astype(float))
        c = binarize_and_score(pmap, truth, 0.5)
        assert c.fp == 0 and c.fn == 0

    def test_inverted_prediction(self):
        truth = (np.arange(64).reshape(8, 8) % 3 == 0).astype(np.uint8) * 255
        pmap = ProbabilityMap(values=1.0 - (truth > 0).astype(float))
        c = binarize_and_score(pmap, truth, 0.5)
        assert c.tp == 0 and c.tn == 0

    def test_matches_pixel_loop_oracle(self, rng):
        values = rng.random((16, 16))
        truth = (rng.random((16, 16)) < 0.3).astype(np.uint8) * 255
        pmap = ProbabilityMap(values=values)
        c = binarize_and_score(pmap, truth, 0.4)
        tp = tn = fp = fn = 0
        for i in range(16):
            for j in range(16):
                pred = values[i, j] >= 0.4
                pos = truth[i, j] > 0
                tp += pred and pos
                tn += (not pred) and (not pos)
                fp += pred and not pos
                fn += (not pred) and pos
        assert (c.tp, c.tn, c.fp, c.fn) == (tp, tn, fp, fn)

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
    def test_map_rejects_values_outside_unit_interval(self, bad):
        values = np.zeros((4, 4))
        values[2, 3] = bad
        with pytest.raises(ArgumentError, match=r"\[0, 1\]"):
            ProbabilityMap(values=values)

    @pytest.mark.parametrize("shape", [(16,), (2, 4, 4), ()])
    def test_map_rejects_values_not_2d(self, shape):
        with pytest.raises(ShapeError, match="must be 2-D"):
            ProbabilityMap(values=np.zeros(shape))

    def test_rejects_dim_mismatch(self):
        pmap = ProbabilityMap(values=np.zeros((4, 4)))
        with pytest.raises(ShapeError):
            binarize_and_score(pmap, np.zeros((5, 5)), 0.5)


class TestRandomBaseline:
    def test_empty_masks(self):
        assert random_scorer_expected_f1(np.zeros((4, 4)), np.zeros((4, 4))) == 0.0

    def test_hand_value(self):
        edge = np.zeros((2, 4))
        edge[0] = 1
        truth = np.zeros((2, 4))
        truth[0, :2] = 1
        # tp=1, fp=1, fn=1 -> F1 = 2/(2+1+1)
        assert random_scorer_expected_f1(edge, truth) == pytest.approx(0.5)
