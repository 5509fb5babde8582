"""Patch pipeline: edges, extraction, labeling, scoring, maps, and metrics."""

import math

import numpy as np
import pytest

from cpcapp import (
    ArgumentError,
    ConfusionCounts,
    DataMatrix,
    FilterBank,
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
    score_patches,
)

from conftest import traced_peak


def axis_bank(m, k=1):
    f = np.zeros((m, k))
    for i in range(k):
        f[i, i] = 1.0
    return FilterBank(method="pca", f=f, train_mean_bg=np.zeros(m),
                      train_mean_fg=np.zeros(m), eigenvalues=np.zeros(k), loading=0.0)


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

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 3), (16, 16, 3), (33, 20), (40, 31, 3)])
    def test_matches_tap_loop(self, rng, shape):
        for image in (rng.integers(0, 256, shape).astype(np.uint8),
                      np.full(shape, 77, dtype=np.uint8)):
            assert edge_mask(image).tobytes() == _loop_edge_mask(image).tobytes()

    def test_peak_on_a_large_probe(self):
        # the float RGB copy, luma, padded luma, gx, gy and their temporaries,
        # then hypot: no scratch field beyond the two tap expressions
        side = 512
        probe = gen_spliced_image(5, side, side)[0]
        peak = traced_peak(lambda: edge_mask(probe))
        assert peak <= 9.5 * side * side * 8


def _loop_edge_mask(image):
    """The 18-tap Sobel loop edge_mask replaced: every tap, zero weights included."""
    from cpcapp.splicing import _as_image, _luma, _otsu_threshold

    sobel_x = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    gray = _luma(_as_image(image).astype(float))
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
            PatchGrid(image_w=12, image_h=8, n=8, stride=stride, channels=1,
                      patches=DataMatrix(values=np.zeros((64, samples))))

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


class TestLatticeMatchesPatchLoops:
    """Byte equality of the lattice code with the per-patch loops it replaced."""

    @pytest.mark.parametrize("shape, n, stride", [
        ((32, 32, 3), 8, 4),
        ((37, 53), 8, 3),      # stride divides neither extent
        ((37, 53, 3), 5, 7),   # stride > n: uncovered columns between patches
        ((24, 30), 8, 1),
        ((29, 31, 3), 3, 5),
        ((37, 53), 37, 1),     # one patch row spanning the full height
        ((9, 11, 3), 1, 1),
        ((20, 44), 8, 8),
    ])
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
        bank = axis_bank(4)
        data = DataMatrix(values=np.array([[3.0], [0.0], [0.0], [0.0]]))
        scores = score_patches(bank, data, use_train_mean=True)
        np.testing.assert_array_equal(scores, [1.0])

    def test_direct_formula(self):
        bank = axis_bank(2)
        data = DataMatrix(values=np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 5.0]]))
        scores = score_patches(bank, data, use_train_mean=True)
        np.testing.assert_allclose(scores, [1.0, 0.25, 0.0])

    def test_zero_projection_gives_zeros(self):
        bank = axis_bank(3)
        data = DataMatrix(values=np.zeros((3, 4)))
        np.testing.assert_array_equal(score_patches(bank, data, use_train_mean=True),
                                      np.zeros(4))

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
        from cpcapp.reducers import TRANSFORM_BLOCK

        grid = extract_patches(rng.integers(0, 256, (512, 512, 3)).astype(np.uint8), 8, 4)
        assert grid.patches.samples > 3 * TRANSFORM_BLOCK
        f, _ = np.linalg.qr(rng.standard_normal((grid.patches.features, 6)))
        bank = FilterBank(method="pca", f=f, train_mean_bg=np.zeros(f.shape[0]),
                          train_mean_fg=np.zeros(f.shape[0]),
                          eigenvalues=np.arange(6.0, 0.0, -1.0), loading=0.0)
        peak = traced_peak(lambda: score_patches(bank, grid.patches))
        assert peak <= 0.4 * grid.patches.values.nbytes

    def test_separates_boundary_from_background_patches(self):
        from cpcapp import SplitMix64, build_covariance_pair, fit_cpcapp

        seeds = SplitMix64(7).spawn_seeds(4)
        fg_cols, bg_cols = [], []
        for s in seeds[:3]:
            probe, surface, _ = gen_spliced_image(s)
            edge = edge_mask(probe)
            grid = extract_patches(probe, 8, 4)
            fg_idx, bg_idx = label_patches(grid, surface, edge)
            fg_cols.append(grid.patches.values[:, fg_idx])
            bg_cols.append(grid.patches.values[:, bg_idx])
        bank = fit_cpcapp(
            build_covariance_pair(
                DataMatrix(values=np.concatenate(bg_cols, axis=1)),
                DataMatrix(values=np.concatenate(fg_cols, axis=1)),
            ),
            6,
        )
        probe, surface, _ = gen_spliced_image(seeds[3])
        edge = edge_mask(probe)
        grid = extract_patches(probe, 8, 4)
        fg_idx, bg_idx = label_patches(grid, surface, edge)
        scores = score_patches(bank, grid.patches)
        assert scores[fg_idx].mean() > scores[bg_idx].mean()


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

    def test_rejects_count_mismatch(self):
        grid = extract_patches(np.zeros((8, 8)), 8, 4)
        with pytest.raises(ArgumentError):
            reconstruct_map([0.5, 0.5], grid, np.zeros((8, 8), dtype=np.uint8))

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
        pmap = ProbabilityMap(width=8, height=8, values=(truth > 0).astype(float))
        c = binarize_and_score(pmap, truth, 0.5)
        assert c.fp == 0 and c.fn == 0

    def test_inverted_prediction(self):
        truth = (np.arange(64).reshape(8, 8) % 3 == 0).astype(np.uint8) * 255
        pmap = ProbabilityMap(width=8, height=8, values=1.0 - (truth > 0).astype(float))
        c = binarize_and_score(pmap, truth, 0.5)
        assert c.tp == 0 and c.tn == 0

    def test_matches_pixel_loop_oracle(self, rng):
        values = rng.random((16, 16))
        truth = (rng.random((16, 16)) < 0.3).astype(np.uint8) * 255
        pmap = ProbabilityMap(width=16, height=16, values=values)
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
            ProbabilityMap(width=4, height=4, values=values)

    def test_rejects_dim_mismatch(self):
        pmap = ProbabilityMap(width=4, height=4, values=np.zeros((4, 4)))
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
