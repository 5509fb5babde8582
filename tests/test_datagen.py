"""Generator determinism, scale, and closed-form oracle agreement."""

import hashlib
from unittest import mock

import numpy as np
import pytest

from cpcapp import (
    ArgumentError,
    SplitMix64,
    analytic_four_class_covariances,
    analytic_four_class_q,
    datagen,
    gen_four_class,
    gen_haystack,
    gen_spliced_image,
    gen_textured_digits,
    oracle_four_class_filters,
    q_eig,
    sample_haystack,
    sym_eig,
)

from conftest import traced_peak


@pytest.mark.parametrize("gen", [gen_four_class, sample_haystack, gen_textured_digits])
@pytest.mark.parametrize("n_fg, n_bg", [(0, 5), (-5, 5), (5, 0), (5, -5)])
def test_sample_counts_below_one_rejected(gen, n_fg, n_bg):
    with pytest.raises(ArgumentError, match="sample counts must be at least 1"):
        gen(0, n_fg, n_bg)


class TestSampleTables:
    def test_names_order_and_arrays(self):
        fg, bg = gen_four_class(3, 20, 15)
        hay_fg, hay_bg = sample_haystack(3, 20, 15)
        r_b, r_f, c_dir, a_dir = gen_haystack()
        dig_fg, dig_bg, clean = gen_textured_digits(3, 20, 15)
        want = {
            "four-class": [("fg", fg.data.values), ("bg", bg.values),
                           ("labels", fg.labels[None, :])],
            "haystack": [("rb", r_b), ("rf", r_f), ("directions", np.stack([c_dir, a_dir])),
                         ("fg", hay_fg.values), ("bg", hay_bg.values)],
            "textured-digits": [("fg", dig_fg.data.values), ("bg", dig_bg.values),
                                ("clean", clean.values), ("labels", dig_fg.labels[None, :])],
        }
        assert list(want) == list(datagen.TABLE_COUNTS)
        for kind, tables in want.items():
            got = datagen.sample_tables(kind, 3, 20, 15)
            assert list(got) == [name for name, _ in tables], kind
            for name, values in tables:
                assert got[name].shape == values.shape, (kind, name)
                assert got[name].tobytes() == values.tobytes(), (kind, name)

    def test_returns_the_generators_arrays(self):
        fg, bg = gen_four_class(3, 20, 15)
        with mock.patch.object(datagen, "gen_four_class", return_value=(fg, bg)):
            got = datagen.sample_tables("four-class", 3, 20, 15)
        assert got["fg"] is fg.data.values and got["bg"] is bg.values
        assert np.shares_memory(got["labels"], fg.labels)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ArgumentError, match="unknown table kind 'spliced-image'"):
            datagen.sample_tables("spliced-image", 0, 5, 5)


class TestRng:
    def test_known_stream_reproducible(self):
        a = SplitMix64(12345).next_u64(4)
        b = SplitMix64(12345).next_u64(4)
        assert np.array_equal(a, b)

    def test_sequential_equals_batched(self):
        whole = SplitMix64(7).next_u64(10)
        stream = SplitMix64(7)
        parts = np.concatenate([stream.next_u64(3), stream.next_u64(7)])
        assert np.array_equal(whole, parts)

    def test_normals_standard(self):
        x = SplitMix64(3).normal(200_000)
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01

    def test_spawned_seeds_stable_under_count(self):
        first = SplitMix64(9).spawn_seeds(3)
        longer = SplitMix64(9).spawn_seeds(10)
        assert first == longer[:3]


class TestFourClass:
    def test_deterministic(self):
        fg1, bg1 = gen_four_class(4, 50, 60)
        fg2, bg2 = gen_four_class(4, 50, 60)
        assert np.array_equal(fg1.data.values, fg2.data.values)
        assert np.array_equal(bg1.values, bg2.values)
        assert np.array_equal(fg1.labels, fg2.labels)

    def test_table_scale_default(self):
        assert datagen.TABLE_COUNTS["four-class"] == (400, 400)

    def test_block_means_match_class_structure(self):
        fg, _ = gen_four_class(33, 4000, 100)
        for k in range(4):
            cols = fg.data.values[:, fg.labels == k]
            n_k = cols.shape[1]
            tol = 3.0 / np.sqrt(10 * n_k)  # mean over 10 coords and n_k samples
            want1 = 6.0 if k >= 2 else 0.0
            want2 = 3.0 if k % 2 == 1 else 0.0
            assert abs(cols[0:10].mean() - want1) < tol
            assert abs(cols[10:20].mean() - want2) < tol

    def test_background_block_variances(self):
        _, bg = gen_four_class(5, 10, 20000)
        for i, var in enumerate((3.0, 1.0, 10.0)):
            block = bg.values[i * 10:(i + 1) * 10]
            assert block.var() == pytest.approx(var, rel=0.05)


class TestFourClassOracles:
    def test_filter_columns(self):
        f = oracle_four_class_filters()
        expect = np.zeros(30)
        expect[:10] = 1.0 / np.sqrt(10)
        np.testing.assert_allclose(f[:, 0], expect)
        assert np.all(f[10:20, 1] == 1.0 / np.sqrt(10))
        np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0)

    def test_analytic_eigenvalues(self):
        res = sym_eig(analytic_four_class_q(), 30)
        assert res.values[0] == pytest.approx(30.33, abs=0.01)
        assert res.values[1] == pytest.approx(23.50, abs=0.01)

    def test_analytic_q_consistent_with_covariances(self):
        r_b, r_f = analytic_four_class_covariances()
        q = np.linalg.solve(r_b, r_f)
        np.testing.assert_allclose(q, analytic_four_class_q(), atol=1e-12)
        res = q_eig(r_b, r_f, 2)
        np.testing.assert_allclose(res.values, sym_eig(analytic_four_class_q(), 30).values[:2],
                                   rtol=1e-10)


class TestHaystack:
    def test_constraints_hold_for_defaults(self):
        r_b, r_f, c, a = gen_haystack()
        beta, eps = datagen.HAYSTACK_BETA, datagen.HAYSTACK_EPS
        gamma, rho = datagen.HAYSTACK_GAMMA, datagen.HAYSTACK_RHO
        assert eps < beta and rho < gamma
        assert beta * rho / gamma < eps
        assert a @ c == 0.0
        np.testing.assert_allclose([np.linalg.norm(a), np.linalg.norm(c)], 1.0)

    def test_pca_on_foreground_finds_shared_direction(self):
        r_b, r_f, c, a = gen_haystack()
        top = sym_eig(r_f, r_f.shape[0]).vectors[:, 0]
        assert abs(top @ a) >= 0.99

    def test_whitened_fit_finds_planted_direction(self):
        r_b, r_f, c, a = gen_haystack()
        top = q_eig(r_b, r_f, 1).vectors[:, 0]
        assert abs(top @ c) >= 0.99

    def test_sampling_deterministic(self):
        f1, b1 = sample_haystack(2, 100, 150)
        f2, b2 = sample_haystack(2, 100, 150)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(b1.values, b2.values)


class TestTexturedDigits:
    def test_deterministic(self):
        a = gen_textured_digits(8, 12, 9)
        b = gen_textured_digits(8, 12, 9)
        for x, y in zip((a[0].data.values, a[1].values, a[2].values),
                        (b[0].data.values, b[1].values, b[2].values)):
            assert np.array_equal(x, y)

    def test_table_scale_default(self):
        assert datagen.TABLE_COUNTS["textured-digits"] == (5000, 5000)

    def test_variance_ratio(self):
        fg, bg, clean = gen_textured_digits(1, 300, 300)
        texture_var = bg.values.var()
        glyph_var = clean.values.var()
        assert texture_var / glyph_var >= 9.0

    def test_composite_is_texture_plus_glyph(self):
        fg, bg, clean = gen_textured_digits(2, 5, 5)
        assert fg.data.values.shape == (784, 5)
        assert set(np.unique(fg.labels)) <= {0, 1}

    def test_seed_keeps_its_bytes(self):
        fg, bg, clean = gen_textured_digits(1, 40, 30)
        arrays = (fg.data.values, fg.labels, bg.values, clean.values)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == (
            "9eef9b4e2cdff52bbaf17e9a0df55a2e586bd59308dc6205f6f7719b81579477",
            "212e053d989cf72becef0fc33655dca9a5a0becb988e248ae641a62e55ed1e02",
            "abf69d70e51b1970ec3ac92a5eea1c57f71700dc5c1c6e10154e21d93b420739",
            "7a40d4fd8dfa2be9ed7e54cfbbb9d39913e0c59c3569993dfe2f84fff972a97a",
        )

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_reflect_pad_matches_numpy(self, size, axis):
        # numpy repeats the reflection where the field is shorter than the pad
        shape = [3, 5, 4]
        shape[axis] = size
        field = np.random.default_rng(size).standard_normal(shape)
        half = datagen._BINOMIAL5.size // 2
        widths = [(0, 0)] * 3
        widths[axis] = (half, half)
        expected = np.pad(field, widths, mode="reflect")
        padded = np.full(expected.shape, np.nan)
        datagen._reflect_pad(field, axis, padded)
        assert padded.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("count", [1, 2, 7, 200])
    @pytest.mark.parametrize("labeling", ["drawn", "rings", "bars"])
    def test_glyphs_match_per_glyph_loop(self, count, labeling):
        rng = SplitMix64(count)
        jitter = rng.uniform(3 * count).reshape(3, count)
        labels = {"drawn": rng.integers(count, 2), "rings": np.zeros(count, dtype=np.int64),
                  "bars": np.ones(count, dtype=np.int64)}[labeling]
        np.testing.assert_array_equal(datagen._glyph_images(labels, jitter, 28),
                                      _loop_glyphs(labels, jitter, 28))


def _loop_glyphs(labels, jitter, side):
    """Per-glyph reference with the same operations in the same order."""
    yy, xx = np.mgrid[0:side, 0:side].astype(float)
    out = np.empty((labels.shape[0], side, side))
    width, jit = datagen.STROKE_WIDTH, datagen.GLYPH_JITTER
    for i in range(labels.shape[0]):
        j0, j1, j2 = jitter[:, i]
        if labels[i] == 0:
            cx = side / 2 + jit * (j0 - 0.5)
            cy = side / 2 + jit * (j1 - 0.5)
            dist = np.hypot(xx - cx, yy - cy)
            out[i] = np.exp(-((dist - (6.0 + (j2 - 0.5))) ** 2) / (2 * width**2))
        else:
            x0 = side / 2 + 1.2 * jit * (j0 - 0.5)
            dx = xx - (x0 + 0.4 * (j1 - 0.5) * (yy - side / 2))
            window = np.exp(-(((yy - side / 2) / (9.0 + 2.0 * (j2 - 0.5))) ** 8))
            out[i] = np.exp(-(dx**2) / (2 * width**2)) * window
    return out


def _loop_boundary(mask):
    """Per-pixel reference: pixels outside the image count as False."""
    h, w = mask.shape

    def at(y, x):
        return 0 <= y < h and 0 <= x < w and bool(mask[y, x])

    def hood(y, x):
        return [(y + dy, x + dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]

    inner = [[at(y, x) and not all(at(*p) for p in hood(y, x)) for x in range(w)]
             for y in range(h)]
    return np.array([[any(0 <= py < h and 0 <= px < w and inner[py][px]
                          for py, px in hood(y, x)) for x in range(w)]
                     for y in range(h)], dtype=bool)


def _loop_polygon(height, width, xs, ys):
    """Per-pixel even-odd reference with the same crossing arithmetic."""
    out = np.zeros((height, width), dtype=bool)
    for y in range(height):
        for x in range(width):
            px, py = x + 0.5, y + 0.5
            inside = False
            j = len(xs) - 1
            for i in range(len(xs)):
                denom = ys[j] - ys[i]
                if denom != 0 and (ys[i] > py) != (ys[j] > py):
                    inside ^= bool(px < (xs[j] - xs[i]) * (py - ys[i]) / denom + xs[i])
                j = i
            out[y, x] = inside
    return out


class TestPolygonMask:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 3), (17, 23)])
    def test_matches_per_pixel_reference(self, shape):
        height, width = shape
        rng = np.random.default_rng(height * 100 + width)
        for verts in (3, 4, 7, 12):
            for _ in range(4):
                # vertices up to half the image beyond each side
                xs = rng.uniform(-0.5, 1.5, verts) * width
                ys = rng.uniform(-0.5, 1.5, verts) * height
                np.testing.assert_array_equal(datagen._polygon_mask(height, width, xs, ys),
                                              _loop_polygon(height, width, xs, ys))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (11, 8)])
    def test_horizontal_edges_and_pixel_center_vertices(self, shape):
        height, width = shape
        rng = np.random.default_rng(width)
        for _ in range(8):
            # rows on the pixel-center lattice make horizontal edges and
            # vertices level with pixel centers
            ys = rng.integers(-1, height + 2, 6) + 0.5
            xs = rng.integers(-2, width + 3, 6) + rng.choice([0.0, 0.5], 6)
            np.testing.assert_array_equal(datagen._polygon_mask(height, width, xs, ys),
                                          _loop_polygon(height, width, xs, ys))

    def test_square_covers_its_pixels(self):
        xs, ys = np.array([2.0, 6.0, 6.0, 2.0]), np.array([1.0, 1.0, 4.0, 4.0])
        want = np.zeros((6, 8), dtype=bool)
        want[1:4, 2:6] = True
        np.testing.assert_array_equal(datagen._polygon_mask(6, 8, xs, ys), want)


class TestMaskBoundary:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (7, 13), (24, 24)])
    def test_matches_per_pixel_reference(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for density in (0.1, 0.5, 0.9):
            for _ in range(5):
                mask = rng.random(shape) < density
                np.testing.assert_array_equal(datagen.mask_boundary(mask), _loop_boundary(mask))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 5)])
    @pytest.mark.parametrize("fill", [False, True])
    def test_uniform_masks(self, shape, fill):
        mask = np.full(shape, fill)
        got = datagen.mask_boundary(mask)
        np.testing.assert_array_equal(got, _loop_boundary(mask))
        # the image border of an all-True mask borders the False outside
        assert got.any() == fill and got[0].all() == fill

    def test_peak_on_a_large_mask(self):
        # the shifted views fold into one output: the padded copy, the output
        # and the eroded boundary, about 3 bytes per pixel
        side = 512
        mask = gen_spliced_image(5, side, side)[1] > 0
        assert traced_peak(lambda: datagen.mask_boundary(mask)) <= 4 * side * side


def _whole_smooth(field, axis):
    """The whole-field smoothing the slab _smooth replaced: every pass pads the
    whole field at once and accumulates the taps over all of it."""
    size, half = field.shape[axis], datagen._BINOMIAL5.size // 2
    widths = [(0, 0)] * field.ndim
    widths[axis] = (half, half)
    tap = [slice(None)] * field.ndim
    for _ in range(datagen.TEXTURE_PASSES):
        padded = np.pad(field, widths, mode="reflect")
        field.fill(0.0)
        for j, w in enumerate(datagen._BINOMIAL5):
            tap[axis] = slice(j, j + size)
            field += w * padded[tuple(tap)]


def _whole_texture(rng, shape, std):
    """_texture with whole-field smoothing and its noise floor drawn whole."""
    fields = rng.normal(shape)
    _whole_smooth(fields, 1)
    _whole_smooth(fields, 2)
    fields += datagen.TEXTURE_FLOOR * rng.normal(shape)
    flat = fields.reshape(shape[0], -1)
    flat -= flat.mean(axis=1, keepdims=True)
    scale = flat.std(axis=1, keepdims=True)
    scale[scale == 0] = 1.0
    flat *= std / scale
    return fields


def _whole_spliced_image(seed, height, width):
    """gen_spliced_image with its eight fields drawn whole in stream order and
    composed with whole-image expressions."""
    rng = SplitMix64(seed)
    n_verts = 6 + int(rng.integers(1, 4)[0])
    angles = np.sort(rng.uniform(n_verts)) * 2 * np.pi
    radii = 0.9 + 0.1 * rng.uniform(n_verts)
    cx = width * (0.38 + 0.24 * rng.uniform(1)[0])
    cy = height * (0.38 + 0.24 * rng.uniform(1)[0])
    area_lo, area_hi = datagen.SPLICE_AREA
    target = area_lo + (area_hi - area_lo) * rng.uniform(1)[0]
    offset_sign = 1.0 if rng.uniform(1)[0] < 0.5 else -1.0
    mask = datagen._fit_polygon(height, width, angles, radii, cx, cy, target)
    if mask is None:
        even = angles[0] + 2 * np.pi * np.arange(n_verts) / n_verts
        mask = datagen._fit_polygon(height, width, even, radii, cx, cy, target)
    if mask is None:
        raise ArgumentError("could not fit a spliced region inside the area bounds")
    host, donor, *tints = (_whole_texture(rng, (1, height, width), 1.0)[0] for _ in range(8))
    base = np.where(mask, donor, host)
    band = datagen.mask_boundary(mask)
    yy, xx = np.nonzero(band)
    seam = datagen.SPLICE_SEAM_DITHER * (-1.0) ** ((xx + yy) // 2)
    probe = np.empty((height, width, 3), dtype=np.uint8)
    for c in range(3):
        channel = np.where(mask, datagen.SPLICE_TINT * tints[3 + c],
                           datagen.SPLICE_TINT * tints[c]) + base
        channel = np.where(mask, channel + offset_sign * datagen.SPLICE_OFFSET, channel)
        channel[band] += seam
        probe[:, :, c] = np.clip(channel * datagen.SPLICE_GREY_SCALE + 128.0, 0, 255)
    return probe, np.where(mask, 255, 0).astype(np.uint8), np.where(band, 255, 0).astype(np.uint8)


# sizes no slab, floor block or band divides, and single rows and columns
BAND_EDGE_SIZES = [(1, 1), (1, 513), (513, 1), (3, 5), (129, 513)]


class TestBandEdges:
    """The slab, block and field-by-field generator steps equal whole-array ones, bit for bit."""

    @pytest.mark.parametrize("shape", [(1, *size) for size in BAND_EDGE_SIZES]
                             + [(50, 28, 28), (3, 5, 4)])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_smooth(self, shape, axis):
        field = SplitMix64(4).normal(shape)
        want = field.copy()
        _whole_smooth(want, axis)
        datagen._smooth(field, axis)
        assert field.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, *size) for size in BAND_EDGE_SIZES] + [(21, 28, 28)])
    def test_texture(self, shape):
        got, want = SplitMix64(8), SplitMix64(8)
        assert datagen._texture(got, shape, 3.0).tobytes() == _whole_texture(want, shape, 3.0).tobytes()
        assert got.position == want.position

    @pytest.mark.parametrize("size", BAND_EDGE_SIZES + [(5, 3), (64, 64)])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_spliced_image(self, size, seed):
        try:
            want = _whole_spliced_image(seed, *size)
        except ArgumentError:  # a one-pixel-wide image holds no polygon in bounds
            with pytest.raises(ArgumentError, match="could not fit"):
                gen_spliced_image(seed, *size)
            return
        got = gen_spliced_image(seed, *size)
        assert [a.dtype for a in got] == [np.uint8] * 3
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestSplicedImage:
    def test_deterministic(self):
        p1, s1, e1 = gen_spliced_image(21)
        p2, s2, e2 = gen_spliced_image(21)
        assert np.array_equal(p1, p2) and np.array_equal(s1, s2) and np.array_equal(e1, e2)

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_mask_fraction_within_bounds(self, seed):
        _, surface, _ = gen_spliced_image(seed)
        frac = (surface > 0).mean()
        assert 0.08 <= frac <= 0.20

    def test_edge_truth_follows_surface_boundary(self):
        from cpcapp.datagen import mask_boundary

        _, surface, edge = gen_spliced_image(3)
        band = mask_boundary(surface > 0)
        assert np.all((edge > 0) <= band)  # subset of the dilated boundary

    def test_donor_and_host_statistics_differ(self):
        probe, surface, _ = gen_spliced_image(11)
        inside = probe[surface > 0].astype(float)
        outside = probe[surface == 0].astype(float)
        cov_in = np.cov(inside.T)
        cov_out = np.cov(outside.T)
        assert np.linalg.norm(cov_in - cov_out, "fro") > 1.0

    @pytest.mark.parametrize("height, width", [(64, -4), (64, 0), (0, 64), (-1, -1)])
    def test_rejects_empty_size_before_drawing(self, height, width):
        with mock.patch("cpcapp.datagen.SplitMix64", side_effect=AssertionError("drew")), \
                pytest.raises(ArgumentError, match="at least 1x1"):
            gen_spliced_image(0, height, width)

    @pytest.mark.parametrize("seed, side, digests", [
        (21, 64, ("67bb1f0bbdd66cc858e0a6b724f676992776b5f197c7703cb93975407f1bf911",
                  "7af43c6d2f342089ccef8772627e9e9e2b8255795d6b13095d2ec2c9f900d38f",
                  "6c2a711a479fce13c3f81d478a197375789cd97617ccd5bbc4f11cd25671d729")),
        (7, 128, ("b31e424a967ef157b1a43544c9d81c6849cb44574fd8b28de0ad1504b43b2d48",
                  "856f0a8a02b63b148a16654e8e6934a87f88f1ff2c9c5144bb0b4ab9bc389d2a",
                  "890862c520619c554c5b043f8de5b7df5479e1c4d7749090cf19ac81564a5757")),
        (12361739233122626591, 128, (
            "aa722d59438f013bf9e408adc78ceeb652177e07938624852bace293cc6d81a1",
            "c704daef0bbefb5f39159ff892134c4eafc741eda177b0df71cf1f72e8ca25d9",
            "8d730017ef66b02212c7e5fa67577eab6ec5c41f9b6882152efb970c026afd8e")),
    ])
    def test_fitting_seeds_keep_their_bytes(self, seed, side, digests):
        arrays = gen_spliced_image(seed, side, side)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == digests

    def test_builds_probe_field_by_field(self):
        # one channel at a time: the host/donor base, the channel, and one
        # texture field being drawn, plus the uint8 probe and the masks
        side = 512
        peak = traced_peak(lambda: gen_spliced_image(5, side, side))
        assert peak <= 6.5 * side * side * 8

    def test_holds_one_texture_field_beside_the_base(self):
        # donor fields are drawn first and cut to their values under the
        # mask: the base, one field with its deviation temporary, the uint8
        # probe and the masks
        side = 512
        peak = traced_peak(lambda: gen_spliced_image(5, side, side))
        assert peak <= 4.0 * side * side * 8

    def test_fit_polygon_holds_no_coordinate_fields(self):
        # a row of x and a column of y: the bisection holds boolean masks only
        side = 512
        angles = np.sort(SplitMix64(1).uniform(8)) * 2 * np.pi
        radii = np.full(8, 0.95)
        masks = []
        peak = traced_peak(lambda: masks.append(
            datagen._fit_polygon(side, side, angles, radii, 256.0, 256.0, 0.14)))
        assert masks[0] is not None
        assert peak <= side * side * 8

    def test_texture_smooths_in_place(self):
        side = 512
        peak = traced_peak(lambda: datagen._texture(SplitMix64(2), (1, side, side), 1.0))
        assert peak <= 3.3 * side * side * 8

    def test_texture_holds_its_field_and_one_temporary(self):
        # smoothing slabs and floor blocks are small; the deviation's
        # temporary is the one other whole field
        side = 512
        peak = traced_peak(lambda: datagen._texture(SplitMix64(2), (1, side, side), 1.0))
        assert peak <= 2.3 * side * side * 8

    def test_sliver_polygon_falls_back_to_even_angles(self):
        # the drawn angles leave a 291 degree gap: at any scale the polygon
        # covers at most 2.3% of the image, below the 8% lower bound of SPLICE_AREA
        _, surface, _ = gen_spliced_image(12361739233122626592, 128, 128)
        assert 0.08 <= (surface > 0).mean() <= 0.20
