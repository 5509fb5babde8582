"""Generator determinism, scale, and closed-form oracle agreement."""

import hashlib

import numpy as np
import pytest

from cpcapp import (
    ArgumentError,
    SplitMix64,
    SyntheticSpec,
    analytic_four_class_covariances,
    analytic_four_class_q,
    default_spec,
    gen_four_class,
    gen_haystack,
    gen_spliced_image,
    gen_textured_digits,
    oracle_four_class_filters,
    q_eig,
    sample_haystack,
    sym_eig,
)


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
        spec = SyntheticSpec(kind="four-class", seed=4, n_fg=50, n_bg=60)
        fg1, bg1 = gen_four_class(spec)
        fg2, bg2 = gen_four_class(spec)
        assert np.array_equal(fg1.data.values, fg2.data.values)
        assert np.array_equal(bg1.values, bg2.values)
        assert np.array_equal(fg1.labels, fg2.labels)

    def test_table_scale_default(self):
        spec = default_spec("four-class", seed=0)
        assert (spec.n_fg, spec.n_bg) == (400, 400)

    def test_block_means_match_class_structure(self):
        spec = SyntheticSpec(kind="four-class", seed=33, n_fg=4000, n_bg=100)
        fg, _ = gen_four_class(spec)
        for k in range(4):
            cols = fg.data.values[:, fg.labels == k]
            n_k = cols.shape[1]
            tol = 3.0 / np.sqrt(10 * n_k)  # mean over 10 coords and n_k samples
            want1 = 6.0 if k >= 2 else 0.0
            want2 = 3.0 if k % 2 == 1 else 0.0
            assert abs(cols[0:10].mean() - want1) < tol
            assert abs(cols[10:20].mean() - want2) < tol

    def test_background_block_variances(self):
        spec = SyntheticSpec(kind="four-class", seed=5, n_fg=10, n_bg=20000)
        _, bg = gen_four_class(spec)
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
        res = sym_eig(analytic_four_class_q())
        assert res.values[0] == pytest.approx(30.33, abs=0.01)
        assert res.values[1] == pytest.approx(23.50, abs=0.01)

    def test_analytic_q_consistent_with_covariances(self):
        r_b, r_f = analytic_four_class_covariances()
        q = np.linalg.solve(r_b, r_f)
        np.testing.assert_allclose(q, analytic_four_class_q(), atol=1e-12)
        res = q_eig(r_b, r_f, 2)
        np.testing.assert_allclose(res.values, sym_eig(analytic_four_class_q()).values[:2],
                                   rtol=1e-10)


class TestHaystack:
    def test_constraints_hold_for_defaults(self):
        spec = SyntheticSpec(kind="haystack", seed=0, n_fg=1, n_bg=1)
        r_b, r_f, c, a = gen_haystack(spec)
        assert 5.0 * 0.01 / 10.0 < 0.1  # beta*rho/gamma < eps
        assert a @ c == 0.0
        np.testing.assert_allclose([np.linalg.norm(a), np.linalg.norm(c)], 1.0)

    def test_rejects_bad_parameters(self):
        spec = SyntheticSpec(kind="haystack", seed=0, n_fg=1, n_bg=1,
                             params={"eps": 10.0})  # eps > beta
        with pytest.raises(ArgumentError):
            gen_haystack(spec)

    def test_pca_on_foreground_finds_shared_direction(self):
        spec = SyntheticSpec(kind="haystack", seed=0, n_fg=1, n_bg=1)
        r_b, r_f, c, a = gen_haystack(spec)
        top = sym_eig(r_f).vectors[:, 0]
        assert abs(top @ a) >= 0.99

    def test_whitened_fit_finds_planted_direction(self):
        spec = SyntheticSpec(kind="haystack", seed=0, n_fg=1, n_bg=1)
        r_b, r_f, c, a = gen_haystack(spec)
        top = q_eig(r_b, r_f, 1).vectors[:, 0]
        assert abs(top @ c) >= 0.99

    def test_sampling_deterministic(self):
        spec = SyntheticSpec(kind="haystack", seed=2, n_fg=100, n_bg=150)
        f1, b1 = sample_haystack(spec)
        f2, b2 = sample_haystack(spec)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(b1.values, b2.values)


class TestTexturedDigits:
    def test_deterministic(self):
        spec = SyntheticSpec(kind="textured-digits", seed=8, n_fg=12, n_bg=9)
        a = gen_textured_digits(spec)
        b = gen_textured_digits(spec)
        for x, y in zip((a[0].data.values, a[1].values, a[2].values),
                        (b[0].data.values, b[1].values, b[2].values)):
            assert np.array_equal(x, y)

    def test_table_scale_default(self):
        spec = default_spec("textured-digits", seed=0)
        assert (spec.n_fg, spec.n_bg) == (5000, 5000)

    def test_variance_ratio(self):
        spec = SyntheticSpec(kind="textured-digits", seed=1, n_fg=300, n_bg=300)
        fg, bg, clean = gen_textured_digits(spec)
        texture_var = bg.values.var()
        glyph_var = clean.values.var()
        assert texture_var / glyph_var >= 9.0

    def test_composite_is_texture_plus_glyph(self):
        spec = SyntheticSpec(kind="textured-digits", seed=2, n_fg=5, n_bg=5)
        fg, bg, clean = gen_textured_digits(spec)
        assert fg.data.values.shape == (784, 5)
        assert set(np.unique(fg.labels)) <= {0, 1}


class TestSplicedImage:
    def test_deterministic(self):
        spec = SyntheticSpec(kind="spliced-image", seed=21, n_fg=1, n_bg=1)
        p1, s1, e1 = gen_spliced_image(spec)
        p2, s2, e2 = gen_spliced_image(spec)
        assert np.array_equal(p1, p2) and np.array_equal(s1, s2) and np.array_equal(e1, e2)

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_mask_fraction_within_bounds(self, seed):
        spec = SyntheticSpec(kind="spliced-image", seed=seed, n_fg=1, n_bg=1)
        _, surface, _ = gen_spliced_image(spec)
        frac = (surface > 0).mean()
        assert 0.08 <= frac <= 0.20

    def test_edge_truth_follows_surface_boundary(self):
        from cpcapp.datagen import mask_boundary

        spec = SyntheticSpec(kind="spliced-image", seed=3, n_fg=1, n_bg=1)
        _, surface, edge = gen_spliced_image(spec)
        band = mask_boundary(surface > 0)
        assert np.all((edge > 0) <= band)  # subset of the dilated boundary

    def test_donor_and_host_statistics_differ(self):
        spec = SyntheticSpec(kind="spliced-image", seed=11, n_fg=1, n_bg=1)
        probe, surface, _ = gen_spliced_image(spec)
        inside = probe[surface > 0].astype(float)
        outside = probe[surface == 0].astype(float)
        cov_in = np.cov(inside.T)
        cov_out = np.cov(outside.T)
        assert np.linalg.norm(cov_in - cov_out, "fro") > 1.0

    def test_rejects_wrong_kind(self):
        with pytest.raises(ArgumentError):
            gen_spliced_image(SyntheticSpec(kind="haystack", seed=0, n_fg=1, n_bg=1))

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
        spec = SyntheticSpec(kind="spliced-image", seed=seed, n_fg=1, n_bg=1,
                             params={"width": side, "height": side})
        arrays = gen_spliced_image(spec)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == digests

    def test_sliver_polygon_falls_back_to_even_angles(self):
        # the drawn angles leave a 291 degree gap: at any scale the polygon
        # covers at most 2.3% of the image, below area_lo = 8%
        spec = SyntheticSpec(kind="spliced-image", seed=12361739233122626592, n_fg=1, n_bg=1,
                             params={"width": 128, "height": 128})
        _, surface, _ = gen_spliced_image(spec)
        assert 0.08 <= (surface > 0).mean() <= 0.20
