"""Command-line behavior: exit codes, outputs, determinism."""

import shutil
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cpcapp import read_image, write_csv, write_image
from cpcapp.cli import cli_dispatch


def files_equal(a, b):
    return a.read_bytes() == b.read_bytes()


@pytest.fixture
def four_class_csvs(tmp_path):
    assert cli_dispatch(["generate", "four-class", "--seed", "3", "--out", str(tmp_path),
                         "--n-fg", "80", "--n-bg", "80"]) == 0
    return tmp_path / "fg.csv", tmp_path / "bg.csv"


class TestEval:
    def test_perfect_prediction_prints_ones(self, tmp_path, capfd):
        truth = (np.arange(64).reshape(8, 8) % 5 == 0).astype(np.uint8) * 255
        write_image(tmp_path / "truth.pgm", truth)
        write_image(tmp_path / "pred.pgm", truth)
        code = cli_dispatch(["eval", "--pred", str(tmp_path / "pred.pgm"),
                             "--truth", str(tmp_path / "truth.pgm")])
        out = capfd.readouterr().out
        assert code == 0
        assert out.strip() == "F1=1.0 MCC=1.0"


class TestFit:
    def test_cpca_without_alpha_uses_default_grid(self, tmp_path, four_class_csvs):
        fg, bg = four_class_csvs
        model = tmp_path / "model.txt"
        code = cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg),
                             "--method", "cpca", "-k", "2", "--out", str(model)])
        assert code == 0 and model.exists()
        header = model.read_text().splitlines()[1].split()
        assert header[0] == "cpca"
        assert header[3] != "nan"  # a grid alpha was selected

    def test_alpha_and_grid_conflict(self, tmp_path, four_class_csvs):
        fg, bg = four_class_csvs
        code = cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg), "--method", "cpca",
                             "--alpha", "1.0", "--alpha-grid", "default",
                             "--out", str(tmp_path / "m.txt")])
        assert code == 1

    def test_sweep_scores_grid_with_two_solves(self, tmp_path, four_class_csvs):
        # one solve per matrix of the detection statistic, for the whole grid
        fg, bg = four_class_csvs
        with mock.patch("numpy.linalg.solve", wraps=np.linalg.solve) as solve:
            code = cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg), "--method", "cpca",
                                 "--alpha-grid", "0.1:10:5", "--out", str(tmp_path / "m.txt")])
        assert code == 0
        assert solve.call_count == 2

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_is_data_error(self, tmp_path, capfd, four_class_csvs, alpha):
        fg, bg = four_class_csvs
        model = tmp_path / "m.txt"
        code = cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg), "--method", "cpca",
                             "--alpha", alpha, "--out", str(model)])
        assert code == 2 and not model.exists()
        assert "must be finite" in capfd.readouterr().err

    @pytest.mark.parametrize("grid", ["1e-3:inf:5", "nan:1:5", "1:nan:5"])
    def test_non_finite_alpha_grid_is_usage_error(self, tmp_path, capfd, four_class_csvs, grid):
        fg, bg = four_class_csvs
        code = cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg), "--method", "cpca",
                             "--alpha-grid", grid, "--out", str(tmp_path / "m.txt")])
        assert code == 1
        assert "0 < lo < hi < inf" in capfd.readouterr().err

    def test_pca_needs_no_background(self, tmp_path, four_class_csvs):
        fg, _ = four_class_csvs
        model = tmp_path / "pca.txt"
        assert cli_dispatch(["fit", "--fg", str(fg), "--method", "pca", "-k", "2",
                             "--out", str(model)]) == 0

    def test_cpcapp_model_feeds_transform_and_score(self, tmp_path, four_class_csvs):
        fg, bg = four_class_csvs
        model = tmp_path / "model.txt"
        assert cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg),
                             "--method", "cpca++", "-k", "2", "--out", str(model)]) == 0
        y_path = tmp_path / "y.csv"
        assert cli_dispatch(["transform", "--model", str(model), "--in", str(fg),
                             "--out", str(y_path)]) == 0
        rows = y_path.read_text().strip().splitlines()
        assert len(rows) == 80 and len(rows[0].split(",")) == 2
        w_path = tmp_path / "w.csv"
        assert cli_dispatch(["score", "--model", str(model), "--in", str(fg),
                             "--out", str(w_path)]) == 0
        scores = [float(v) for v in w_path.read_text().strip().splitlines()]
        assert len(scores) == 80 and max(scores) == 1.0 and min(scores) >= 0.0


class TestErrors:
    def test_zero_variance_background_is_data_error(self, tmp_path, capfd):
        rng = np.random.default_rng(4)
        write_csv(tmp_path / "fg.csv", rng.standard_normal((5, 40)))
        write_csv(tmp_path / "bg.csv", np.full((5, 30), 2.5))
        code = cli_dispatch(["fit", "--fg", str(tmp_path / "fg.csv"),
                             "--bg", str(tmp_path / "bg.csv"), "--method", "cpca++",
                             "-k", "2", "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert "background has no variance" in capfd.readouterr().err

    def test_one_sample_foreground_is_data_error(self, tmp_path, capfd):
        rng = np.random.default_rng(4)
        write_csv(tmp_path / "fg.csv", rng.standard_normal((4, 1)))
        write_csv(tmp_path / "bg.csv", rng.standard_normal((4, 30)))
        code = cli_dispatch(["fit", "--fg", str(tmp_path / "fg.csv"),
                             "--bg", str(tmp_path / "bg.csv"), "--method", "cpca++",
                             "-k", "2", "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert "foreground has no variance" in capfd.readouterr().err

    def test_model_without_square_patch_size_is_data_error(self, tmp_path, capfd,
                                                           four_class_csvs):
        # 30 features are c*n^2 for no patch size n of a grey (c = 1) probe
        fg, _ = four_class_csvs
        model = tmp_path / "model.txt"
        assert cli_dispatch(["fit", "--fg", str(fg), "--method", "pca", "-k", "1",
                             "--out", str(model)]) == 0
        image = tmp_path / "probe.pgm"
        write_image(image, np.arange(256, dtype=np.uint8).reshape(16, 16))
        code = cli_dispatch(["localize", "--model", str(model), "--image", str(image),
                             "--out", str(tmp_path / "map.pgm")])
        assert code == 2
        assert "M=30" in capfd.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert cli_dispatch(["frobnicate"]) == 1

    def test_missing_required_argument(self):
        assert cli_dispatch(["fit", "--method", "pca"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert cli_dispatch(["transform", "--model", str(tmp_path / "no.txt"),
                             "--in", str(tmp_path / "no.csv"),
                             "--out", str(tmp_path / "y.csv")]) == 2

    @pytest.mark.parametrize("broken", ["model", "in"])
    def test_non_ascii_input_is_data_error(self, tmp_path, capfd, four_class_csvs, broken):
        fg, _ = four_class_csvs
        files = {"model": tmp_path / "model.txt", "in": fg}
        assert cli_dispatch(["fit", "--fg", str(fg), "--method", "pca", "-k", "1",
                             "--out", str(files["model"])]) == 0
        files[broken] = tmp_path / "bad.txt"
        files[broken].write_bytes(b"1,2\n3,\xe9\n")
        code = cli_dispatch(["transform", "--model", str(files["model"]),
                             "--in", str(files["in"]), "--out", str(tmp_path / "y.csv")])
        assert code == 2
        assert "not an ASCII text file" in capfd.readouterr().err

    def test_shape_mismatch_fails_fast(self, tmp_path, four_class_csvs):
        fg, bg = four_class_csvs
        model = tmp_path / "model.txt"
        cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg), "--method", "cpca++",
                      "-k", "2", "--out", str(model)])
        bad = tmp_path / "bad.csv"
        write_csv(bad, np.ones((7, 5)))  # 7 features, model expects 30
        start = time.perf_counter()
        code = cli_dispatch(["transform", "--model", str(model), "--in", str(bad),
                             "--out", str(tmp_path / "y.csv")])
        elapsed = time.perf_counter() - start
        assert code == 2
        assert elapsed < 0.1


class TestSplicePipeline:
    def test_train_localize_eval(self, tmp_path, capfd):
        data = tmp_path / "imgs"
        assert cli_dispatch(["generate", "spliced-image", "--seed", "5",
                             "--count", "8", "--out", str(data)]) == 0
        model = tmp_path / "model.txt"
        assert cli_dispatch(["train-splice", "--train-dir", str(data),
                             "--out", str(model)]) == 0
        pmap = tmp_path / "map.pgm"
        assert cli_dispatch(["localize", "--model", str(model),
                             "--image", str(data / "probe_007.ppm"),
                             "--out", str(pmap)]) == 0
        code = cli_dispatch(["eval", "--pred", str(pmap),
                             "--truth", str(data / "edge_007.pgm")])
        out = capfd.readouterr().out
        assert code == 0
        assert out.startswith("F1=") and "MCC=" in out

    def test_localize_reads_patch_size_from_model(self, tmp_path):
        data = tmp_path / "imgs"
        assert cli_dispatch(["generate", "spliced-image", "--seed", "5",
                             "--count", "4", "--out", str(data)]) == 0
        model = tmp_path / "model.txt"
        assert cli_dispatch(["train-splice", "--train-dir", str(data), "--n", "6",
                             "--out", str(model)]) == 0
        assert model.read_text().splitlines()[1].split()[1] == "108"  # 3 * 6^2
        pmap = tmp_path / "map.pgm"
        assert cli_dispatch(["localize", "--model", str(model),
                             "--image", str(data / "probe_000.ppm"), "--out", str(pmap)]) == 0
        assert read_image(pmap).shape == (64, 64)

    def test_train_rejects_grey_probe_among_colour_probes(self, tmp_path, capfd):
        data = tmp_path / "imgs"
        assert cli_dispatch(["generate", "spliced-image", "--seed", "5",
                             "--count", "3", "--out", str(data)]) == 0
        grey = read_image(data / "probe_001.ppm")[:, :, 1]  # same scene, one channel
        write_image(data / "probe_001.ppm", grey)
        code = cli_dispatch(["train-splice", "--train-dir", str(data),
                             "--out", str(tmp_path / "model.txt")])
        err = capfd.readouterr().err
        assert code == 2
        assert "probe_001.ppm" in err and "features" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--fg-lo", "nan", "(nan, 0.7)"),
        ("--fg-lo", "-3", "(-3.0, 0.7)"),
        ("--fg-hi", "inf", "(0.3, inf)"),
        ("--bg-edge-min", "nan", "got nan"),
    ])
    def test_train_rejects_thresholds_outside_unit_interval(self, tmp_path, capfd,
                                                             flag, value, message):
        data = tmp_path / "imgs"
        assert cli_dispatch(["generate", "spliced-image", "--seed", "5",
                             "--count", "1", "--out", str(data)]) == 0
        code = cli_dispatch(["train-splice", "--train-dir", str(data),
                             "--out", str(tmp_path / "model.txt"), flag, value])
        err = capfd.readouterr().err
        assert code == 2
        assert message in err and "relax the thresholds" not in err

    def test_train_memory_does_not_grow_with_images(self, tmp_path):
        # moments are pooled per probe, so peak traced memory is set by one
        # image and the M x M fit, not by the number of training images
        every = tmp_path / "every"
        assert cli_dispatch(["generate", "spliced-image", "--seed", "3",
                             "--count", "32", "--out", str(every)]) == 0
        few = tmp_path / "few"
        few.mkdir()
        for i in range(8):
            for name in (f"probe_{i:03d}.ppm", f"surface_{i:03d}.pgm"):
                shutil.copy(every / name, few / name)
        peaks = []
        for train_dir in (few, every):
            tracemalloc.start()
            try:
                assert cli_dispatch(["train-splice", "--train-dir", str(train_dir),
                                     "--out", str(tmp_path / "model.txt")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli_dispatch(["generate", "spliced-image", "--seed", "9",
                                 "--count", "3", "--out", str(out)]) == 0
        for name in ("probe_001.ppm", "surface_002.pgm", "edge_000.pgm"):
            assert files_equal(a / name, b / name)


class TestGenerateAndBench:
    @pytest.mark.filterwarnings("error")  # rejected before any arithmetic on the empty image
    @pytest.mark.parametrize("flags, message", [
        (("--width", "-4"), "at least 1x1"), (("--width", "0"), "at least 1x1"),
        (("--height", "0"), "at least 1x1"),
        (("--count", "0"), "--count must be at least 1"),
        (("--count", "-1"), "--count must be at least 1"),
    ], ids=["width-4", "width0", "height0", "count0", "count-1"])
    def test_generate_rejects_empty_spliced_images(self, tmp_path, capfd, flags, message):
        code = cli_dispatch(["generate", "spliced-image", "--count", "1", *flags,
                             "--out", str(tmp_path / "d")])
        assert code == 2
        assert message in capfd.readouterr().err

    @pytest.mark.parametrize("kind", ["four-class", "haystack", "textured-digits"])
    def test_generate_rejects_zero_samples(self, tmp_path, capfd, kind):
        code = cli_dispatch(["generate", kind, "--n-fg", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "sample counts must be at least 1" in capfd.readouterr().err
        assert not list(tmp_path.glob("*.csv"))  # no partial dataset

    def test_generate_haystack_files(self, tmp_path):
        assert cli_dispatch(["generate", "haystack", "--seed", "4", "--out", str(tmp_path),
                             "--n-fg", "30", "--n-bg", "30"]) == 0
        for name in ("rb.csv", "rf.csv", "directions.csv", "fg.csv", "bg.csv"):
            assert (tmp_path / name).exists()

    def test_bench_prints_table(self, capfd):
        code = cli_dispatch(["bench", "--kind", "four-class", "--seed", "1",
                             "--n-fg", "60", "--n-bg", "60",
                             "--alpha-grid", "0.1:10:5", "-k", "2"])
        out = capfd.readouterr().out
        assert code == 0
        assert "cpca++" in out and "speedup" in out


class TestDenoiseCommand:
    def test_denoise_round_trip(self, tmp_path):
        assert cli_dispatch(["generate", "textured-digits", "--seed", "2",
                             "--out", str(tmp_path), "--n-fg", "60", "--n-bg", "60"]) == 0
        model = tmp_path / "model.txt"
        assert cli_dispatch(["fit", "--fg", str(tmp_path / "fg.csv"),
                             "--bg", str(tmp_path / "bg.csv"),
                             "--method", "cpca++", "-k", "3", "--out", str(model)]) == 0
        # write one noisy digit as an 8-bit image
        from cpcapp import read_csv

        fg = read_csv(tmp_path / "fg.csv")
        img = fg.values[:, 0].reshape(28, 28)
        lo, hi = img.min(), img.max()
        as_u8 = np.round(255 * (img - lo) / (hi - lo)).astype(np.uint8)
        write_image(tmp_path / "digit.pgm", as_u8)
        out = tmp_path / "denoised.pgm"
        assert cli_dispatch(["denoise", "--model", str(model),
                             "--in", str(tmp_path / "digit.pgm"),
                             "--out", str(out), "-k", "3"]) == 0
        assert out.exists()

    @pytest.fixture
    def digits_model(self, tmp_path):
        assert cli_dispatch(["generate", "textured-digits", "--seed", "2",
                             "--out", str(tmp_path), "--n-fg", "60", "--n-bg", "60"]) == 0
        model = tmp_path / "model.txt"
        assert cli_dispatch(["fit", "--fg", str(tmp_path / "fg.csv"),
                             "--bg", str(tmp_path / "bg.csv"),
                             "--method", "cpca++", "-k", "3", "--out", str(model)]) == 0
        return model

    def test_denoise_rejects_basis_that_does_not_pair_with_filters(self, tmp_path, digits_model):
        from cpcapp import load_model, save_model

        bank, w = load_model(digits_model)
        w[:, 1] *= 2.0
        save_model(digits_model, bank, w=w)
        write_image(tmp_path / "digit.pgm", np.full((28, 28), 128, dtype=np.uint8))
        code = cli_dispatch(["denoise", "--model", str(digits_model),
                             "--in", str(tmp_path / "digit.pgm"),
                             "--out", str(tmp_path / "o.pgm")])
        assert code == 2

    def test_denoise_rejects_non_finite_basis(self, tmp_path, capfd, digits_model):
        from cpcapp import load_model, save_model

        bank, w = load_model(digits_model)
        w[3, 1] = np.nan
        save_model(digits_model, bank, w=w)
        write_image(tmp_path / "digit.pgm", np.full((28, 28), 128, dtype=np.uint8))
        code = cli_dispatch(["denoise", "--model", str(digits_model),
                             "--in", str(tmp_path / "digit.pgm"),
                             "--out", str(tmp_path / "o.pgm")])
        assert code == 2 and not (tmp_path / "o.pgm").exists()
        assert "W block has non-finite values" in capfd.readouterr().err

    @pytest.mark.parametrize("side", [1, 10])  # one pixel would broadcast over the mean
    def test_denoise_rejects_wrong_size_image(self, tmp_path, digits_model, side):
        write_image(tmp_path / "small.pgm", np.full((side, side), 128, dtype=np.uint8))
        code = cli_dispatch(["denoise", "--model", str(digits_model),
                             "--in", str(tmp_path / "small.pgm"),
                             "--out", str(tmp_path / "o.pgm")])
        assert code == 2

    def test_denoise_requires_basis_block(self, tmp_path):
        assert cli_dispatch(["generate", "textured-digits", "--seed", "2",
                             "--out", str(tmp_path), "--n-fg", "40", "--n-bg", "40"]) == 0
        model = tmp_path / "pca.txt"
        assert cli_dispatch(["fit", "--fg", str(tmp_path / "fg.csv"),
                             "--method", "pca", "-k", "3", "--out", str(model)]) == 0
        code = cli_dispatch(["denoise", "--model", str(model),
                             "--in", str(tmp_path / "fg.csv"),
                             "--out", str(tmp_path / "o.pgm")])
        assert code == 2
