"""Command-line behavior: exit codes, outputs, determinism."""

import time

import numpy as np
import pytest

from cpcapp import write_csv, write_image
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

    def test_unknown_subcommand_is_usage_error(self):
        assert cli_dispatch(["frobnicate"]) == 1

    def test_missing_required_argument(self):
        assert cli_dispatch(["fit", "--method", "pca"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert cli_dispatch(["transform", "--model", str(tmp_path / "no.txt"),
                             "--in", str(tmp_path / "no.csv"),
                             "--out", str(tmp_path / "y.csv")]) == 2

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

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli_dispatch(["generate", "spliced-image", "--seed", "9",
                                 "--count", "3", "--out", str(out)]) == 0
        for name in ("probe_001.ppm", "surface_002.pgm", "edge_000.pgm"):
            assert files_equal(a / name, b / name)


class TestGenerateAndBench:
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
