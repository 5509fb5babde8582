"""Command-line behavior: exit codes, outputs, determinism."""

import importlib.util
import io
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import cpcapp
from cpcapp import DataMatrix, FilterBank, build_covariance_pair, edge_mask, extract_patches, \
    fit_cpcapp, gen_spliced_image, load_model, read_csv, read_image, reconstruct_map, recover_w, \
    save_model, score_patches, second_moment, splice_pair, sym_eig, transform, \
    write_csv, write_image, write_probability_map
from cpcapp import cli
from cpcapp.cli import cli_dispatch
from cpcapp.errors import CpcappError

from conftest import generator_tables, package_uses, traced_peak, uses


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

    def test_sweep_scores_grid_with_two_factorizations(self, tmp_path, four_class_csvs):
        # no general solve; one Cholesky factor per matrix of the detection
        # statistic for the whole grid, after the loading test's one
        fg, bg = four_class_csvs
        with mock.patch("numpy.linalg.solve", wraps=np.linalg.solve) as solve, \
                mock.patch("numpy.linalg.cholesky", wraps=np.linalg.cholesky) as cholesky:
            code = cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg), "--method", "cpca",
                                 "--alpha-grid", "0.1:10:5", "--out", str(tmp_path / "m.txt")])
        assert code == 0
        assert solve.call_count == 0
        assert cholesky.call_count == 1 + 2

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_is_data_error(self, tmp_path, capfd, four_class_csvs, alpha):
        fg, bg = four_class_csvs
        model = tmp_path / "m.txt"
        code = cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg), "--method", "cpca",
                             "--alpha", alpha, "--out", str(model)])
        assert code == 2 and not model.exists()
        assert "must be finite" in capfd.readouterr().err

    @pytest.mark.parametrize("grid", ["1e-3:inf:5", "nan:1:5", "1:nan:5", "0.1:10:0"])
    def test_non_finite_alpha_grid_is_usage_error(self, tmp_path, capfd, four_class_csvs, grid):
        # an empty grid (count 0) is refused with the same message
        fg, bg = four_class_csvs
        code = cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg), "--method", "cpca",
                             "--alpha-grid", grid, "--out", str(tmp_path / "m.txt")])
        assert code == 1
        assert "0 < lo < hi < inf and count >= 1" in capfd.readouterr().err

    @pytest.mark.parametrize("grid, message", [
        ("1:0:3", "0 < lo < hi < inf"), ("1:2", "expected 'lo:hi:count'"),
        ("a:2:3", "expected 'lo:hi:count'"),
    ], ids=["descending", "two-fields", "not-a-number"])
    def test_malformed_alpha_grid_fails_before_any_read_or_fork(self, tmp_path, monkeypatch,
                                                               capfd, four_class_csvs, grid,
                                                               message):
        # the parser converts the grid, so a bad one is a usage error before any job
        forks, reads = [], []

        def fork():
            forks.append(1)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(cli.csvio, "read_csv", lambda path: reads.append(path))
        fg, bg = four_class_csvs
        code = cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg), "--method", "cpca",
                             "--alpha-grid", grid, "--out", str(tmp_path / "model.txt")])
        assert (code, forks, reads) == (1, [], [])
        err = capfd.readouterr().err
        assert err.startswith("error: argument --alpha-grid: ") and message in err
        assert not (tmp_path / "model.txt").exists()

    @pytest.mark.parametrize("method", ["pca", "cpca++"])
    @pytest.mark.parametrize("flag, value", [("--alpha", "3"), ("--alpha-grid", "1:2:3")])
    def test_alpha_flags_only_for_cpca(self, tmp_path, capfd, four_class_csvs, method, flag,
                                       value):
        fg, bg = four_class_csvs
        model = tmp_path / "model.txt"
        code = cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg), "--method", method,
                             flag, value, "--out", str(model)])
        assert code == 1
        assert f"{flag} does not apply to method {method}" in capfd.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("method", ["cpca", "cpca++"])
    def test_missing_background_flag_before_any_read(self, tmp_path, capfd, method):
        # the foreground file does not exist: the missing flag is reported, not the file
        code = cli_dispatch(["fit", "--fg", str(tmp_path / "absent.csv"), "--method", method,
                             "--out", str(tmp_path / "model.txt")])
        assert code == 1
        assert f"--bg is required for method {method}" in capfd.readouterr().err

    def test_pca_needs_no_background(self, tmp_path, four_class_csvs):
        fg, _ = four_class_csvs
        model = tmp_path / "pca.txt"
        assert cli_dispatch(["fit", "--fg", str(fg), "--method", "pca", "-k", "2",
                             "--out", str(model)]) == 0

    def test_pca_rejects_background_before_any_read(self, tmp_path, capfd, four_class_csvs):
        # the background file does not exist: the flag is reported, not the file
        fg, _ = four_class_csvs
        model = tmp_path / "pca.txt"
        code = cli_dispatch(["fit", "--fg", str(fg), "--bg", str(tmp_path / "absent.csv"),
                             "--method", "pca", "--out", str(model)])
        assert code == 1
        assert "--bg does not apply to method pca" in capfd.readouterr().err
        assert not model.exists()

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


def _savetxt(rows) -> str:
    """numpy's own writer at the file format's settings: the reference rows."""
    fh = io.StringIO()
    np.savetxt(fh, rows, fmt="%.17g", delimiter=",")
    return fh.getvalue()


def test_written_rows_match_numpy_savetxt(tmp_path):
    out = tmp_path / "digits"
    assert cli_dispatch(["generate", "textured-digits", "--seed", "4", "--out", str(out),
                         "--n-fg", "60", "--n-bg", "50"]) == 0
    tables = generator_tables("textured-digits", 4, 60, 50)
    for name, values in tables.items():
        assert (out / f"{name}.csv").read_text() == _savetxt(values.T), name
    model, projected = tmp_path / "model.txt", tmp_path / "projected.csv"
    assert cli_dispatch(["fit", "--fg", str(out / "fg.csv"), "--bg", str(out / "bg.csv"),
                         "--method", "cpca++", "-k", "3", "--out", str(model)]) == 0
    assert cli_dispatch(["transform", "--model", str(model), "--in", str(out / "fg.csv"),
                         "--out", str(projected)]) == 0
    bank, w = load_model(model)
    assert projected.read_text() == _savetxt(transform(bank, read_csv(out / "fg.csv")).T)
    rows = "".join(model.read_text().splitlines(keepends=True)[2:])
    assert rows == (_savetxt([bank.train_mean_bg, bank.train_mean_fg])
                    + _savetxt([bank.eigenvalues]) + _savetxt(bank.f) + "W\n" + _savetxt(w))


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

    def test_unknown_subcommand_is_usage_error(self, capfd):
        assert cli_dispatch(["frobnicate"]) == 1
        assert cli_dispatch(["bench"]) == 1
        assert "invalid choice: 'bench'" in capfd.readouterr().err

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

    def test_train_saves_the_library_fit(self, tmp_path):
        # train-splice is splice_pair over the sorted probes, fitted and saved with its W
        assert cli_dispatch(["generate", "spliced-image", "--seed", "5", "--count", "4",
                             "--out", str(tmp_path)]) == 0
        assert cli_dispatch(["train-splice", "--train-dir", str(tmp_path), "--n", "6",
                             "--stride", "3", "-k", "4", "--fg-lo", "0.2", "--fg-hi", "0.8",
                             "--bg-edge-min", "0.1", "--out", str(tmp_path / "cli.txt")]) == 0
        pair = splice_pair(((i, read_image(tmp_path / f"probe_{i:03d}.ppm"),
                             read_image(tmp_path / f"surface_{i:03d}.pgm")) for i in range(4)),
                           n=6, stride=3, fg_range=(0.2, 0.8), bg_edge_min=0.1)
        bank = fit_cpcapp(pair, 4)
        save_model(tmp_path / "library.txt", bank, w=recover_w(pair, bank).w)
        assert files_equal(tmp_path / "cli.txt", tmp_path / "library.txt")

    @staticmethod
    def _random_model(path, m, seed=3):
        f, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, 3)))
        save_model(path, FilterBank(method="pca", f=f, train_mean_bg=np.zeros(m),
                                    train_mean_fg=np.zeros(m),
                                    eigenvalues=np.array([3.0, 2.0, 1.0]), loading=0.0))

    def test_localize_grey_probe(self, tmp_path):
        # a model of M = n^2 features localizes a grey (P5) probe with n x n patches
        probe = gen_spliced_image(4, 48, 40)[0][:, :, 1]
        write_image(tmp_path / "probe.pgm", probe)
        model = tmp_path / "model.txt"
        self._random_model(model, 36)
        assert cli_dispatch(["localize", "--model", str(model), "--image",
                             str(tmp_path / "probe.pgm"), "--out", str(tmp_path / "map.pgm"),
                             "--stride", "3"]) == 0
        grid = extract_patches(probe, 6, 3)
        bank, _ = load_model(model)
        want = reconstruct_map(score_patches(bank, grid.patches), grid, edge_mask(probe))
        write_probability_map(tmp_path / "want.pgm", want.values)
        assert files_equal(tmp_path / "map.pgm", tmp_path / "want.pgm")

    def test_localize_peak_on_a_large_probe(self, tmp_path):
        # no patch matrix: the edge mask sets the peak, then one band of patches
        side = 512
        write_image(tmp_path / "probe.ppm", gen_spliced_image(5, side, side)[0])
        model = tmp_path / "model.txt"
        self._random_model(model, 192)
        codes = []
        peak = traced_peak(lambda: codes.append(cli_dispatch(
            ["localize", "--model", str(model), "--image", str(tmp_path / "probe.ppm"),
             "--out", str(tmp_path / "map.pgm")])))
        assert codes == [0]
        assert peak <= 6 * side * side * 8

    def test_localize_holds_under_three_fields(self, tmp_path):
        # read once, edges and map in row bands, scores in bands of about
        # 1,024 patches, the map quantized by bands
        side = 512
        write_image(tmp_path / "probe.ppm", gen_spliced_image(5, side, side)[0])
        model = tmp_path / "model.txt"
        self._random_model(model, 192)
        codes = []
        peak = traced_peak(lambda: codes.append(cli_dispatch(
            ["localize", "--model", str(model), "--image", str(tmp_path / "probe.ppm"),
             "--out", str(tmp_path / "map.pgm")])))
        assert codes == [0]
        assert peak <= 3.0 * side * side * 8

    def test_k_below_one_fails_before_any_read(self, tmp_path, monkeypatch, capfd):
        assert cli_dispatch(["generate", "spliced-image", "--seed", "5", "--count", "2",
                             "--out", str(tmp_path)]) == 0
        reads = []
        monkeypatch.setattr(cli.netpbm, "read_image", lambda path: reads.append(path))
        code = cli_dispatch(["train-splice", "--train-dir", str(tmp_path), "-k", "0",
                             "--out", str(tmp_path / "model.txt")])
        assert (code, reads) == (2, [])
        assert capfd.readouterr().err == "error: -k must be at least 1, got 0\n"
        assert not (tmp_path / "model.txt").exists()

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

    def test_train_names_probe_whose_mask_does_not_fit(self, tmp_path, capfd):
        data = tmp_path / "imgs"
        assert cli_dispatch(["generate", "spliced-image", "--seed", "5",
                             "--count", "3", "--out", str(data)]) == 0
        mask = data / "surface_001.pgm"
        write_image(mask, read_image(mask)[:30, :32])
        code = cli_dispatch(["train-splice", "--train-dir", str(data),
                             "--out", str(tmp_path / "model.txt")])
        err = capfd.readouterr().err
        assert code == 2
        assert "probe_001.ppm" in err and "mask dimensions must match" in err

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--fg-lo", "2", "got (2.0, 0.7)"), ("--fg-hi", "-1", "got (0.3, -1.0)"),
        ("--bg-edge-min", "nan", "must be in [0, 1], got nan"),
    ])
    def test_bad_threshold_fails_before_any_read_or_fork(self, tmp_path, monkeypatch, capfd,
                                                         flag, value, message):
        assert cli_dispatch(["generate", "spliced-image", "--seed", "5", "--count", "2",
                             "--out", str(tmp_path)]) == 0
        forks, reads = [], []

        def fork():
            forks.append(1)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(cli.netpbm, "read_image", lambda path: reads.append(path))
        code = cli_dispatch(["train-splice", "--train-dir", str(tmp_path), flag, value,
                             "--out", str(tmp_path / "model.txt")])
        assert (code, forks, reads) == (2, [], [])
        assert message in capfd.readouterr().err
        assert not (tmp_path / "model.txt").exists()

    def test_train_names_probe_with_truncated_header(self, tmp_path, capfd):
        data = tmp_path / "imgs"
        assert cli_dispatch(["generate", "spliced-image", "--seed", "5", "--count", "3",
                             "--width", "32", "--height", "32", "--out", str(data)]) == 0
        (data / "probe_001.ppm").write_bytes(b"P6\n32")
        code = cli_dispatch(["train-splice", "--train-dir", str(data),
                             "--out", str(tmp_path / "model.txt")])
        assert code == 2
        assert capfd.readouterr().err == (f"error: {data / 'probe_001.ppm'}: "
                                          "truncated netpbm header\n")

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
        codes, peaks = [], []
        for train_dir in (few, every):
            peaks.append(traced_peak(lambda: codes.append(cli_dispatch(
                ["train-splice", "--train-dir", str(train_dir),
                 "--out", str(tmp_path / "model.txt")]))))
        assert codes == [0, 0]
        assert peaks[1] <= 1.2 * peaks[0], peaks

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli_dispatch(["generate", "spliced-image", "--seed", "9",
                                 "--count", "3", "--out", str(out)]) == 0
        for name in ("probe_001.ppm", "surface_002.pgm", "edge_000.pgm"):
            assert files_equal(a / name, b / name)


def test_generate_peak_on_a_large_probe(tmp_path):
    # the probe is built one channel at a time and written as uint8
    side = 512
    codes = []
    peak = traced_peak(lambda: codes.append(cli_dispatch(
        ["generate", "spliced-image", "--seed", "5", "--count", "1", "--height", str(side),
         "--width", str(side), "--out", str(tmp_path)])))
    assert codes == [0]
    assert peak <= 7 * side * side * 8


# An exec'ed process keeps the peak resident set of the process it replaces:
# under vfork, the test runner's. The launcher forks, and its small child
# execs the command, so the command starts from the launcher's small peak.
_FRESH_PEAK_LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""

_GUARD_SCRIPT = """
import resource, sys
from cpcapp.cli import cli_dispatch

def rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

out = sys.argv[1]
base = rss_mib()
steps = [
    ["generate", "spliced-image", "--seed", "3", "--count", "4", "--width", "128",
     "--height", "128", "--out", out + "/train"],
    ["train-splice", "--train-dir", out + "/train", "--out", out + "/model.txt"],
    ["generate", "spliced-image", "--seed", "5", "--count", "1", "--width", "512",
     "--height", "512", "--out", out + "/big"],
    ["localize", "--model", out + "/model.txt", "--image", out + "/big/probe_000.ppm",
     "--out", out + "/map.pgm"],
]
for argv in steps:
    if cli_dispatch(argv) != 0:
        sys.exit(argv[0] + " failed")
print(rss_mib() - base)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_splice_steps_resident_memory(tmp_path):
    # a fresh process: train on small probes, then generate and localize a
    # 512^2 probe. Its peak resident set grows by about 13.2 MiB over its
    # level after import (18.4 MiB when each step held whole-image fields);
    # BLAS is pinned to one thread, whose buffers count too.
    env = dict(os.environ, PYTHONPATH=str(Path(cpcapp.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _FRESH_PEAK_LAUNCHER, "-c", _GUARD_SCRIPT,
                          str(tmp_path)], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    growth_mib = float(run.stdout)
    assert growth_mib < 15.0, growth_mib


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
    @pytest.mark.parametrize("flag, value", [("--count", "0"), ("--count", "3"),
                                             ("--width", "8"), ("--height", "8")])
    def test_generate_rejects_image_flags_for_tables(self, tmp_path, capfd, kind, flag, value):
        # the kind's own parser refuses the flag: a usage error that names it
        code = cli_dispatch(["generate", kind, flag, value, "--out", str(tmp_path)])
        assert code == 1
        assert flag in capfd.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--n-fg", "--n-bg"])
    def test_generate_rejects_table_flags_for_images(self, tmp_path, capfd, flag):
        code = cli_dispatch(["generate", "spliced-image", "--count", "1", flag, "10",
                             "--out", str(tmp_path)])
        assert code == 1
        assert flag in capfd.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_generate_image_defaults(self, tmp_path):
        # 25 probes of 64x64 when neither --count nor a size is given
        assert cli_dispatch(["generate", "spliced-image", "--seed", "2",
                             "--out", str(tmp_path)]) == 0
        probes = sorted(tmp_path.glob("probe_*.ppm"))
        assert len(probes) == 25
        assert read_image(probes[-1]).shape == (64, 64, 3)

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


def _cpus(monkeypatch, n):
    """Let generate see ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _tree(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="generate runs in one process without fork")
class TestGenerateWorkers:
    """generate's forked workers write what one process writes, and outlive no run."""

    GENERATE = ["generate", "spliced-image", "--seed", "6", "--count", "7", "--width", "40",
                "--height", "36"]

    def test_files_identical_for_any_worker_count(self, tmp_path, monkeypatch):
        trees = []
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            assert cli_dispatch([*self.GENERATE, "--out", str(out)]) == 0
            _assert_no_children()
            trees.append(_tree(out))
        assert trees[0] == trees[1] == trees[2]
        assert len(trees[0]) == 21

    @pytest.mark.parametrize("blocked", [
        ["probe_001.ppm"],  # worker 1's first job
        ["edge_003.pgm", "probe_004.ppm"],  # worker 1 fails before worker 0
        ["surface_002.pgm", "probe_005.ppm"],  # worker 0 fails first
    ])
    def test_failure_gives_the_serial_error(self, tmp_path, monkeypatch, capfd, blocked):
        # a directory in a file's place fails that job with an OSError naming it
        results = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            for name in blocked:
                (out / name).mkdir(parents=True)
            code = cli_dispatch([*self.GENERATE, "--out", str(out)])
            _assert_no_children()
            results.append((code, capfd.readouterr().err.replace(str(out), "OUT")))
        assert results[0][0] == 2
        assert blocked[0] in results[0][1]
        assert results[1] == results[0]

    def test_shares_not_forked_run_here(self, tmp_path, monkeypatch):
        # a fork that fails (no process to spare) leaves its share to this process
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        _cpus(monkeypatch, 1)
        assert cli_dispatch([*self.GENERATE, "--out", str(tmp_path / "one")]) == 0
        _cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", no_fork)
        assert cli_dispatch([*self.GENERATE, "--out", str(tmp_path / "unforked")]) == 0
        assert _tree(tmp_path / "unforked") == _tree(tmp_path / "one")

    def test_a_child_that_dies_is_made_good(self, tmp_path, monkeypatch):
        # every forked child exits 3 before its first job, a failure that the
        # jobs run again in this process do not meet
        me, write_probe = os.getpid(), cli._write_probe

        def write_or_die(*job):
            if os.getpid() != me:
                os._exit(3)
            write_probe(*job)

        _cpus(monkeypatch, 1)
        assert cli_dispatch([*self.GENERATE, "--out", str(tmp_path / "one")]) == 0
        _cpus(monkeypatch, 3)
        monkeypatch.setattr(cli, "_write_probe", write_or_die)
        assert cli_dispatch([*self.GENERATE, "--out", str(tmp_path / "died")]) == 0
        _assert_no_children()
        assert _tree(tmp_path / "died") == _tree(tmp_path / "one")

    @pytest.mark.parametrize("kind", ["four-class", "haystack", "textured-digits"])
    def test_table_files_identical_for_any_worker_count(self, tmp_path, monkeypatch, kind):
        # each table is a job of its own, drawn at its own stream positions:
        # the files hold the generators' tables at any worker count
        argv = ["generate", kind, "--seed", "6", "--n-fg", "40", "--n-bg", "30"]
        trees = []
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            assert cli_dispatch([*argv, "--out", str(out)]) == 0
            _assert_no_children()
            trees.append(_tree(out))
        monkeypatch.delattr(os, "fork")
        assert cli_dispatch([*argv, "--out", str(tmp_path / "unforked")]) == 0
        trees.append(_tree(tmp_path / "unforked"))
        library = tmp_path / "library"
        library.mkdir()
        for name, values in generator_tables(kind, 6, 40, 30).items():
            write_csv(library / f"{name}.csv", values)
        assert trees == [_tree(library)] * 4

    def test_a_child_that_dies_mid_table_is_made_good(self, tmp_path, monkeypatch):
        # every forked child writes half of its first table and exits 3, a
        # failure that the tables written again in this process do not meet
        me, write = os.getpid(), cli.csvio.write_csv

        def write_or_die(path, values):
            if os.getpid() != me:
                write(path, values[:, :values.shape[1] // 2])
                os._exit(3)
            write(path, values)

        argv = ["generate", "textured-digits", "--seed", "6", "--n-fg", "40", "--n-bg", "30"]
        _cpus(monkeypatch, 1)
        assert cli_dispatch([*argv, "--out", str(tmp_path / "one")]) == 0
        _cpus(monkeypatch, 3)
        monkeypatch.setattr(cli.csvio, "write_csv", write_or_die)
        assert cli_dispatch([*argv, "--out", str(tmp_path / "died")]) == 0
        _assert_no_children()
        assert _tree(tmp_path / "died") == _tree(tmp_path / "one")

    @pytest.mark.parametrize("flag", ["--n-fg", "--n-bg"])
    def test_bad_count_fails_before_any_fork(self, tmp_path, monkeypatch, capfd, flag):
        # checked once, here, not in every worker and again in the rerun
        forks = []

        def fork():
            forks.append(1)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        _cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", fork)
        code = cli_dispatch(["generate", "textured-digits", flag, "0",
                             "--out", str(tmp_path / "d")])
        assert (code, forks) == (2, [])
        assert capfd.readouterr().err == "error: sample counts must be at least 1\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag, size", [("--width", "0x64"), ("--height", "64x0")])
    def test_bad_probe_size_fails_before_any_fork(self, tmp_path, monkeypatch, capfd,
                                                  flag, size):
        # checked once, here, not in every worker and again in the rerun
        forks = []

        def fork():
            forks.append(1)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", fork)
        code = cli_dispatch(["generate", "spliced-image", "--count", "3", flag, "0",
                             "--out", str(tmp_path / "d")])
        assert (code, forks) == (2, [])
        assert capfd.readouterr().err == f"error: image size {size} must be at least 1x1\n"
        assert not (tmp_path / "d").exists()

    def test_interrupt_kills_and_reaps_the_children(self, tmp_path, monkeypatch):
        # this process is interrupted while it waits on its children, each
        # in a long job; SIGINT goes to the main thread, the one that waits
        _cpus(monkeypatch, 2)

        def probe(seed, **size):
            time.sleep(60)

        interrupt = threading.Timer(1.0, signal.pthread_kill,
                                    (threading.main_thread().ident, signal.SIGINT))
        start = time.perf_counter()
        with mock.patch("cpcapp.cli.gen_spliced_image", probe), \
                pytest.raises(KeyboardInterrupt):
            interrupt.start()
            cli_dispatch(["generate", "spliced-image", "--count", "4", "--out", str(tmp_path)])
        interrupt.join(timeout=30)
        assert not interrupt.is_alive()
        _assert_no_children()
        assert time.perf_counter() - start < 30

    def test_child_stops_once_its_parent_is_gone(self, tmp_path):
        written = tmp_path / "written"
        pid = os.fork()
        if pid == 0:  # the child runs as if forked by another process, which is gone
            try:
                cli._run_child(lambda: written.touch(), [()], parent=os.getppid() + 1,
                               out=os.pipe()[1], inherited=[])
            finally:
                os._exit(99)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1
        assert not written.exists()

    @pytest.mark.parametrize("jobs, cpus, workers", [(60, 2, 2), (1, 2, 1), (3, 8, 3), (4, 1, 1)])
    def test_worker_count_bounds(self, monkeypatch, jobs, cpus, workers):
        _cpus(monkeypatch, cpus)
        assert cli._worker_count(jobs) == workers

    def test_worker_count_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._worker_count(5) == 3

    def test_one_process_without_fork(self, tmp_path, monkeypatch):
        # W = 1, so a mock sees every probe drawn here, once each, in order
        monkeypatch.delattr(os, "fork")
        _cpus(monkeypatch, 4)
        with mock.patch("cpcapp.cli.gen_spliced_image", wraps=gen_spliced_image) as gen:
            assert cli_dispatch(["generate", "spliced-image", "--seed", "6", "--count", "3",
                                 "--out", str(tmp_path)]) == 0
        assert [c.args[0] for c in gen.call_args_list] == cpcapp.SplitMix64(6).spawn_seeds(3)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the sweep runs in one process without fork")
class TestSweepWorkers:
    """fit's cpca sweep returns from its forked workers what one process computes."""

    GRID = ["--alpha-grid", "0.1:10:5"]

    def _fit(self, csvs, out, grid):
        fg, bg = csvs
        return cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg), "--method", "cpca",
                             "-k", "2", *grid, "--out", str(out)])

    @pytest.mark.parametrize("grid", [[], GRID], ids=["default-grid", "five-points"])
    def test_model_identical_for_any_worker_count(self, tmp_path, monkeypatch, four_class_csvs,
                                                  grid):
        models = []
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            model = tmp_path / f"model{cpus}.txt"
            assert self._fit(four_class_csvs, model, grid) == 0
            _assert_no_children()
            models.append(model.read_bytes())
        assert models[0] == models[1] == models[2]

    def test_a_child_that_dies_is_made_good(self, tmp_path, monkeypatch, four_class_csvs):
        # every forked child exits 3 before its first grid point, a failure
        # that the grid points run again in this process do not meet
        me, fit_cpca = os.getpid(), cli.fit_cpca

        def fit_or_die(*job):
            if os.getpid() != me:
                os._exit(3)
            return fit_cpca(*job)

        _cpus(monkeypatch, 1)
        assert self._fit(four_class_csvs, tmp_path / "one.txt", self.GRID) == 0
        _cpus(monkeypatch, 3)
        monkeypatch.setattr(cli, "fit_cpca", fit_or_die)
        assert self._fit(four_class_csvs, tmp_path / "died.txt", self.GRID) == 0
        _assert_no_children()
        assert files_equal(tmp_path / "died.txt", tmp_path / "one.txt")

    def test_failure_gives_the_serial_error(self, tmp_path, monkeypatch, capfd, four_class_csvs):
        # grid points 1 and 4 raise in every process; running in order meets 1 first
        grid, fit_cpca = cli._parse_alpha_grid(self.GRID[1]), cli.fit_cpca

        def fit_or_raise(pair, k, alpha):
            if alpha in (grid[1], grid[4]):
                raise CpcappError(f"cannot fit alpha {alpha!r}")
            return fit_cpca(pair, k, alpha)

        monkeypatch.setattr(cli, "fit_cpca", fit_or_raise)
        results = []
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            model = tmp_path / f"model{cpus}.txt"
            code = self._fit(four_class_csvs, model, self.GRID)
            _assert_no_children()
            results.append((code, capfd.readouterr().err, model.exists()))
        assert results[0] == (2, f"error: cannot fit alpha {grid[1]!r}\n", False)
        assert results[1] == results[2] == results[0]

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_run_jobs_returns_results_in_job_order(self, monkeypatch, cpus, count):
        def run(i, shape):
            return i, np.random.default_rng(i).standard_normal(shape), os.getpid()

        jobs = [(i, (i + 1, 3)) for i in range(count)]
        _cpus(monkeypatch, cpus)
        results = cli._run_jobs(run, jobs)
        _assert_no_children()
        expected = [run(*job) for job in jobs]
        assert [r[0] for r in results] == [e[0] for e in expected]
        for got, want in zip(results, expected):
            assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
            assert got[1].tobytes() == want[1].tobytes()
        # with more than one worker this process runs no job, only collects
        workers, pids = min(cpus, count), {r[2] for r in results}
        assert len(pids) == workers and (os.getpid() in pids) == (workers == 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fit reads in one process without fork")
class TestFitWorkers:
    """fit reads its two tables on forked workers: its models and errors are one process's."""

    def _fit(self, fg, bg, method, out):
        tables = ["--fg", str(fg)] + (["--bg", str(bg)] if method != "pca" else [])
        return cli_dispatch(["fit", *tables, "--method", method, "-k", "2", "--out", str(out)])

    @pytest.mark.parametrize("method", ["pca", "cpca++", "cpca"])
    def test_model_identical_for_any_worker_count(self, tmp_path, monkeypatch, four_class_csvs,
                                                  method):
        models = []
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            model = tmp_path / f"model{cpus}.txt"
            assert self._fit(*four_class_csvs, method, model) == 0
            _assert_no_children()
            models.append(model.read_bytes())
        assert models[1] == models[0] and models[2] == models[0]

    def test_cpcapp_model_is_the_library_fit(self, tmp_path, four_class_csvs):
        # the command forms S in its own pair's r_f; the library keeps a
        # caller's pair intact, and both give the same model
        fg, bg = four_class_csvs
        assert self._fit(fg, bg, "cpca++", tmp_path / "cli.txt") == 0
        pair = build_covariance_pair(read_csv(bg), read_csv(fg))
        r_f = pair.r_f.copy()
        bank = fit_cpcapp(pair, 2)
        assert pair.r_f.tobytes() == r_f.tobytes()
        save_model(tmp_path / "library.txt", bank, w=recover_w(pair, bank).w)
        assert files_equal(tmp_path / "cli.txt", tmp_path / "library.txt")

    def test_pca_model_is_the_library_fit(self, tmp_path, monkeypatch, four_class_csvs):
        # pca's one read job runs here, centers its table in place, and gives
        # the model of the library fit on the table
        fg, _ = four_class_csvs
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("one job forks no worker"))
        assert self._fit(fg, None, "pca", tmp_path / "cli.txt") == 0
        save_model(tmp_path / "library.txt", cli.fit_pca(read_csv(fg), 2))
        assert files_equal(tmp_path / "cli.txt", tmp_path / "library.txt")

    @pytest.mark.parametrize("fg_state, bg_state, named", [
        ("good", "missing", "bg"), ("good", "malformed", "bg"),
        ("malformed", "missing", "fg"), ("missing", "malformed", "fg"),
    ])
    def test_errors_are_the_one_process_errors(self, tmp_path, monkeypatch, capfd,
                                               four_class_csvs, fg_state, bg_state, named):
        # an error in --fg wins over one in --bg, as reading them in order gives
        def table(state, good):
            path = tmp_path / f"{state}-{good.name}"
            if state == "good":
                return good
            if state == "malformed":
                path.write_text("1,2\n3,x\n")
            return path

        fg, bg = (table(state, good) for state, good in zip((fg_state, bg_state),
                                                            four_class_csvs))
        results = []
        for cpus in (1, 2, 3, None):
            if cpus is None:
                monkeypatch.delattr(os, "fork")
            else:
                _cpus(monkeypatch, cpus)
            model = tmp_path / "model.txt"
            code = self._fit(fg, bg, "cpca++", model)
            _assert_no_children()
            results.append((code, capfd.readouterr().err, model.exists()))
        assert results[0][0] == 2 and not results[0][2]
        assert str({"fg": fg, "bg": bg}[named]) in results[0][1]
        assert results == [results[0]] * 4

    @pytest.mark.parametrize("method", ["cpca", "cpca++"])
    def test_k_below_one_fails_before_any_read_or_fork(self, tmp_path, monkeypatch, capfd,
                                                       four_class_csvs, method):
        # checked once, here, not after both tables are read and the grid is run
        forks, reads = [], []

        def fork():
            forks.append(1)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(cli.csvio, "read_csv", lambda path: reads.append(path))
        fg, bg = four_class_csvs
        code = cli_dispatch(["fit", "--fg", str(fg), "--bg", str(bg), "--method", method,
                             "-k", "0", "--out", str(tmp_path / "model.txt")])
        assert (code, forks, reads) == (2, [], [])
        assert capfd.readouterr().err == "error: -k must be at least 1, got 0\n"
        assert not (tmp_path / "model.txt").exists()

    def test_results_larger_than_a_pipe_buffer(self, monkeypatch):
        # an M = 784 Moments pickles to about 4.9 MB, far above a pipe's 64 KiB;
        # each child's results wait in its pipe until this process reads them
        def moments(seed):
            data = DataMatrix(values=np.random.default_rng(seed).standard_normal((784, 40)))
            return os.getpid(), second_moment(data)

        jobs = [(1,), (2,), (3,)]
        _cpus(monkeypatch, 2)
        results = cli._run_jobs(moments, jobs)
        _assert_no_children()
        assert os.getpid() not in {pid for pid, _ in results}
        for (_, got), (_, want) in zip(results, [moments(*job) for job in jobs]):
            assert got.n == want.n
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.scatter.tobytes() == want.scatter.tobytes()


def test_cpcapp_fit_gives_up_r_f_before_its_eigensolve(tmp_path, monkeypatch):
    # the command's pair is its own: S is formed in r_f's buffer, so the
    # eigensolve starts beside r_b and S alone, 2 M x M above the start
    # (3 while r_f was held beside S)
    m = 784
    assert cli_dispatch(["generate", "textured-digits", "--seed", "2", "--n-fg", "60",
                         "--n-bg", "60", "--out", str(tmp_path)]) == 0
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        held = []

        def eig(a, k):
            held.append(tracemalloc.get_traced_memory()[0] - base)
            return sym_eig(a, k)

        with mock.patch("cpcapp.linalg.sym_eig", eig):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                code = cli_dispatch(["fit", "--fg", str(tmp_path / "fg.csv"),
                                     "--bg", str(tmp_path / "bg.csv"), "--method", "cpca++",
                                     "-k", "3", "--out", str(tmp_path / "model.txt")])
            finally:
                tracemalloc.stop()
        assert code == 0
        assert len(held) == 1 and held[0] <= 2.3 * m * m * 8, (cpus, held)


class TestOneForkSite:
    """``cli._run_jobs`` is the package's one ``os.fork``, and only commands call it.

    A fork costs a process that calls BLAS afterwards about 0.7 MiB of peak
    resident set (README), so a new fork site is a deliberate change. The
    library (``reducers``, ``linalg`` and the rest) runs in one process, so
    acceptance criterion 6 times the paper's sweep against one eigensolve.
    """

    def test_only_run_jobs_forks(self):
        assert package_uses({"fork"}) == {"cli.py": [("_run_jobs", "fork")]}

    def test_only_commands_run_jobs(self):
        # fit's two: the reads of its tables, then a cpca sweep's grid points
        assert package_uses({"_run_jobs"}) == {"cli.py": [("_cmd_generate", "_run_jobs"),
                                                          ("_cmd_fit", "_run_jobs"),
                                                          ("_cmd_fit", "_run_jobs")]}

    @pytest.mark.parametrize("source, found", [
        ("import os\ndef _run_jobs():\n    os.fork()\ndef f():\n    return os.fork",
         [("_run_jobs", "fork", 3), ("f", "fork", 5)]),
        ("from os import fork", [("", "fork", 1)]),
        ("import os\nclass A:\n    def f(self):\n        os.fork()", [("A.f", "fork", 4)]),
        ("from .cli import _run_jobs\ndef sweep(pair, k, alphas):\n"
         "    return _run_jobs(fit_cpca, [(pair, k, a) for a in alphas])",
         [("", "_run_jobs", 1), ("sweep", "_run_jobs", 3)]),
        ("from . import cli\ndef sym_eig(a, k):\n    return cli._run_jobs(eigh, [(a,)])",
         [("sym_eig", "_run_jobs", 3)]),
    ], ids=["fork-outside-run_jobs", "from-import-fork", "fork-in-a-method",
            "run_jobs-in-reducers", "run_jobs-in-linalg"])
    def test_check_finds_each_fork(self, source, found):
        assert uses(source, {"fork", "_run_jobs"}) == found


TRAINING_STEPS = {"extract_patches", "label_patches"}


class TestOneTrainingSite:
    """Patches are extracted and labeled in ``splicing.splice_pair`` alone, the one
    training recipe; the package root re-exports the two steps."""

    def test_only_splice_pair_extracts_and_labels(self):
        assert package_uses(TRAINING_STEPS) == {
            "__init__.py": [("", "extract_patches"), ("", "label_patches")],
            "splicing.py": [("splice_pair", "extract_patches"), ("splice_pair", "label_patches")]}

    @pytest.mark.parametrize("source, found", [
        ("def _cmd_train_splice(args):\n    return label_patches(grid, surface, edge)",
         [("_cmd_train_splice", "label_patches", 2)]),
        ("from .splicing import label_patches", [("", "label_patches", 1)]),
        ("class A:\n    def f(self, image):\n        return splicing.extract_patches(image, 8, 4)",
         [("A.f", "extract_patches", 3)]),
    ], ids=["call-in-cli", "from-import", "call-in-a-method"])
    def test_check_finds_each_reference(self, source, found):
        assert uses(source, TRAINING_STEPS) == found


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

    @pytest.mark.parametrize("k, message", [
        ("0", "-k must be at least 1, got 0"),
        ("9", "-k must be at most the model's K = 3, got 9"),
    ], ids=["below-one", "above-K"])
    def test_k_out_of_range_fails_before_the_image_is_read(self, tmp_path, monkeypatch, capfd,
                                                           digits_model, k, message):
        # below 1 before the model is read; above K once the model says what K is
        write_image(tmp_path / "digit.pgm", np.full((28, 28), 128, dtype=np.uint8))
        loads, reads = [], []
        monkeypatch.setattr(cli, "load_model", lambda path: loads.append(path) or load_model(path))
        monkeypatch.setattr(cli.netpbm, "read_image", lambda path: reads.append(path))
        code = cli_dispatch(["denoise", "--model", str(digits_model), "-k", k,
                             "--in", str(tmp_path / "digit.pgm"), "--out", str(tmp_path / "o.pgm")])
        assert (code, len(loads), reads) == (2, int(k) > 1, [])
        assert capfd.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.pgm").exists()

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


def test_traced_pass_feeds_every_observer(tmp_path, monkeypatch):
    # the benchmark's tracer wraps the library and reads arguments and results
    # of its calls; a signature it no longer understands fails here, not only
    # in a traced benchmark run. On one CPU every call runs in this process:
    # the tracer does not see the calls of the commands' forked workers.
    _cpus(monkeypatch, 1)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    imgs, data = tmp_path / "imgs", tmp_path / "data"
    steps = [
        ["generate", "spliced-image", "--seed", "3", "--count", "4", "--width", "48",
         "--height", "48", "--out", str(imgs)],
        ["train-splice", "--train-dir", str(imgs), "--out", str(tmp_path / "splice.txt")],
        ["localize", "--model", str(tmp_path / "splice.txt"), "--image",
         str(imgs / "probe_003.ppm"), "--out", str(tmp_path / "map.pgm")],
        ["generate", "textured-digits", "--seed", "3", "--n-fg", "60", "--n-bg", "60",
         "--out", str(data)],
        ["fit", "--fg", str(data / "fg.csv"), "--bg", str(data / "bg.csv"),
         "--method", "cpca++", "--out", str(tmp_path / "digits.txt")],
    ]
    tracer = tracer_mod.Tracer(cpcapp)
    codes = []
    with tracer.installed():
        for argv in steps:
            with tracer.span(f"cli.{argv[0]}"):
                codes.append(cli_dispatch(argv))
    assert codes == [0] * len(steps)
    for counter in ("splicing.patches", "splicing.labeled_patches", "stats.second_moment.gflop",
                    "rng.words", "csvio.read_csv.bytes"):
        assert tracer.counters[counter] > 0, counter
