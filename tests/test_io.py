"""CSV and netpbm round trips plus model-file serialization."""

import numpy as np
import pytest

from cpcapp import (
    DataMatrix,
    ParseError,
    build_covariance_pair,
    fit_cpca,
    fit_cpcapp,
    fit_pca,
    load_model,
    read_csv,
    read_csv_table,
    read_image,
    read_probability_map,
    recover_w,
    save_model,
    write_csv,
    write_image,
    write_probability_map,
)

from conftest import traced_peak


class TestCsv:
    def test_basic_read(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        data = read_csv(path)
        assert data.samples == 2 and data.features == 2
        np.testing.assert_array_equal(data.values, [[1.0, 3.0], [2.0, 4.0]])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        data = read_csv(path)
        assert data.samples == 2

    def test_header_names_retained(self, tmp_path):
        from cpcapp import read_csv_table

        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        table = read_csv_table(path)
        assert table.header == ["a", "b"]
        np.testing.assert_array_equal(table.rows, [[1.0, 2.0], [3.0, 4.0]])

    def test_round_trip_bit_exact(self, tmp_path, rng):
        values = rng.standard_normal((5, 9)) * np.exp(rng.standard_normal((5, 9)) * 8)
        path = tmp_path / "rt.csv"
        write_csv(path, values)
        back = read_csv(path)
        assert np.array_equal(back.values, values)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match=":2:"):
            read_csv(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(ParseError, match=":2:"):
            read_csv(path)

    def test_non_ascii_byte_is_parse_error(self, tmp_path):
        from cpcapp import read_csv_table

        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n3,\xe9\n")
        with pytest.raises(ParseError, match="not an ASCII text file"):
            read_csv_table(path)


# Inputs around the one-pass read's fallback to the line walk, each with the
# table (header, rows) or the ParseError message of the line-walk reader.
CSV_EDGES = {
    "whitespace-only line": (b"1,2\n   \n3,4\n", (None, [[1.0, 2.0], [3.0, 4.0]])),
    "form-feed line": (b"1,2\n\x0c\n3,4\n", (None, [[1.0, 2.0], [3.0, 4.0]])),
    "leading blank line": (b"\n1,2\n3,4\n", (None, [[1.0, 2.0], [3.0, 4.0]])),
    "header": (b"a, b\n1,2\n3,4\n", (["a", "b"], [[1.0, 2.0], [3.0, 4.0]])),
    "header after a blank line": (b"\na,b\n1,2\n", ":2: non-numeric cell in data row"),
    "header only": (b"a,b\n", ": no numeric rows found"),
    "empty file": (b"", ": no numeric rows found"),
    "blank lines only": (b"\n \n", ": no numeric rows found"),
    "non-ASCII byte": (b"1,2\n3,\xe94\n", ": not an ASCII text file (byte 0xe9)"),
    "carriage returns": (b"1,2\r3,4\r", (None, [[1.0, 2.0], [3.0, 4.0]])),
    "non-finite value": (b"1,nan\n", ": file contains non-finite values"),
    "ragged row": (b"1,2\n3\n", ":2: row has 1 cells, expected 2"),
}


class TestCsvReadPaths:
    @pytest.mark.filterwarnings("error")  # loadtxt warns on input with no data
    @pytest.mark.parametrize("case", list(CSV_EDGES))
    def test_same_table_or_message_as_the_line_walk(self, tmp_path, case):
        data, want = CSV_EDGES[case]
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        if isinstance(want, str):
            with pytest.raises(ParseError) as info:
                read_csv_table(path)
            assert str(info.value) == f"{path}{want}"
        else:
            table = read_csv_table(path)
            assert table.header == want[0]
            assert table.rows.tobytes() == np.array(want[1]).tobytes()

    def test_read_holds_about_one_table(self, tmp_path, rng):
        # parsed from the open stream, with or without a header or a
        # whitespace-only line: no list of the file's lines is kept
        path = tmp_path / "t.csv"
        write_csv(path, rng.standard_normal((200, 400)))
        text = path.read_text()
        header = ",".join(f"c{i}" for i in range(200)) + "\n"
        variants = {"plain": text, "header": header + text,
                    "whitespace-only line": text.replace("\n", "\n   \n", 1)}
        for name, variant in variants.items():
            path.write_text(variant)
            tables = []
            peak = traced_peak(lambda: tables.append(read_csv(path)))
            assert peak <= 1.5 * tables[0].values.nbytes, name


class TestNetpbm:
    def test_gray_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, (13, 17)).astype(np.uint8)
        path = tmp_path / "g.pgm"
        write_image(path, img)
        assert np.array_equal(read_image(path), img)

    def test_color_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, (9, 11, 3)).astype(np.uint8)
        path = tmp_path / "c.ppm"
        write_image(path, img)
        assert np.array_equal(read_image(path), img)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
        np.testing.assert_array_equal(read_image(path), [[0, 1], [2, 3]])

    def test_probability_map_quantization(self, tmp_path):
        values = np.linspace(0.0, 1.0, 16).reshape(4, 4)
        path = tmp_path / "m.pgm"
        write_probability_map(path, values)
        back = read_probability_map(path)
        np.testing.assert_allclose(back, np.round(values * 255) / 255, atol=1e-12)

    def test_probability_map_rejects_nan(self, tmp_path):
        from cpcapp import ShapeError

        values = np.full((2, 2), 0.5)
        values[1, 0] = np.nan
        with pytest.raises(ShapeError, match=r"\[0, 1\]"):
            write_probability_map(tmp_path / "m.pgm", values)
        assert not (tmp_path / "m.pgm").exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n2 2\n255\n")
        with pytest.raises(ParseError):
            read_image(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ParseError):
            read_image(path)

    @pytest.mark.parametrize("height", [b"-4", b"0"])
    def test_non_positive_dimensions(self, tmp_path, height):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n5 " + height + b"\n255\n" + bytes(20))
        with pytest.raises(ParseError, match="must be positive"):
            read_image(path)

    def test_writer_rejects_float_data(self, tmp_path):
        from cpcapp import ShapeError

        with pytest.raises(ShapeError):
            write_image(tmp_path / "x.pgm", np.zeros((4, 4)))

    def test_writer_rejects_two_channel(self, tmp_path):
        from cpcapp import ShapeError

        with pytest.raises(ShapeError):
            write_image(tmp_path / "x.pgm", np.zeros((4, 4, 2), dtype=np.uint8))


class TestModelFile:
    def _pair(self, rng, m=6, n=40):
        fg = DataMatrix(values=rng.standard_normal((m, n)))
        bg = DataMatrix(values=rng.standard_normal((m, n)))
        return build_covariance_pair(bg, fg), fg

    def test_cpcapp_round_trip_with_basis(self, tmp_path, rng):
        pair, _ = self._pair(rng)
        bank = fit_cpcapp(pair, 3)
        w = recover_w(pair, bank).w
        path = tmp_path / "model.txt"
        save_model(path, bank, w=w)
        back, w_back = load_model(path)
        assert back.method == "cpca++"
        assert back.alpha is None
        assert np.array_equal(back.f, bank.f)
        assert np.array_equal(back.eigenvalues, bank.eigenvalues)
        assert np.array_equal(back.train_mean_bg, bank.train_mean_bg)
        assert np.array_equal(back.train_mean_fg, bank.train_mean_fg)
        assert back.loading == bank.loading
        assert np.array_equal(w_back, w)

    def test_cpca_round_trip_keeps_alpha(self, tmp_path, rng):
        pair, _ = self._pair(rng)
        bank = fit_cpca(pair, 2, 0.125)
        path = tmp_path / "model.txt"
        save_model(path, bank)
        back, w_back = load_model(path)
        assert back.method == "cpca" and back.alpha == 0.125
        assert w_back is None

    def test_pca_round_trip(self, tmp_path, rng):
        _, fg = self._pair(rng)
        bank = fit_pca(fg, 2)
        path = tmp_path / "model.txt"
        save_model(path, bank)
        back, _ = load_model(path)
        assert back.method == "pca" and back.alpha is None
        assert np.array_equal(back.f, bank.f)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-model\n")
        with pytest.raises(ParseError):
            load_model(path)

    def test_rejects_truncation(self, tmp_path, rng):
        pair, _ = self._pair(rng)
        bank = fit_cpcapp(pair, 2)
        path = tmp_path / "model.txt"
        save_model(path, bank)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")
        with pytest.raises(ParseError):
            load_model(path)

    def _saved_4x2(self, tmp_path, rng):
        pair, _ = self._pair(rng, m=4)
        bank = fit_cpcapp(pair, 2)
        path = tmp_path / "model.txt"
        save_model(path, bank, w=recover_w(pair, bank).w)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize("row, lineno", [(6, 7), (11, 12)])  # second F row, second W row
    def test_ragged_block_row_names_its_line(self, tmp_path, rng, row, lineno):
        path, lines = self._saved_4x2(tmp_path, rng)
        assert lines[9] == "W"
        lines[row] = lines[row].split(",")[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f":{lineno}: row has 1 cells, expected 2"):
            load_model(path)

    def test_non_ascii_byte_is_parse_error(self, tmp_path, rng):
        path, lines = self._saved_4x2(tmp_path, rng)
        path.write_bytes(path.read_bytes().replace(b"cpca++", b"cpca\xe9"))
        with pytest.raises(ParseError, match="not an ASCII text file"):
            load_model(path)

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_rejects_non_positive_feature_count(self, tmp_path, rng, m):
        path, lines = self._saved_4x2(tmp_path, rng)
        head = lines[1].split()
        lines[1] = " ".join([head[0], m] + head[2:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=":2: bad header line"):
            load_model(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("row", [2, 3, 4, 5, 10])  # mean_bg, mean_fg, eigenvalues, F, W
    def test_non_finite_value_is_parse_error(self, tmp_path, rng, row, value):
        path, lines = self._saved_4x2(tmp_path, rng)
        cells = lines[row].split(",")
        cells[-1] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        # the message names the file, whose directory repeats the test name
        with pytest.raises(ParseError, match="values must be finite|W block has non-finite"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [(3, "inf"), (3, "-inf"), (4, "nan"), (4, "inf"),
                                              (4, "-5")])  # alpha, loading
    def test_bad_header_value_is_parse_error(self, tmp_path, rng, field, value):
        pair, _ = self._pair(rng)
        path = tmp_path / "model.txt"
        save_model(path, fit_cpca(pair, 2, 0.125))
        lines = path.read_text().splitlines()
        head = lines[1].split()
        head[field] = value
        lines[1] = " ".join(head)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError,
                           match="values must be finite" if value != "-5" else "non-negative"):
            load_model(path)

    def test_broken_filter_bank_invariant_is_parse_error(self, tmp_path, rng):
        path, lines = self._saved_4x2(tmp_path, rng)
        lines[5] = "2," + lines[5].split(",")[1]  # column 1 loses its unit norm
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="unit norm"):
            load_model(path)
