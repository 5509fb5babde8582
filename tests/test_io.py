"""CSV and netpbm round trips plus model-file serialization."""

import ast
import io
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cpcapp
from cpcapp import (
    DataMatrix,
    ParseError,
    build_covariance_pair,
    csvio,
    fit_cpca,
    fit_cpcapp,
    fit_pca,
    load_model,
    read_csv,
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
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n3,\xe9\n")
        with pytest.raises(ParseError, match="not an ASCII text file"):
            read_csv(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_not_written(self, tmp_path, value):
        path = tmp_path / "out.csv"
        values = np.ones((3, 4))
        values[1, 2] = value
        with pytest.raises(ParseError, match="non-finite"):
            write_csv(path, values)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_table_is_not_written(self, tmp_path, shape):
        # no samples, or samples with no features: read_csv refuses either file
        path = tmp_path / "out.csv"
        with pytest.raises(ParseError, match="non-empty"):
            write_csv(path, np.zeros(shape))
        assert not path.exists()


# Inputs around the one-pass read's fallback to the line walk, each with the
# sample-major rows or the ParseError message of the line-walk reader.
CSV_EDGES = {
    "whitespace-only line": (b"1,2\n   \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "form-feed line": (b"1,2\n\x0c\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "leading blank line": (b"\n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "header": (b"a, b\n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "header after a blank line": (b"\na,b\n1,2\n", ":2: non-numeric cell in data row"),
    "header only": (b"a,b\n", ": no numeric rows found"),
    "header too wide": (b"a,b,c\n1,2\n", ": header has 3 names for 2 columns"),
    "empty file": (b"", ": no numeric rows found"),
    "blank lines only": (b"\n \n", ": no numeric rows found"),
    "non-ASCII byte": (b"1,2\n3,\xe94\n", ": not an ASCII text file (byte 0xe9)"),
    "carriage returns": (b"1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
    "non-finite value": (b"1,nan\n", ": file contains non-finite values"),
    "infinite value": (b"-inf,2\n", ": file contains non-finite values"),
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
                read_csv(path)
            assert str(info.value) == f"{path}{want}"
        else:
            assert read_csv(path).values.tobytes() == np.array(want).T.tobytes()

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


def _written(rows) -> str:
    fh = io.BytesIO()
    csvio._write_rows(fh, np.asarray(rows, dtype=float))
    return fh.getvalue().decode("ascii")


def _oracle(rows) -> str:
    """Each row as ``",".join('%.17g' % x ...)``, the reference the writer must match."""
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in np.asarray(rows).tolist())


def _neighbours(x: float) -> list[float]:
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def _just_below_powers_of_ten() -> list[float]:
    """Doubles below 10**k, k in [-307, 308], whose 17-digit rounding is 10**k."""
    found = []
    for k in range(-307, 309):
        power = Fraction(10) ** k
        near = float(f"1e{k}")
        for x in (near, np.nextafter(near, 0.0)):
            if Fraction(x) < power and Fraction("%.17g" % x) == power:
                found.append(float(x))
    return found


class TestRowFormat:
    """The block writer yields exactly ``'%.17g' % x`` for every double."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(170).integers(0, 2**64, 210_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:200_000]
        assert values.size == 200_000
        rows = values.reshape(-1, 8)
        assert _written(rows) == _oracle(rows)

    def test_zeros_and_subnormals(self):
        tiny = np.random.default_rng(171).integers(1, 2**52, 64, dtype=np.uint64).view(np.float64)
        values = np.concatenate([[0.0, -0.0, 5e-324, 2.2250738585072009e-308,
                                  2.2250738585072014e-308], tiny])
        rows = np.stack([values, -values])
        assert _written(rows) == _oracle(rows)

    @pytest.mark.parametrize("power", [1e-6, 1e-5, 1e-4, 1e16, 1e17])
    def test_format_boundaries(self, power):
        values = _neighbours(power)
        rows = [values, [-x for x in values]]
        assert _written(rows) == _oracle(rows)

    def test_rounding_that_reaches_a_power_of_ten(self):
        values = _just_below_powers_of_ten()
        assert len(values) >= 10  # the search finds such doubles across the range
        rows = [values, [-x for x in values]]
        assert _written(rows) == _oracle(rows)
        assert all(("%.17g" % x).startswith("1") for x in values)

    def test_ties_round_half_to_even(self):
        assert _written([[1234567890123456.25, 1234567890123456.75]]) == \
            "1234567890123456.2,1234567890123456.8\n"
        # 18 significant digits ending in 5 are exact ties at the 17th digit:
        # under an exact scale (x.25 and x.75 near 2e15) and under an inexact
        # one (odd multiples of 2**-24 below 2**-20 and of 2**-25 below
        # 2**-23 are the only such doubles)
        whole = np.random.default_rng(172).integers(2**50, 2**51, 495).astype(float)
        values = np.concatenate([whole + 0.25, whole + 0.75, np.arange(1, 16) * 2.0**-24,
                                 np.arange(1, 4) * 2.0**-25])
        rows = values.reshape(-1, 9)
        assert _written(rows) == _oracle(rows)

    def test_rows_longer_than_one_block(self):
        rng = np.random.default_rng(173)
        rows = rng.standard_normal((3, 2 * csvio._BLOCK + 5)) * 10.0 ** rng.integers(-9, 9, (3, 1))
        assert _written(rows) == _oracle(rows)

    @pytest.mark.parametrize("shape", [
        (csvio._BLOCK, 1),  # ends exactly on a block edge
        (csvio._BLOCK + 1, 1),  # runs one value past it
        (2 * (csvio._BLOCK // 7), 7),  # whole rows, ending on the edge of a whole-row block
        (3, csvio._BLOCK),  # rows exactly one block wide
        (3, csvio._BLOCK + 1),  # one value wider
        (1, 1),
    ])
    def test_block_edges(self, shape):
        rng = np.random.default_rng(174)
        rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-7, 19, shape)
        assert _written(rows) == _oracle(rows)

    def test_write_peak_does_not_grow_with_the_table(self, tmp_path, rng):
        peaks = []
        for samples in (800, 1600):
            values = rng.standard_normal((784, samples))
            peaks.append(traced_peak(lambda: write_csv(tmp_path / "t.csv", values)))
        assert peaks[1] <= 1.1 * peaks[0]

    def test_write_holds_a_bounded_block(self, tmp_path, rng):
        # the block size, not the table, sets the temporaries
        values = rng.standard_normal((784, 800))
        peak = traced_peak(lambda: write_csv(tmp_path / "t.csv", values))
        assert peak < 320 * 1024

    def test_import_time_tables_are_small(self):
        tables = [value for value in vars(csvio).values() if isinstance(value, np.ndarray)]
        assert tables and sum(table.nbytes for table in tables) <= 16 * 1024

    def test_package_has_one_row_writer(self):
        package = Path(cpcapp.__file__).parent
        found = {}
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute) and node.attr == "savetxt") or (
                        isinstance(node, ast.ImportFrom) and node.module == "numpy"
                        and any(alias.name == "savetxt" for alias in node.names)):
                    found.setdefault(path.name, []).append(node.lineno)
        assert found == {}


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

    @pytest.mark.parametrize("shape", [(1, 1), (1, 513), (513, 1), (3, 5), (129, 513), (16390, 1)])
    def test_probability_map_bands_match_whole_quantization(self, tmp_path, rng, shape):
        values = rng.random(shape)
        values.flat[::7] = 0.5 / 255  # ties round to even
        write_probability_map(tmp_path / "m.pgm", values)
        write_image(tmp_path / "want.pgm", np.round(255.0 * values).astype(np.uint8))
        assert (tmp_path / "m.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()

    @pytest.mark.parametrize("shape", [(4,), (4, 4, 3), ()])
    def test_probability_map_must_be_two_dimensional(self, tmp_path, shape):
        from cpcapp import ShapeError

        with pytest.raises(ShapeError, match="2-D"):
            write_probability_map(tmp_path / "m.pgm", np.full(shape, 0.5))

    def test_probability_map_quantizes_by_bands(self, tmp_path):
        side = 512
        values = np.linspace(0.0, 1.0, side * side).reshape(side, side)
        peak = traced_peak(lambda: write_probability_map(tmp_path / "m.pgm", values))
        assert peak <= 0.5 * values.nbytes

    def test_reader_holds_the_raster_once(self, tmp_path, rng):
        image = rng.integers(0, 256, (512, 512, 3), dtype=np.uint8)
        write_image(tmp_path / "p.ppm", image)
        back = []
        peak = traced_peak(lambda: back.append(read_image(tmp_path / "p.ppm")))
        assert np.array_equal(back[0], image)
        assert peak <= 1.05 * image.nbytes

    def test_writer_writes_from_the_array(self, tmp_path, rng):
        image = rng.integers(0, 256, (512, 512, 3), dtype=np.uint8)
        peak = traced_peak(lambda: write_image(tmp_path / "p.ppm", image))
        assert (tmp_path / "p.ppm").read_bytes() == b"P6\n512 512\n255\n" + image.tobytes()
        assert peak <= 0.05 * image.nbytes

    def test_writer_copies_a_strided_view(self, tmp_path, rng):
        image = rng.integers(0, 256, (6, 7, 3), dtype=np.uint8)
        write_image(tmp_path / "g.pgm", image[:, :, 1])
        assert (tmp_path / "g.pgm").read_bytes() == b"P5\n7 6\n255\n" + image[:, :, 1].tobytes()

    @pytest.mark.parametrize("shift", range(-6, 3))
    def test_header_across_read_chunks(self, tmp_path, shift):
        # a comment puts the size and maxval tokens on either side of byte 4096
        tail = b"\n3 2\n255\n"
        comment = b"#" + b"x" * (4096 + shift - 5 - len(tail)) + b"\n"
        head = b"P5\n" + comment + tail
        assert len(head) == 4096 + shift
        path = tmp_path / "c.pgm"
        path.write_bytes(head + bytes(range(6)))
        np.testing.assert_array_equal(read_image(path), [[0, 1, 2], [3, 4, 5]])

    @pytest.mark.parametrize("data, outcome", [
        # one whitespace byte after maxval ends the header, whichever it is
        *[(b"P5\n2 1\n255" + bytes([space]) + b"\x07\x08", [[7, 8]]) for space in b" \t\r\n\v\f"],
        (b"P5 #a\n2 #b\n1 #c\n255\n\x07\x08", [[7, 8]]),  # a comment between every two tokens
        (b"P5\n#" + b"x" * 10000 + b"\n2 1\n255\n\x07\x08", [[7, 8]]),  # past an 8 KiB buffer
        (b"P5\n2#c\n1\n255\n\x07\x08", "bad netpbm dimensions"),  # '#' inside a token is its own
        (b"P5\n2 1 # no newline", "unterminated comment in netpbm header"),
        (b"P5\n2 1", "truncated netpbm header"),  # end of file after the third token
        (b"P5\n2 1\n255", "raster has 0 bytes, expected 2"),  # ... and after the fourth
    ], ids=[*(f"space-{byte:#04x}" for byte in b" \t\r\n\v\f"), "comments", "long-comment",
            "hash-in-token", "unterminated-comment", "eof-after-3", "eof-after-4"])
    def test_header_tokens(self, tmp_path, data, outcome):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        if isinstance(outcome, str):
            with pytest.raises(ParseError, match=outcome):
                read_image(path)
        else:
            np.testing.assert_array_equal(read_image(path), outcome)

    @pytest.mark.parametrize("data, message", [
        # sized from the file, before a raster of the header's size is allocated
        (b"P5\n7 1000000000000\n255\n" + bytes(5), "raster has 5 bytes, expected 7000000000000"),
        (b"P5\n2 2\n255", "raster has 0 bytes, expected 4"),
    ])
    def test_short_raster_names_its_size(self, tmp_path, data, message):
        path = tmp_path / "x.pgm"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=message):
            read_image(path)

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

    @pytest.mark.parametrize("row", [2, 3])  # mean_bg, mean_fg
    def test_short_mean_row_is_parse_error(self, tmp_path, rng, row):
        path, lines = self._saved_4x2(tmp_path, rng)
        lines[row] = lines[row].rsplit(",", 1)[0]  # one cell lost
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*mean"):
            load_model(path)


@pytest.mark.parametrize("reader, data, message", [
    (read_image, b"P5\n" + b"9" * 1_280_000 + b" 1\n255\n", "bad netpbm dimensions"),
    (load_model, b"cpcapp-model v1\ncpca++ " + b"9" * 1_280_000 + b" 2 nan 0\n",
     ":2: bad header line"),
    (read_csv, b"1,2\n" + b"x" * 1_280_000 + b",3\n", ":2: non-numeric cell"),
], ids=["netpbm-token", "model-header-token", "csv-cell"])
def test_long_token_reaches_its_error_in_linear_time(tmp_path, reader, data, message):
    # work quadratic in a token's length would take tens of seconds at this size
    path = tmp_path / "long"
    path.write_bytes(data)
    start = time.perf_counter()
    with pytest.raises(ParseError, match=message):
        reader(path)
    assert time.perf_counter() - start < 5.0
