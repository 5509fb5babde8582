"""Seeded mutation fuzz of the CSV, model-file and netpbm parsers.

Every mutated file must parse to a value or raise ``ParseError``; no other
exception may escape. The CSV reader is also checked against the per-cell
reader it replaced, kept here as the reference.
"""

import re

import numpy as np
import pytest

from cpcapp import (
    DataMatrix,
    ParseError,
    SplitMix64,
    build_covariance_pair,
    fit_cpcapp,
    load_model,
    read_csv_table,
    read_image,
    recover_w,
    save_model,
    write_csv,
    write_image,
)

MUTATIONS = 3000
INSERTS = (b",", b" ", b"\n", b"#", b"-", b"nan", b"\xff")
SIZES = (b"0", b"-1", b"-4", b"2147483648", b"1000000000000", b"18446744073709551616")
# a declared size: a run of digits standing alone in the header
SIZE_TOKEN = re.compile(rb"(?<=\s)\d+(?=\s)")


def _draw(rng: SplitMix64, bound: int) -> int:
    return int(rng.integers(1, bound)[0])


def _mutate(data: bytes, rng: SplitMix64) -> bytes:
    """One to three edits: truncate, flip a byte, insert a token, rewrite a size."""
    for _ in range(1 + _draw(rng, 3)):
        op = _draw(rng, 4)
        pos = _draw(rng, len(data) + 1)
        if op == 0:
            data = data[:pos]
        elif op == 1 and pos < len(data):
            data = data[:pos] + bytes([data[pos] ^ (1 + _draw(rng, 255))]) + data[pos + 1:]
        elif op == 2:
            data = data[:pos] + INSERTS[_draw(rng, len(INSERTS))] + data[pos:]
        elif op == 3:
            sizes = list(SIZE_TOKEN.finditer(data[:64]))
            if sizes:
                hit = sizes[_draw(rng, len(sizes))]
                data = data[:hit.start()] + SIZES[_draw(rng, len(SIZES))] + data[hit.end():]
    return data


def _csv_bytes(tmp_path) -> bytes:
    values = np.random.default_rng(5).standard_normal((3, 6)) * 10.0 ** np.arange(-1, 2)[:, None]
    write_csv(tmp_path / "base.csv", values)
    return b"a,b,c\n" + (tmp_path / "base.csv").read_bytes()


def _model_bytes(tmp_path) -> bytes:
    gen = np.random.default_rng(6)
    pair = build_covariance_pair(DataMatrix(values=gen.standard_normal((4, 30))),
                                 DataMatrix(values=gen.standard_normal((4, 30))))
    bank = fit_cpcapp(pair, 2)
    save_model(tmp_path / "base.txt", bank, w=recover_w(pair, bank).w)
    return (tmp_path / "base.txt").read_bytes()


def _image_bytes(tmp_path, shape) -> bytes:
    write_image(tmp_path / "base.pnm", np.arange(np.prod(shape), dtype=np.uint8).reshape(shape))
    return (tmp_path / "base.pnm").read_bytes()


FORMATS = {
    "csv": (_csv_bytes, read_csv_table),
    "model": (_model_bytes, load_model),
    "pgm": (lambda tmp: _image_bytes(tmp, (5, 7)), read_image),
    "ppm": (lambda tmp: _image_bytes(tmp, (4, 3, 3)), read_image),
}


@pytest.mark.parametrize("seed, kind", list(enumerate(FORMATS, start=101)))
def test_mutations_give_a_value_or_parse_error(tmp_path, seed, kind):
    make, reader = FORMATS[kind]
    base = make(tmp_path)
    rng = SplitMix64(seed)
    path = tmp_path / "mutant"
    escaped = []
    for i in range(MUTATIONS):
        data = _mutate(base, rng)
        path.write_bytes(data)
        try:
            reader(path)
        except ParseError:
            pass
        except Exception as exc:  # any other type is the failure sought
            escaped.append((i, data, repr(exc)))
    assert not escaped, f"{len(escaped)} mutants escaped ParseError, first: {escaped[0]}"


def _reference_read_csv_table(path):
    """The per-cell CSV reader that numpy's row parser replaced."""
    path = str(path)
    header, rows, width = None, [], None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = [cell.strip() for cell in line.split(",")]
            try:
                parsed = [float(cell) for cell in cells]
            except ValueError:
                if lineno == 1:
                    header = cells
                    continue
                raise ParseError(f"{path}:{lineno}: non-numeric cell in data row")
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise ParseError(f"{path}:{lineno}: row has {len(parsed)} cells, expected {width}")
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no numeric rows found")
    table = np.array(rows, dtype=float)
    if not np.all(np.isfinite(table)):
        raise ParseError(f"{path}: file contains non-finite values")
    if header is not None and len(header) != table.shape[1]:
        raise ParseError(f"{path}: header has {len(header)} names for {table.shape[1]} columns")
    return header, table


def _read_csv(path):
    table = read_csv_table(path)
    return table.header, table.rows


def _outcome(read, path):
    try:
        header, table = read(path)
    except ParseError as exc:
        return "error", str(exc)
    return header, table.shape, table.tobytes()


def test_csv_reader_matches_per_cell_reference(tmp_path):
    """Same table bytes or same message, on mutants without `_` (numpy rejects
    the digit separators Python's float() accepts)."""
    base = _csv_bytes(tmp_path)
    rng = SplitMix64(99)
    path = tmp_path / "mutant.csv"
    compared = 0
    for _ in range(MUTATIONS):
        data = _mutate(base, rng)
        if b"_" in data or not data.isascii():
            continue
        path.write_bytes(data)
        assert _outcome(_read_csv, path) == _outcome(_reference_read_csv_table, path), data
        compared += 1
    assert compared > MUTATIONS // 2
