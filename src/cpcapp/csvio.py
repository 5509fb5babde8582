"""Numeric CSV ingestion and emission, and the row format model files share.

Files are sample-major (one row per sample); the in-memory convention is
feature-major, so reading transposes. A single non-numeric first row is
treated as a header. Rows are comma-separated numbers in numpy's float
syntax, written with 17 significant digits, which round-trips doubles
exactly. Files must be ASCII; blank lines are skipped.

Every valid file is parsed by one ``np.loadtxt`` call over the open file's
non-blank lines, so a read holds about one table's worth of memory. Only a
file that fails that parse (a bad cell, a ragged row, a non-ASCII byte) is
walked line by line, to name the offending line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .stats import DataMatrix

_FLOAT = "%.17g"  # 17 significant digits round-trip every double


@dataclass(frozen=True, eq=False)
class CsvTable:
    """A parsed file: optional column names plus sample-major rows."""

    header: list[str] | None
    rows: np.ndarray  # (n_samples, n_columns) float64


def _numbered_lines(path) -> list[tuple[int, str]]:
    """``(line number, line)`` for each non-blank line of an ASCII text file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return [(n, line) for n, line in enumerate(fh, start=1) if line.strip()]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not an ASCII text file "
                         f"(byte {exc.object[exc.start]:#04x})") from exc


def _parse_rows(numbered, path) -> np.ndarray:
    """Parse ``(line number, line)`` pairs as one rectangular float64 table."""
    try:
        return np.loadtxt([line for _, line in numbered], delimiter=",",
                          comments=None, ndmin=2)
    except ValueError as exc:
        width = None
        for lineno, line in numbered:  # name the first bad line
            try:
                cells = np.loadtxt([line], delimiter=",", comments=None, ndmin=2).shape[1]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric cell in data row") from None
            if width is None:
                width = cells
            elif cells != width:
                raise ParseError(f"{path}:{lineno}: row has {cells} cells, expected {width}")
        raise ParseError(f"{path}: {exc}") from exc


def _write_rows(fh, rows) -> None:
    np.savetxt(fh, rows, fmt=_FLOAT, delimiter=",")


def read_csv_table(path) -> CsvTable:
    """Parse a rectangular numeric CSV, keeping any header names."""
    path = str(path)
    header = None
    try:
        with open(path, "r", encoding="ascii") as fh:
            first = fh.readline()
            if first.strip():
                try:
                    _parse_rows([(1, first)], path)
                except ParseError:
                    header = [cell.strip() for cell in first.split(",")]
            lines = itertools.chain([first] if header is None else [], fh)
            rows = (line for line in lines if line.strip())
            head = next(rows, None)
            table = None if head is None else np.loadtxt(
                itertools.chain([head], rows), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a bad cell or row, or a non-ASCII byte: the walk names its line
        table = _parse_rows(_numbered_lines(path)[header is not None:], path)
    if table is None:
        raise ParseError(f"{path}: no numeric rows found")
    if not np.all(np.isfinite(table)):
        raise ParseError(f"{path}: file contains non-finite values")
    if header is not None and len(header) != table.shape[1]:
        raise ParseError(f"{path}: header has {len(header)} names for {table.shape[1]} columns")
    return CsvTable(header=header, rows=table)


def read_csv(path) -> DataMatrix:
    """Load a rectangular numeric CSV as an uncentered sample matrix (rows are samples)."""
    return DataMatrix(values=read_csv_table(path).rows.T)


def write_csv(path, values) -> None:
    """Write a feature-major array sample-major with 17 significant digits."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ParseError(f"can only write 2-D tables, got shape {values.shape}")
    with open(path, "w", encoding="ascii") as fh:
        _write_rows(fh, values.T)
