"""Numeric CSV ingestion and emission, and the row format model files share.

Files are sample-major (one row per sample); the in-memory convention is
feature-major, so reading transposes. A single non-numeric first row is
treated as a header: its names are not kept, but it must have one cell per
column. Rows are comma-separated numbers in numpy's float syntax, written
with 17 significant digits, which round-trips doubles exactly. Files must be
ASCII; blank lines are skipped.

Every valid file is parsed by one ``np.loadtxt`` call over the open file's
non-blank lines, so a read holds about one table's worth of memory. Only a
file that fails that parse (a bad cell, a ragged row, a non-ASCII byte) is
walked line by line, to name the offending line.

Rows are written ``_BLOCK`` values at a time by array code that yields the
bytes of ``'%.17g' % v`` for every value v:

* Digits. With d = floor(log10|v|), the scale 10**(16 - d) is held as a
  double-double ``_TEN_HI + _TEN_LO``, whose low part is zero (the scale is an
  exact double) for 0 <= 16 - d <= 22. Dekker's error-free product gives
  |v| * _TEN_HI = hi + lo exactly, so the 17-digit integer
  round(|v| * 10**(16 - d)) is hi (an even integer) plus lo rounded half to
  even. A decade estimate that is off by one near a power of ten is corrected
  against hi and lo, and a 17-digit integer that rounds up to 10**17 carries
  to the next decade. Where the scale is inexact, a value whose fraction lies
  within ``_TIE_BAND`` of one half is left to ``'%.17g'``; the double-double
  is good to about 2**-46 there.
* Layout, by ``%g``'s rules: fixed notation for decades -4 to 16, else one
  digit, the point and ``e-05``-style exponent; trailing zeros of the fraction
  and a bare point dropped; ``-`` on every value with the sign bit set.

Each block is laid out as a byte frame with one column per value (so every
array step runs along the block), NUL bytes in the unused cells, then
transposed and stripped of its NULs. Non-finite values, nonzero magnitudes
outside [1e-280, 1e280) and the near-ties above go through ``'%.17g'`` one at
a time. The array steps keep to numpy loops that the CLI's other commands
run anyway (``np.log`` rather than ``np.log10``; uint8 ``|`` and ``>`` rather
than ``+`` and ``!=``): each further loop maps another 64 KiB block of
numpy's code into the process, which its memory peak counts.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ParseError
from .stats import DataMatrix

_FLOAT = "%.17g"  # 17 significant digits round-trip every double

# Values per array step, in whole rows where a row fits. A block's
# temporaries stay near 200 KB (traced); in one-process runs of the digits
# pipeline, blocks twice as large raised the later sweep's memory peak in
# some runs.
_BLOCK = 2048
_EXACT_MIN, _EXACT_MAX = 1e-280, 1e280  # magnitudes the array code formats
_DECADES = range(-282, 283)  # table rows: the range above plus a slipped estimate
_TIE_BAND = 2.0**-30  # nearer one half than this, an inexact scale leaves the value to '%.17g'
_LOG10_E = math.log10(math.e)


def _pow10(p: int) -> tuple[float, float]:
    """10**p as a double-double ``(hi, lo)``, each part correctly rounded."""
    if p >= 0:
        hi = float(10**p)
        return hi, float(10**p - int(hi))
    q = 10**-p
    hi = 1 / q
    num, den = hi.as_integer_ratio()
    return hi, (den - num * q) / (den * q)


_TEN_HI, _TEN_LO = np.array([_pow10(16 - d) for d in _DECADES]).T.copy()
# The exponent cells of each decade: "e-05", "e+17", "e-100", or NULs where
# %g writes fixed notation; right-aligned in five bytes.
_EXPONENT = np.frombuffer(
    b"".join(b"\0" * 5 if -4 <= d <= 16 else (b"e%+03d" % d).rjust(5, b"\0") for d in _DECADES),
    dtype=np.uint8).reshape(-1, 5).T.copy()
_COLUMN = np.arange(22, dtype=np.uint8)[:, None]  # body cell index, one row per cell


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


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``hi + lo == v`` with each part 26 bits or fewer."""
    hi = v * 134217729.0  # 2**27 + 1
    hi -= hi - v
    return hi, v - hi


def _scaled(a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(hi, lo, inexact)`` with hi + lo = a * 10**(16 - d), exact unless ``inexact``."""
    i = d - _DECADES.start
    ten = _TEN_HI[i]
    hi = a * ten
    ah, al = _split(a)
    th, tl = _split(ten)
    lo = ah * th  # Dekker: lo = ((ah*th - hi) + ah*tl + al*th) + al*tl, every step exact
    lo -= hi
    lo += ah * tl
    lo += al * th
    lo += al * tl
    ten = _TEN_LO[i]
    lo += a * ten
    return hi, lo, ten != 0


def _significand(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(d, big, exact)``: the decade d of each value, the 17-digit integer
    big = round(|x| * 10**(16 - d)), and where both are certified."""
    a = np.abs(x)
    exact = (a >= _EXACT_MIN) & (a < _EXACT_MAX)
    a[~exact] = 1.0  # a stand-in; these values are formatted by '%.17g'
    d = np.floor(np.log(a) * _LOG10_E).astype(np.intp)
    hi, lo, inexact = _scaled(a, d)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))  # the estimate slipped by one
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    slipped = np.flatnonzero(below | above)
    if slipped.size:
        d[slipped] += above[slipped].astype(np.intp) - below[slipped]
        hi[slipped], lo[slipped], inexact[slipped] = _scaled(a[slipped], d[slipped])
    lo_int = np.rint(lo)  # half to even, as hi is an even integer
    lo -= lo_int
    exact &= ~(inexact & (np.abs(np.abs(lo) - 0.5) < _TIE_BAND))
    big = hi.astype(np.int64) + lo_int.astype(np.int64)
    carry = big == 10**17
    big[carry] = 10**16
    d += carry
    return d, big, exact


def _byte_mask(mask: np.ndarray) -> np.ndarray:
    """A bool ``mask`` turned in place into uint8: 0xFF where set, 0 elsewhere."""
    cells = mask.view(np.uint8)
    return np.negative(cells, out=cells)


def _select(mask, a, b, out=None) -> np.ndarray:
    """``a`` where ``mask`` else ``b``, for uint8 arrays; bitwise, being several
    times faster than ``np.where``. ``out`` may not be ``b``."""
    out = np.bitwise_xor(a, b, out=out)
    out &= _byte_mask(mask)
    out ^= b
    return out


def _format_block(x: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The bytes of ``'%.17g' % v`` for each value v of ``x``, each followed by
    ``\\n`` where ``ends`` is set and by ``,`` elsewhere."""
    n = x.shape[0]
    zero = x == 0
    d, big, exact = _significand(x)
    # text: one column per value; 4 rows of '0' to shift in, the 17 digits,
    # then NUL rows
    text = np.zeros((26, n), np.uint8)
    text[:4] = ord("0")
    top = big // 10**8
    # the low 8 digits and the high 9, each in 32 bits, where division is fastest
    for part, rows in ((big - top * 10**8, range(20, 12, -1)), (top, range(12, 3, -1))):
        part = part.astype(np.uint32)
        for k in rows:
            q = part // 10
            text[k] = part - q * 10
            part = q
    del big, top, part, q
    text[4, zero] = 0
    text[4:21] |= ord("0")
    # digits before the point, less one: the exponent form keeps one
    lead = np.where((d < -4) | (d > 16), 0, d)
    shift = np.maximum(-lead, 0)  # below 1: "0." and -d - 1 zeros lead
    for step in range(1, 5):
        moved = shift >= step
        if moved.any():
            text[1:] = _select(moved, text[:-1], text[1:])
    # frame rows: sign, 22 body cells, 5 exponent cells, separator
    point = (np.maximum(lead, 0) + 1).astype(np.uint8)
    frame = np.empty((29, n), np.uint8)
    body = frame[1:23]  # cell j: digit j before the point, digit j - 1 after it
    _select(point > _COLUMN, text[4:26], text[3:25], out=body)
    del text
    # the point goes in the one cell neither before nor after it
    body[...] = _select((point > _COLUMN) | (_COLUMN > point), body, np.uint8(ord(".")))
    # %g drops the fraction's trailing zeros, and then a bare point: keep the
    # integer part and every cell up to the last nonzero digit (a suffix OR)
    keep = body > ord("0")
    for step in (1, 2, 4, 8, 16):
        keep[:-step] |= keep[step:]
    keep |= point > _COLUMN
    body &= _byte_mask(keep)
    del keep
    frame[0] = _byte_mask(np.signbit(x)) & ord("-")
    np.take(_EXPONENT, d - _DECADES.start, axis=1, out=frame[23:28])
    frame[28] = ord(",")
    frame[28, ends] = ord("\n")
    out = np.ascontiguousarray(frame.T)
    del frame, body, d
    redo = np.flatnonzero(~(exact | zero))
    if redo.size:
        cells = [(_FLOAT % v + ("\n" if e else ",")).encode()
                 for v, e in zip(x[redo].tolist(), ends[redo].tolist())]
        out[redo] = np.array(cells, dtype=f"S{out.shape[1]}").view(np.uint8).reshape(redo.size, -1)
    return out[out > 0]


def _write_rows(fh, rows) -> None:
    """Write a 2-D table as comma-separated rows of ``'%.17g' % value``."""
    rows = np.asarray(rows, dtype=float)
    width = rows.shape[1]
    if width == 0:
        fh.write("\n" * rows.shape[0])
        return
    step = max(1, _BLOCK // width)
    for start in range(0, rows.shape[0], step):
        flat = rows[start:start + step].ravel()
        ends = np.zeros(flat.size, bool)
        ends[width - 1::width] = True
        for lo in range(0, flat.size, _BLOCK):  # a row wider than a block is split
            fh.write(str(_format_block(flat[lo:lo + _BLOCK], ends[lo:lo + _BLOCK]), "ascii"))


def read_csv(path) -> DataMatrix:
    """Load a rectangular numeric CSV as an uncentered sample matrix (rows are samples)."""
    path = str(path)
    header_cells = None  # cells of a non-numeric first line
    try:
        with open(path, "r", encoding="ascii") as fh:
            first = fh.readline()
            if first.strip():
                try:
                    _parse_rows([(1, first)], path)
                except ParseError:
                    header_cells = len(first.split(","))
            lines = itertools.chain([first] if header_cells is None else [], fh)
            rows = (line for line in lines if line.strip())
            head = next(rows, None)
            table = None if head is None else np.loadtxt(
                itertools.chain([head], rows), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a bad cell or row, or a non-ASCII byte: the walk names its line
        table = _parse_rows(_numbered_lines(path)[header_cells is not None:], path)
    if table is None:
        raise ParseError(f"{path}: no numeric rows found")
    if table.size and not (np.isfinite(table.min()) and np.isfinite(table.max())):
        raise ParseError(f"{path}: file contains non-finite values")
    if header_cells is not None and header_cells != table.shape[1]:
        raise ParseError(f"{path}: header has {header_cells} names for {table.shape[1]} columns")
    return DataMatrix(values=table.T)


def write_csv(path, values) -> None:
    """Write a feature-major array sample-major with 17 significant digits.

    Raises ``ParseError`` before the file is created if the array is not 2-D
    or holds a non-finite value, which ``read_csv`` would refuse.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ParseError(f"can only write 2-D tables, got shape {values.shape}")
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ParseError(f"{path}: cannot write non-finite values")
    with open(path, "w", encoding="ascii") as fh:
        _write_rows(fh, values.T)
