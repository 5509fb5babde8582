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

Rows are written ``_BLOCK`` values at a time (whole rows where a row fits)
by array code that yields the bytes of ``'%.17g' % v`` for every value v:

* Digits. With d = floor(log10|v|), the scale 10**(16 - d) is held as a
  double-double ``_TEN_HI + _TEN_LO``, whose low part is zero (the scale is
  an exact double) for 0 <= 16 - d <= 22. Dekker's error-free product gives
  |v| * _TEN_HI = hi + lo exactly, so the 17-digit integer
  round(|v| * 10**(16 - d)) is hi (an even integer) plus lo rounded half to
  even. A decade estimate that is off by one near a power of ten is corrected
  against hi and lo, and a 17-digit integer that rounds up to 10**17 carries
  to the next decade. Where the scale is inexact, a value whose fraction lies
  within ``_TIE_BAND`` of one half is left to ``'%.17g'``; the double-double
  is good to about 2**-46 there. The integer is cut into chunks of 5, 4, 4
  and 4 digits in 32 bits, and each scalar division by 10 yields one digit of
  every chunk.
* Layout, by ``%g``'s rules: fixed notation for decades -4 to 16, else one
  digit, the point and ``e-05``-style exponent; trailing zeros of the fraction
  and a bare point dropped; ``-`` on every value with the sign bit set.

Each block is laid out as a byte frame with one row per output cell and one
column per value (so every array step runs along the block), NUL bytes in
the unused cells, then transposed and stripped of its NULs. The cells before
the body ("-", "0.000") come from a table per decade class and sign; the
point and the trailing-zero mask's seed are put at one index per value. The
array steps write into one scratch buffer made per table (``out=`` and
in-place operators), so a block allocates only one-dimensional arrays and
the bytes it yields. Non-finite values, nonzero magnitudes outside
[1e-280, 1e280) and the near-ties above go through ``'%.17g'`` one at a
time, and the rare exponent form is moved into place after the transpose.
The array steps keep to numpy loops that the CLI's other commands run anyway
(``np.log`` rather than ``np.log10``; uint8 ``|`` and ``>`` rather than ``+``
and ``!=``; intp indices, not uint8 ones; no ``where=``): each further loop
maps another 64 KiB block of numpy's code into the process, which its memory
peak counts.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ParseError
from .stats import DataMatrix

_FLOAT = "%.17g"  # 17 significant digits round-trip every double

# Values per array step, in whole rows where a row fits. A block is laid out
# in one scratch buffer of 64 bytes per value made once per table; with the
# float block it reads and the bytes it yields, a write traces about 90 bytes
# per value, 304 KiB at this size for every row width tried.
_BLOCK = 3500
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
# The exponent cells of each decade, one row each: "e-05", "e+17", "e-100",
# or NULs where %g writes fixed notation; right-aligned in five bytes.
_EXPONENT = np.frombuffer(
    b"".join(b"\0" * 5 if -4 <= d <= 16 else (b"e%+03d" % d).rjust(5, b"\0") for d in _DECADES),
    dtype=np.uint8).reshape(-1, 5)
# Per decade class c, d clipped to [-5, 17] plus 5, at 2c (2c + 1 with the
# sign bit set): the body cell of the point plus one (the point follows d + 1
# digits in fixed notation, one in exponent form), or 0 below 1, where "0."
# and -d - 1 zeros lead instead; and the cells before the body, "-" and that
# "0.000", right-aligned in six.
_CLASSES = range(-5, 18)
_POINT = np.repeat([0 if -4 <= d < 0 else d + 2 if 0 <= d <= 16 else 2 for d in _CLASSES], 2)
_LEAD = np.frombuffer(b"".join(
    (sign + (b"0." + b"0" * (-d - 1) if -4 <= d < 0 else b"")).rjust(6, b"\0")
    for d in _CLASSES for sign in (b"", b"-")), dtype=np.uint8).reshape(-1, 6).T.copy()
_CELL = np.arange(1, 19, dtype=np.uint8)[:, None]  # body cell index plus one, one row per cell
_NONE = np.zeros(0, np.intp)  # no values


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


def _split(v: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Veltkamp's split of ``v`` into ``hi`` and ``lo``: hi + lo == v, each part 26 bits or fewer."""
    np.multiply(v, 134217729.0, out=hi)  # 2**27 + 1
    np.subtract(hi, v, out=lo)
    hi -= lo
    np.subtract(v, hi, out=lo)


def _scaled(i: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(hi, lo, tail)`` with hi + lo = a * 10**(16 - d) for the magnitudes a
    in ``rows[0]`` and table rows ``i`` of their decades d: exact where the
    scale's low part, times a in ``tail``, is zero. ``rows`` is (8, n) float
    scratch; the results are three of its rows and a is overwritten."""
    term, lo, hi, ah, al, th, tl, tail = rows
    a = term
    np.take(_TEN_HI, i, out=lo, mode="clip")
    np.multiply(a, lo, out=hi)
    _split(a, ah, al)
    _split(lo, th, tl)
    np.take(_TEN_LO, i, out=tail, mode="clip")
    tail *= a
    np.multiply(ah, th, out=lo)  # Dekker: lo = ((ah*th - hi) + ah*tl + al*th) + al*tl, every step exact
    lo -= hi
    for u, v in ((ah, tl), (al, th), (al, tl)):
        lo += np.multiply(u, v, out=term)
    lo += tail
    return hi, lo, tail


def _significand(rows: np.ndarray, values: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(i, big, redo, wide)`` for the values in ``rows[0]``, copied from
    ``values``: the table row i of each value's decade d, the 17-digit integer
    big = round(|x| * 10**(16 - d)) as int64 in ``rows[7]``, the indices of
    the values left to ``'%.17g'`` and of those in exponent form. ``rows`` is
    (8, n) float scratch."""
    a = np.abs(rows[0], out=rows[0])
    least, most = a.min(), a.max()
    redo = zero = wide = _NONE
    if not (_EXACT_MIN <= least and most < _EXACT_MAX):  # zeros, non-finite or extreme values
        bad = np.flatnonzero(~((a >= _EXACT_MIN) & (a < _EXACT_MAX)))
        is_zero = values.flat[bad] == 0
        zero, redo = bad[is_zero], bad[~is_zero]
        a[bad] = 1.0  # a stand-in
    # the decade estimate, from above zero, where truncation is floor; a
    # rounding near an integer slips it by one, which is corrected below
    i = np.log(a, out=rows[1])
    i *= _LOG10_E
    i -= _DECADES.start
    i = i.astype(np.intp)
    hi, lo, tail = _scaled(i, rows)
    highest = hi.max()
    if hi.min() <= 1e16 or highest >= 1e17:  # the estimate may be off by one
        near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
        h, l = hi[near], lo[near]
        step = ((h > 1e17) | ((h == 1e17) & (l >= 0))).astype(np.intp)
        step -= (h < 1e16) | ((h == 1e16) & (l < 0))
        moved = np.flatnonzero(step)
        slipped = near[moved]
        i[slipped] += step[moved]
        again = np.empty((8, slipped.size))
        np.abs(values.flat[slipped], out=again[0])
        hi[slipped], lo[slipped], tail[slipped] = _scaled(i[slipped], again)
        highest = hi.max()
    lo_int = np.rint(lo, out=rows[3])  # half to even, as hi is an even integer
    loose = np.flatnonzero(tail)
    if loose.size:
        tie = np.abs(np.abs(lo[loose] - lo_int[loose]) - 0.5) < _TIE_BAND
        redo = np.concatenate([redo, loose[tie]])
    big, low = rows[7].view(np.int64), rows[4].view(np.int64)
    np.copyto(big, hi, casting="unsafe")
    np.copyto(low, lo_int, casting="unsafe")
    big += low
    if highest > 1e17 - 64 and big.max() == 10**17:  # rounded up to 10**17: the next decade
        carry = np.flatnonzero(big == 10**17)
        big[carry] = 10**16
        i[carry] += 1
    if zero.size:
        big[zero] = 0
    if not (1e-4 <= least and most < 1e17):  # %g's exponent form, below 1e-4 or from 1e17
        wide = np.flatnonzero((i < -4 - _DECADES.start) | (i > 16 - _DECADES.start))
    return i, big, redo, wide


def _byte_mask(mask: np.ndarray) -> np.ndarray:
    """A bool ``mask`` turned in place into uint8: 0xFF where set, 0 elsewhere."""
    cells = mask.view(np.uint8)
    return np.negative(cells, out=cells)


# ``_format_block`` works in one scratch buffer, made once per table, of 64
# byte rows, each with one byte per value of a block (n bytes for n values;
# a row of 32- or 64-bit words spans 4 or 8 byte rows). The frame, rows
# 0-24, has one row per output cell: the sign and the "0.000" lead (six
# cells), 18 body cells (the 17 digits and the point) and the separator; the
# rare exponent form is moved into place after the frame is transposed.
# Earlier steps borrow the frame's rows: the float work of the significand
# (rows 0-63) and the digits (rows 6-24: a NUL row, the 17 digits and the
# point of each value, read once by the point mask). Rows 25-63 hold the
# integer work of the digits (from row 32), then the body and the point
# mask, then the body and the trailing-zero mask, then the transposed frame.
_SCRATCH_ROWS = 64


def _format_block(values: np.ndarray, first_end: int, width: int, scratch: np.ndarray
                  ) -> np.ndarray:
    """The bytes of ``'%.17g' % v`` for each value v of ``values`` in C order,
    each followed by ``\\n`` at values ``first_end``, ``first_end + width``, ...
    and by ``,`` elsewhere; ``scratch`` holds ``_SCRATCH_ROWS`` bytes per value."""
    n = values.size

    def rows(first: int, stop: int, dtype=np.uint8) -> np.ndarray:
        """Byte rows ``first`` to ``stop`` of the scratch, one column per value."""
        return scratch[first * n:stop * n].view(dtype).reshape(-1, n)

    floats = rows(0, 64, np.float64)
    np.copyto(floats[0].reshape(values.shape), values)
    negative = np.signbit(floats[0])
    i, big, redo, wide = _significand(floats, values)
    if wide.size:
        exponent = np.take(_EXPONENT, i[wide], axis=0)
    frame = rows(0, 25)
    i += _DECADES.start - _CLASSES.start  # the decade class, once clipped to [0, 22]
    np.maximum(i, 0, out=i)
    np.minimum(i, len(_CLASSES) - 1, out=i)
    i *= 2
    i += negative
    del negative
    np.take(_LEAD, i, axis=1, out=frame[:6], mode="clip")
    at = np.take(_POINT, i, mode="clip")
    del i
    frame[24] = at
    at *= n
    at += np.arange(n)  # row point, column v, in rows of n bytes
    # the 17 digits: the high 9 and the low 8 in 32 bits, split again into
    # chunks of 5, 4, 4 and 4 digits, whose digits come out 4 rows at a time
    digits = frame[6:25]
    digits[0] = 0
    top, halves = rows(32, 40, np.int64)[0], rows(48, 56, np.uint32)
    np.floor_divide(big, 10**8, out=top)
    halves[0] = top
    top *= 10**8
    big -= top
    halves[1] = big
    chunks, quot = rows(32, 48, np.uint32), rows(48, 64, np.uint32)
    np.floor_divide(halves, 10**4, out=chunks[0::2])
    np.multiply(chunks[0::2], 10**4, out=chunks[1::2])
    np.subtract(halves, chunks[1::2], out=chunks[1::2])
    for k in range(4):
        np.floor_divide(chunks, 10, out=quot)
        quot *= 10
        chunks -= quot
        digits[5 - k::4][:4] = chunks
        np.floor_divide(quot, 10, out=chunks)
    digits[1] = chunks[0]
    digits[1:18] |= ord("0")
    # body cell j: digit j before the point, digit j - 1 after it (row j of
    # digits, whose row 0 is NUL for the "0.0..." form); then the point, put
    # in row point of body (row 0 is slack)
    body, mask = rows(25, 44), rows(44, 62, bool)
    np.greater(_CELL, frame[24], out=mask)
    np.bitwise_xor(digits[:18], digits[1:], out=body[1:])
    body[1:] &= _byte_mask(mask)
    body[1:] ^= digits[1:]
    scratch[25 * n:][at] = ord(".")
    # %g drops the fraction's trailing zeros, and then a bare point: keep the
    # integer part and every cell up to the last nonzero digit, by a suffix
    # OR seeded at the last integer cell, row point (rows 0-1 are slack)
    keep = rows(44, 64, bool)
    np.greater(body[1:], ord("0"), out=keep[2:])
    scratch[44 * n:][at] = True
    del at
    for step in (1, 2, 4, 8, 16):
        keep[:-step] |= keep[step:]
    np.bitwise_and(body[1:], _byte_mask(keep[2:]), out=frame[6:24])
    frame[24] = ord(",")
    frame[24, first_end::width] = ord("\n")
    record = scratch[25 * n:50 * n].reshape(n, 25)
    np.copyto(record, frame.T)
    if wide.size:  # the exponent form: sign and body, exponent, separator
        cells = np.take(record, wide, axis=0)
        moved = np.empty_like(cells)
        moved[:, :19] = cells[:, 5:24]
        moved[:, 19:24] = exponent
        moved[:, 24] = cells[:, 24]
        record.view("V25")[wide] = moved.view("V25")
    if redo.size:
        ends = np.zeros(n, bool)
        ends[first_end::width] = True
        text = [(_FLOAT % v + ("\n" if e else ",")).encode()
                for v, e in zip(values.flat[redo].tolist(), ends[redo].tolist())]
        record[redo] = np.array(text, dtype="S25").view(np.uint8).reshape(redo.size, -1)
    present = scratch[:25 * n].view(bool).reshape(n, 25)
    np.greater(record, 0, out=present)
    return record[present]


def _write_rows(fh, rows) -> None:
    """Write a non-empty 2-D table to a binary file as comma-separated rows
    of ``'%.17g' % value``."""
    rows = np.asarray(rows, dtype=float)
    width = rows.shape[1]
    step, cols = max(1, _BLOCK // width), min(width, _BLOCK)  # whole rows, or pieces of one
    scratch = np.empty(_SCRATCH_ROWS * min(step, rows.shape[0]) * cols, np.uint8)
    for start in range(0, rows.shape[0], step):
        for lo in range(0, width, cols):
            block = rows[start:start + step, lo:lo + cols]
            fh.write(_format_block(block, width - 1 - lo, width, scratch))


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

    Raises ``ParseError`` before the file is created if the array is not 2-D,
    is empty or holds a non-finite value, all of which ``read_csv`` would refuse.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise ParseError(f"{path}: can only write non-empty 2-D tables, got shape {values.shape}")
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ParseError(f"{path}: cannot write non-finite values")
    with open(path, "wb") as fh:
        _write_rows(fh, values.T)
