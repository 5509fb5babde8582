"""Plain-text model files.

Layout (blank lines skipped; numeric rows in csvio's comma-separated format
with 17 significant digits, which round-trips IEEE doubles exactly):

    cpcapp-model v1
    <method> <M> <K> <alpha> <loading>
    <mean_bg as CSV>
    <mean_fg as CSV>
    <eigenvalues as CSV>
    <M rows of F as CSV>
    W                      (optional basis block)
    <M rows of W as CSV>

``alpha`` is written as ``nan`` for methods that have no contrast parameter;
that sentinel is the only non-finite value a model file may hold.
"""

from __future__ import annotations

import math

import numpy as np

from .csvio import _FLOAT, _numbered_lines, _parse_rows, _write_rows
from .errors import CpcappError, ParseError
from .reducers import FilterBank

MAGIC = "cpcapp-model v1"


def save_model(path, bank: FilterBank, w: np.ndarray | None = None) -> None:
    """Write a filter bank (and optionally its paired basis W) as text."""
    if w is not None and w.shape != bank.f.shape:
        raise ParseError(f"W shape {w.shape} does not match filter shape {bank.f.shape}")
    alpha = bank.alpha if bank.alpha is not None else math.nan
    with open(path, "wb") as fh:
        fh.write(f"{MAGIC}\n{bank.method} {bank.features} {bank.k} "
                 f"{_FLOAT % alpha} {_FLOAT % bank.loading}\n".encode("ascii"))
        _write_rows(fh, [bank.train_mean_bg, bank.train_mean_fg])
        _write_rows(fh, [bank.eigenvalues])
        _write_rows(fh, bank.f)
        if w is not None:
            fh.write(b"W\n")
            _write_rows(fh, w)


def load_model(path) -> tuple[FilterBank, np.ndarray | None]:
    """Read a model file back; returns the bank and the W block if present."""
    path = str(path)
    lines = _numbered_lines(path)
    if not lines or lines[0][1].rstrip("\n") != MAGIC:
        raise ParseError(f"{path}:1: not a model file (expected '{MAGIC}')")
    head_no, head = lines[1] if len(lines) > 1 else (2, "")
    try:
        method, m_s, k_s, alpha_s, loading_s = head.split()
        m, k = int(m_s), int(k_s)
        alpha, loading = float(alpha_s), float(loading_s)
    except ValueError as exc:
        raise ParseError(f"{path}:{head_no}: bad header line: {exc}") from exc
    if m < 1:
        raise ParseError(f"{path}:{head_no}: bad header line: M is {m}")
    if len(lines) < 5 + m:
        raise ParseError(f"{path}: truncated file, expected at least {5 + m} lines")
    mean_bg, mean_fg, eigenvalues = (_parse_rows(lines[i:i + 1], path)[0] for i in (2, 3, 4))
    f = _parse_rows(lines[5:5 + m], path)
    if f.shape != (m, k):
        raise ParseError(f"{path}: filter block is {f.shape}, expected {(m, k)}")
    w = None
    rest = lines[5 + m:]
    if rest:
        marker_no, marker = rest[0][0], rest[0][1].rstrip("\n")
        if marker != "W":
            raise ParseError(f"{path}:{marker_no}: unexpected trailing block {marker!r}")
        if len(rest) != 1 + m:
            raise ParseError(f"{path}: W block has {len(rest) - 1} rows, expected {m}")
        w = _parse_rows(rest[1:], path)
        if w.shape != (m, k):
            raise ParseError(f"{path}: W block is {w.shape}, expected {(m, k)}")
        if not np.isfinite(w).all():
            raise ParseError(f"{path}: W block has non-finite values")
    try:
        bank = FilterBank(
            method=method,
            f=f,
            train_mean_bg=mean_bg,
            train_mean_fg=mean_fg,
            eigenvalues=eigenvalues,
            loading=loading,
            alpha=None if math.isnan(alpha) else alpha,
        )
    except CpcappError as exc:  # the file parsed but breaks a FilterBank invariant
        raise ParseError(f"{path}: {exc}") from exc
    return bank, w
