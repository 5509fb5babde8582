"""Binary netpbm images: 8-bit P5 (grayscale) and P6 (RGB).

Probability maps are written as P5 with each pixel ``round(255 * p)``; masks
use only 0 and 255.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import ParseError, ShapeError

# write_probability_map quantizes row bands of about this many pixels
_BAND_PIXELS = 1 << 14


def _read_header(fh) -> list[bytes]:
    """The four header tokens, read from ``fh`` through the whitespace byte that ends the last.

    Whitespace or the end of the file ends a token; a ``#`` outside a token
    starts a comment, which runs to the end of its line.
    """
    tokens, token = [], bytearray()
    while len(tokens) < 4:
        ch = fh.read(1)
        if ch and not ch.isspace() and (token or ch != b"#"):
            token += ch
        elif token:
            tokens.append(bytes(token))
            token.clear()
        elif ch == b"#":
            if not fh.readline().endswith(b"\n"):
                raise ParseError("unterminated comment in netpbm header")
        elif not ch:
            raise ParseError("truncated netpbm header")
    return tokens


def read_image(path) -> np.ndarray:
    """Read a P5 or P6 file; returns (H, W) or (H, W, 3) uint8.

    The header is parsed in one pass through the file's buffer, and the
    raster is read straight into the returned array, so the image is held once.
    """
    with open(path, "rb") as fh:
        magic, *fields = _read_header(fh)
        if magic not in (b"P5", b"P6"):
            raise ParseError(f"{path}: unsupported netpbm magic {magic!r}")
        try:
            width, height, maxval = map(int, fields)
        except ValueError as exc:
            raise ParseError(f"{path}: bad netpbm dimensions: {exc}") from exc
        if width < 1 or height < 1:
            raise ParseError(f"{path}: netpbm dimensions must be positive, got {width}x{height}")
        if maxval != 255:
            raise ParseError(f"{path}: only 8-bit images are supported (maxval {maxval})")
        shape = (height, width) if magic == b"P5" else (height, width, 3)
        needed = math.prod(shape)
        # sized from the file before anything is allocated for the raster
        available = max(os.fstat(fh.fileno()).st_size - fh.tell(), 0)
        if available < needed:
            raise ParseError(f"{path}: raster has {available} bytes, expected {needed}")
        pixels = np.empty(shape, dtype=np.uint8)
        got = fh.readinto(pixels)
    if got < needed:  # the file shrank while it was read
        raise ParseError(f"{path}: raster has {got} bytes, expected {needed}")
    return pixels


def write_image(path, image) -> None:
    """Write uint8 image data as P5 (2-D input) or P6 ((H, W, 3) input).

    A C-contiguous array is written from its own buffer, with no copy.
    """
    image = np.asarray(image)
    if image.dtype != np.uint8:
        raise ShapeError("netpbm writer expects uint8 data")
    if image.ndim == 2:
        magic, height, width = b"P5", *image.shape
    elif image.ndim == 3 and image.shape[2] == 3:
        magic = b"P6"
        height, width = image.shape[:2]
    else:
        raise ShapeError(f"cannot write image of shape {image.shape}")
    header = magic + f"\n{width} {height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(image))


def write_probability_map(path, values) -> None:
    """Quantize probabilities in [0, 1] to 8 bits and write as P5.

    ``values`` must be 2-D. It is quantized one band of about
    ``_BAND_PIXELS`` pixels at a time, straight into the uint8 image.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ShapeError(f"probability maps must be 2-D, got shape {values.shape}")
    if not (0 <= values.min() and values.max() <= 1):
        raise ShapeError("probabilities must lie in [0, 1]")
    image = np.empty(values.shape, dtype=np.uint8)
    step = max(1, _BAND_PIXELS // values.shape[1])
    for lo in range(0, values.shape[0], step):
        image[lo:lo + step] = np.round(255.0 * values[lo:lo + step])
    write_image(path, image)


def read_probability_map(path) -> np.ndarray:
    """Read a P5 map back to float probabilities in [0, 1]."""
    image = read_image(path)
    if image.ndim != 2:
        raise ParseError(f"{path}: probability maps must be grayscale")
    values = image.astype(float)
    values /= 255.0
    return values
