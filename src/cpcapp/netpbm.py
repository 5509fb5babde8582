"""Binary netpbm images: 8-bit P5 (grayscale) and P6 (RGB).

Probability maps are written as P5 with each pixel ``round(255 * p)``; masks
use only 0 and 255.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError, ShapeError


def _read_tokens(data: bytes, count: int):
    """First ``count`` whitespace-separated header tokens, skipping comments."""
    tokens = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise ParseError("truncated netpbm header")
        ch = data[pos:pos + 1]
        if ch == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise ParseError("unterminated comment in netpbm header")
            pos = nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    return tokens, pos + 1  # header ends after one whitespace byte


def read_image(path) -> np.ndarray:
    """Read a P5 or P6 file; returns (H, W) or (H, W, 3) uint8."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, offset = _read_tokens(data, 4)
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise ParseError(f"{path}: unsupported netpbm magic {magic!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:
        raise ParseError(f"{path}: bad netpbm dimensions: {exc}") from exc
    if width < 1 or height < 1:
        raise ParseError(f"{path}: netpbm dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise ParseError(f"{path}: only 8-bit images are supported (maxval {maxval})")
    channels = 1 if magic == b"P5" else 3
    needed = width * height * channels
    raster = data[offset:offset + needed]
    if len(raster) < needed:
        raise ParseError(f"{path}: raster has {len(raster)} bytes, expected {needed}")
    pixels = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        return pixels.reshape(height, width).copy()
    return pixels.reshape(height, width, 3).copy()


def write_image(path, image) -> None:
    """Write uint8 image data as P5 (2-D input) or P6 ((H, W, 3) input)."""
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
        fh.write(image.tobytes())


def write_probability_map(path, values) -> None:
    """Quantize probabilities in [0, 1] to 8 bits and write as P5."""
    values = np.asarray(values, dtype=float)
    if values.min() < 0 or values.max() > 1:
        raise ShapeError("probabilities must lie in [0, 1]")
    write_image(path, np.round(255.0 * values).astype(np.uint8))


def read_probability_map(path) -> np.ndarray:
    """Read a P5 map back to float probabilities in [0, 1]."""
    image = read_image(path)
    if image.ndim != 2:
        raise ParseError(f"{path}: probability maps must be grayscale")
    return image.astype(float) / 255.0
