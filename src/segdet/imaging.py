"""Image containers and pixel-level operations.

Covers portable pixmap I/O (binary P5/P6, maxval 255), grayscale conversion,
bilinear resizing, zero-padded cropping and integral images. Everything is
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptHeaderError,
    UnsupportedChannelsError,
    UnsupportedFormatError,
    ZeroDimensionError,
)

# Rec.601 luma weights; inputs never declare a color space.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)


@dataclass(frozen=True)
class BoxI:
    """Integer pixel box: top-left corner plus extents. w, h >= 0."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box extents must be nonnegative, got {self}")

    @property
    def x2(self) -> int:
        return self.x + self.w

    @property
    def y2(self) -> int:
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.w, self.h)


def union_box(boxes) -> BoxI:
    """Smallest box containing every input box."""
    boxes = list(boxes)
    if not boxes:
        raise ValueError("union_box of empty sequence")
    x0 = min(b.x for b in boxes)
    y0 = min(b.y for b in boxes)
    x1 = max(b.x2 for b in boxes)
    y1 = max(b.y2 for b in boxes)
    return BoxI(x0, y0, x1 - x0, y1 - y0)


@dataclass(frozen=True)
class Image:
    """8-bit image, row-major, channel-interleaved. channels is 1 or 3."""

    width: int
    height: int
    channels: int
    data: np.ndarray  # shape (height, width, channels), dtype uint8

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        if self.channels not in (1, 3):
            raise UnsupportedChannelsError(f"channels must be 1 or 3, got {self.channels}")
        if self.data.shape != (self.height, self.width, self.channels):
            raise ValueError(
                f"data shape {self.data.shape} does not match "
                f"{self.height}x{self.width}x{self.channels}"
            )
        if self.data.dtype != np.uint8:
            raise ValueError("image data must be uint8")


@dataclass(frozen=True)
class GrayImageF:
    """Grayscale image with real samples in [0, 1]."""

    width: int
    height: int
    data: np.ndarray  # shape (height, width), dtype float64

    def __post_init__(self):
        if self.data.shape != (self.height, self.width):
            raise ValueError(f"data shape {self.data.shape} != {self.height}x{self.width}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("gray image contains non-finite samples")


def _read_token(buf: bytes, pos: int, path) -> tuple[bytes, int]:
    # skip whitespace and '#' comments between header tokens
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and buf[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise CorruptHeaderError(f"{path}: truncated header")
    return buf[start:pos], pos


def load_image(path) -> Image:
    """Decode a binary PGM (P5) or PPM (P6) file with maxval <= 255."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such image file: {p}")
    buf = p.read_bytes()
    if len(buf) < 2:
        raise CorruptHeaderError(f"{p}: file too short for a pixmap header")
    magic = bytes(buf[:2])
    if magic not in (b"P5", b"P6"):
        raise UnsupportedFormatError(
            f"{p}: unsupported format {magic!r}; only binary P5/P6 are accepted"
        )
    channels = 1 if magic == b"P5" else 3
    pos = 2
    try:
        wtok, pos = _read_token(buf, pos, p)
        htok, pos = _read_token(buf, pos, p)
        mtok, pos = _read_token(buf, pos, p)
        width, height, maxval = int(wtok), int(htok), int(mtok)
    except ValueError as exc:
        raise CorruptHeaderError(f"{p}: non-numeric header field") from exc
    if width < 1 or height < 1 or maxval < 1:
        raise CorruptHeaderError(f"{p}: invalid dimensions {width}x{height} maxval {maxval}")
    if maxval > 255:
        raise UnsupportedFormatError(f"{p}: 16-bit samples (maxval {maxval}) are not supported")
    pos += 1  # single whitespace byte after maxval
    need = width * height * channels
    payload = buf[pos : pos + need]
    if len(payload) < need:
        raise CorruptHeaderError(
            f"{p}: truncated pixel data ({len(payload)} of {need} bytes)"
        )
    data = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels).copy()
    return Image(width, height, channels, data)


def save_image(img: Image, path) -> None:
    """Write as binary P5 (1 channel) or P6 (3 channels), maxval 255."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n" + f"{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.data.tobytes())


def to_gray(img: Image) -> GrayImageF:
    """Combine channels with Rec.601 luma weights and scale samples to [0, 1]."""
    if img.channels == 3:
        w = np.array(LUMA_WEIGHTS, dtype=np.float64)
        y = img.data.astype(np.float64) @ w
    elif img.channels == 1:
        y = img.data[:, :, 0].astype(np.float64)
    else:
        raise UnsupportedChannelsError(f"cannot convert {img.channels}-channel image")
    return GrayImageF(img.width, img.height, y / 255.0)


def resize_bilinear(img: GrayImageF, out_w: int, out_h: int) -> GrayImageF:
    """Bilinear resize with half-pixel-centered sample mapping."""
    if out_w < 1 or out_h < 1:
        raise ZeroDimensionError(f"resize target {out_w}x{out_h} must be >= 1x1")
    src = img.data
    ih, iw = src.shape
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (iw / out_w) - 0.5
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (ih / out_h) - 0.5
    xf = np.floor(xs)
    yf = np.floor(ys)
    fx = xs - xf
    fy = ys - yf
    x0 = np.clip(xf, 0, iw - 1).astype(np.intp)
    x1 = np.clip(xf + 1, 0, iw - 1).astype(np.intp)
    y0 = np.clip(yf, 0, ih - 1).astype(np.intp)
    y1 = np.clip(yf + 1, 0, ih - 1).astype(np.intp)
    # separable: blend columns on every source row, then blend those rows;
    # each output sample takes the same products and sums as a four-corner blend
    hz = src[:, x0] * (1.0 - fx) + src[:, x1] * fx
    out = hz[y0] * (1.0 - fy)[:, None] + hz[y1] * fy[:, None]
    return GrayImageF(out_w, out_h, out)


def integral(img: GrayImageF) -> np.ndarray:
    """Running 2-D float64 prefix sums with a zero border row/column: (h+1, w+1)."""
    ii = np.zeros((img.height + 1, img.width + 1), dtype=np.float64)
    np.cumsum(np.cumsum(img.data, axis=0), axis=1, out=ii[1:, 1:])
    return ii


def crop(img, b: BoxI):
    """Extract b from the image; regions outside the frame are zero-padded.

    Works on Image and GrayImageF and returns the same type. The output is
    always exactly b.w x b.h.
    """
    if b.w <= 0 or b.h <= 0:
        raise ZeroDimensionError(f"cannot crop a degenerate box {b.astuple()}")
    arr = img.data
    out = np.zeros((b.h, b.w) + arr.shape[2:], dtype=arr.dtype)
    sx0, sy0 = max(b.x, 0), max(b.y, 0)
    sx1, sy1 = min(b.x2, img.width), min(b.y2, img.height)
    if sx1 > sx0 and sy1 > sy0:
        out[sy0 - b.y : sy1 - b.y, sx0 - b.x : sx1 - b.x] = arr[sy0:sy1, sx0:sx1]
    if isinstance(img, Image):
        return Image(b.w, b.h, img.channels, out)
    return GrayImageF(b.w, b.h, out)


def extract_patch(img: GrayImageF, b: BoxI, out_h: int, out_w: int) -> GrayImageF:
    """Crop b (zero-padded) and resize to the requested dimensions."""
    return resize_bilinear(crop(img, b), out_w, out_h)
