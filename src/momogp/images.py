"""Portable pixmap I/O and resampling baselines.

Reads P3 (ascii) and P6 (binary) PPM files with 8-bit channels (any
maxval up to 255, rescaled to 0..255), writes P6, and provides the
nearest-neighbour and bilinear upsamplers used as comparison baselines,
plus a deterministic synthetic test image (smooth gradients crossed by
sharp edges).

Pixel (i, j) of an H x W image maps to the covariate
((i + 0.5) / H, (j + 0.5) / W), so grids of different resolution share
one coordinate frame and a box-downsampled pixel sits at the mean
position of the block it came from.

Running ``python -m momogp.images out.ppm`` writes the demo image.
"""

from __future__ import annotations

import re

import numpy as np

from .data_pipeline import Dataset
from .serialize import write_text_atomic


def _header_tokens(raw: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated tokens, skipping # comments.

    Returns the tokens and the offset just past the single whitespace
    byte that terminates the last one (start of binary data for P6).
    """
    tokens: list[bytes] = []
    i = 0
    n = len(raw)
    while len(tokens) < count:
        while i < n and raw[i : i + 1].isspace():
            i += 1
        if i < n and raw[i : i + 1] == b"#":
            while i < n and raw[i] != 0x0A:
                i += 1
            continue
        if i >= n:
            raise ValueError("truncated header")
        start = i
        while i < n and not raw[i : i + 1].isspace() and raw[i : i + 1] != b"#":
            i += 1
        tokens.append(raw[start:i])
    if i < n and raw[i : i + 1].isspace():
        i += 1
    return tokens, i


def read_ppm(path) -> np.ndarray:
    """Load a P3 or P6 PPM as a (H, W, 3) uint8 array.

    A sample above the file's maxval is refused; samples of a maxval other
    than 255 are rescaled to 0..255, rounding half up.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        (magic, w_tok, h_tok, max_tok), offset = _header_tokens(raw, 4)
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError as exc:
        raise ValueError(f"{path}: bad PPM header ({exc})") from None
    if magic not in (b"P3", b"P6"):
        raise ValueError(f"{path}: unsupported magic {magic!r}")
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: only 8-bit channels supported (maxval {maxval})")
    n_values = width * height * 3
    if magic == b"P6":
        pixels = np.frombuffer(raw, dtype=np.uint8, count=-1, offset=offset)
        if pixels.size < n_values:
            raise ValueError(f"{path}: pixel data truncated")
        pixels = pixels[:n_values]
    else:
        body = re.sub(rb"#[^\n]*", b"", raw[offset:])
        values = body.split()
        if len(values) < n_values:
            raise ValueError(f"{path}: pixel data truncated")
        pixels = np.asarray([int(v) for v in values[:n_values]], dtype=np.int64)
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ValueError(f"{path}: sample out of range")
    img = pixels.reshape(height, width, 3)
    if maxval != 255:  # a sample counts in steps of 1/maxval of full scale
        return _as_uint8(img * 255.0 / maxval)
    return img.astype(np.uint8, copy=False)


def _as_uint8(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"image must have shape (H, W, 3), got {img.shape}")
    if img.dtype == np.uint8:
        return img
    # round half up, then clamp
    return np.clip(np.floor(img.astype(float) + 0.5), 0, 255).astype(np.uint8)


def write_ppm(path, img: np.ndarray):
    """Write a binary P6 file atomically (temp file + rename)."""
    img = _as_uint8(img)
    height, width = img.shape[:2]
    write_text_atomic(path, f"P6\n{width} {height}\n255\n".encode() + img.tobytes())


def nearest_upsample(img: np.ndarray, factor: int) -> np.ndarray:
    if factor < 1:
        raise ValueError("factor must be >= 1")
    return np.repeat(np.repeat(img, factor, axis=0), factor, axis=1)


def bilinear_upsample(img: np.ndarray, factor: int) -> np.ndarray:
    """Pixel-centre-aligned separable bilinear interpolation, edge clamped."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    img_f = np.asarray(img, dtype=float)
    h, w = img_f.shape[:2]

    def _coords(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        src = (np.arange(n * factor) + 0.5) / factor - 0.5
        src = np.clip(src, 0.0, n - 1.0)
        i0 = np.floor(src).astype(int)
        i1 = np.minimum(i0 + 1, n - 1)
        return i0, i1, src - i0

    r0, r1, tr = _coords(h)
    c0, c1, tc = _coords(w)
    rows = (1.0 - tr)[:, None, None] * img_f[r0] + tr[:, None, None] * img_f[r1]
    out = (1.0 - tc)[None, :, None] * rows[:, c0] + tc[None, :, None] * rows[:, c1]
    return out


def box_downsample(img: np.ndarray, factor: int) -> np.ndarray:
    """Average non-overlapping factor x factor blocks."""
    img_f = np.asarray(img, dtype=float)
    h, w = img_f.shape[:2]
    if factor < 1 or h % factor or w % factor:
        raise ValueError(f"factor {factor} does not divide {h}x{w}")
    blocks = img_f.reshape(h // factor, factor, w // factor, factor, -1)
    return blocks.mean(axis=(1, 3))


def image_rmse(a: np.ndarray, b: np.ndarray) -> float:
    """Pooled RMSE over all pixels and channels, in raw 0..255 units."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def grid_coordinates(height: int, width: int) -> np.ndarray:
    """(H*W, 2) pixel-centre covariates in [0, 1]^2, row-major order."""
    rows = (np.arange(height) + 0.5) / height
    cols = (np.arange(width) + 0.5) / width
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    return np.column_stack([rr.ravel(), cc.ravel()])


def image_to_dataset(img: np.ndarray) -> Dataset:
    """Pixels as a regression dataset: centre coordinates -> RGB values."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"image must have shape (H, W, 3), got {img.shape}")
    height, width = img.shape[:2]
    x = grid_coordinates(height, width)
    y = img.reshape(-1, 3).astype(float)
    return Dataset(x, y)


def dataset_to_image(y: np.ndarray, height: int, width: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (height * width, 3):
        raise ValueError(f"expected {(height * width, 3)} values, got {y.shape}")
    return _as_uint8(y.reshape(height, width, 3))


def synthetic_image(size: int = 64) -> np.ndarray:
    """Deterministic test image: smooth color gradients with sharp shapes.

    The smooth background favours interpolation; the circle, bar and
    diagonal band add the discontinuities that make simple upsamplers
    blur or block.
    """
    if size < 8:
        raise ValueError("size must be >= 8")
    yy, xx = np.mgrid[0:size, 0:size] / (size - 1.0)
    red = 60.0 + 150.0 * xx
    green = 50.0 + 150.0 * yy
    blue = 210.0 - 130.0 * xx * yy
    img = np.stack([red, green, blue], axis=2)
    circle = (xx - 0.33) ** 2 + (yy - 0.38) ** 2 < 0.17**2
    img[circle] = (235.0, 75.0, 60.0)
    bar = (xx > 0.62) & (xx < 0.88) & (yy > 0.12) & (yy < 0.34)
    img[bar] = (250.0, 215.0, 40.0)
    band = np.abs(xx + yy - 1.45) < 0.07
    img[band] = (35.0, 190.0, 120.0)
    return _as_uint8(img)


def _main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="write the synthetic demo image")
    parser.add_argument("out", help="output PPM path")
    parser.add_argument("--size", type=int, default=64)
    args = parser.parse_args(argv)
    write_ppm(args.out, synthetic_image(args.size))
    print(f"wrote {args.size}x{args.size} demo image to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
