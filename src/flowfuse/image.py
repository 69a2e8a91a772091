"""Image type and pixel-domain primitives: histograms, Gaussian windows and
blur (of one image, or of a stack of them in one pass), one 1-D correlation
(valid, full, zero or replicate padding, any output stride) computed as a
cached band-matrix product, row-tiled (every window here is separable, so a
2-D filter is Mh @ a @ Mw.T), BT.601 color conversion.

Pixel values live in [0, 1] float64 everywhere; 8-bit I/O converts by /255
and round(*255) at the file boundary (see imgio). An image is gray or RGB by
its shape alone: color enters at file load, everything between works on luma,
and fusion re-attaches the visible image's chroma at the end.
"""

from __future__ import annotations

import functools

import numpy as np

# ITU-R BT.601 full-range luma/chroma matrix (rows: Y, Cb, Cr).
_FWD = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168735892, -0.331264108, 0.5],
        [0.5, -0.418687589, -0.081312411],
    ]
)
_INV = np.linalg.inv(_FWD)
_CHROMA_OFFSET = np.array([0.0, 0.5, 0.5])


class Image:
    """H x W (gray) or H x W x 3 (RGB) pixels in [0, 1], clamped on entry."""

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = np.asarray(pixels, dtype=np.float64)
        if not (arr.ndim == 2 or (arr.ndim == 3 and arr.shape[2] == 3)):
            raise ValueError(f"bad pixel array shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("empty image")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image contains non-finite values")
        self.pixels = np.clip(arr, 0.0, 1.0)

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]

    @property
    def channels(self):
        return 1 if self.pixels.ndim == 2 else 3

    def __repr__(self):
        return f"Image({self.height}x{self.width}x{self.channels})"


def as_gray(img) -> np.ndarray:
    """Gray pixel array from an Image or 2-D array-like; rejects color."""
    if isinstance(img, Image):
        if img.channels != 1:
            raise ValueError("gray image required, got 3 channels")
        return img.pixels
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"gray image required, got shape {arr.shape}")
    return arr


def luma(img) -> np.ndarray:
    """Y channel of an RGB image, or the gray pixels themselves."""
    if isinstance(img, Image) and img.channels == 3:
        return rgb_to_ycbcr(img.pixels)[:, :, 0]
    return as_gray(img)


# -- histogram ------------------------------------------------------------------

def bins256(a: np.ndarray) -> np.ndarray:
    """The 256-bin index of each [0, 1] value: bin k covers [k/256, (k+1)/256),
    the last bin closed at 1."""
    return np.minimum((a * 256.0).astype(np.int64), 255)


def check_unit_range(a: np.ndarray, what: str = "image") -> None:
    """Reject a pixel array that is empty or holds a non-finite value or a
    value outside [0, 1], with a ValueError naming what."""
    if a.size == 0:
        raise ValueError(f"{what} is empty")
    lo, hi = a.min(), a.max()
    if not (lo >= 0.0 and hi <= 1.0):  # a NaN fails both comparisons
        if not np.isfinite(a).all():
            raise ValueError(f"{what} has non-finite pixel values")
        raise ValueError(f"{what} has pixel values outside [0, 1] (min {lo}, max {hi})")


def histogram256(img) -> np.ndarray:
    """256-bin probability histogram over bins256."""
    a = as_gray(img)
    check_unit_range(a)
    counts = np.bincount(bins256(a).ravel(), minlength=256).astype(np.float64)
    return counts / a.size


# -- Gaussian windows, blur and correlation ------------------------------------

def gaussian_window1d(n: int, sigma: float) -> np.ndarray:
    """n Gaussian samples centred on the middle one, normalized to sum 1 (the
    SSIM and VIF window); its outer product is the 2-D n x n window."""
    x = np.arange(n) - (n - 1) / 2.0
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """1-D Gaussian kernel truncated at 3 sigma, normalized to sum 1."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return gaussian_window1d(2 * int(np.ceil(3.0 * sigma)) + 1, sigma)


# -- separable filters as band-matrix products ------------------------------------
#
# A 1-D filter of n samples is an (n_out x n) matrix M, set by the m taps k,
# the padding and the output stride: valid (no padding, n_out = n - m + 1),
# full (m - 1 zeros on each side, n_out = n + m - 1: every window that
# overlaps the axis, so with the taps reversed it is the transpose of valid's
# M), zeros (same size, zero padding) or replicate (same size, copies of the
# edge samples, summed into M's first and last columns). Its rows are k shifted
# one step each, so M is a band of width m. Filtering the last two axes of
# (..., H, W) with outer(k, k) is then Mh @ a @ Mw.T, one GEMM per row tile of
# M (below). A stack broadcasts into GEMMs of the same shapes per image, so
# each image of a stack gets the bits its own filter would.
#
# The formula is chosen by geometry alone. One untiled product spends
# n_out * n multiplies where a sliding window spends n_out * m, so it loses to
# windows once n is a few times m. A row-tiled product keeps to the band: each
# tile of t = max(_TILE // step, m) outputs multiplies only the
# (t - 1) * step + m samples its rows read, so its cost grows linearly in
# n_out, and one GEMM call serves a tile, not a window.
# 2-D filter of one image, ms, best of 10-30 runs on a 2-vCPU x86 host with
# numpy 2.4.6 and OpenBLAS 0.3.31 on one thread; "windows" is one sliding
# window per axis (sliding_window_view @ k, after np.pad or take):
#
#     size     filter         windows  untiled  tiled
#     128      SSIM valid 11     0.13    0.19    0.08
#     128      blur sigma 2      0.24    0.20    0.09
#     128      blur sigma 32     1.15    0.20    0.19
#     256      VIF same 17       1.04    1.04    0.26
#     512      SSIM valid 11     5.34    8.92    2.25
#     512      blur sigma 32    17.29    7.51    5.22
#     480x640  SSIM valid 11     1.97   10.89    1.33
#     480x640  VIF down 9        1.78    3.52    0.68
#     480x640  blur sigma 32    16.66    9.64    6.23
#
# So every axis is tiled; an axis of at most one tile's outputs is one band.

_TILE = 32


def _band_block(first: np.ndarray, k: np.ndarray, n: int, pad: str, c0: int, c1: int) -> np.ndarray:
    """The rows of the band matrix for the outputs whose first taps read the
    samples first, over the sample columns c0:c1; read-only."""
    c = first[:, None] + np.arange(len(k))
    if pad == "replicate":
        c = np.clip(c, 0, n - 1)
    inside = (c >= 0) & (c < n)  # zero padding drops the taps outside
    block = np.zeros((len(first), c1 - c0))
    # row-major, so an element's taps add in tap order: an edge sum of
    # replicate padding adds k[0] first
    np.add.at(block, (np.nonzero(inside)[0], c[inside] - c0), np.broadcast_to(k, c.shape)[inside])
    block.flags.writeable = False
    return block


# An entry holds at most four distinct blocks of about tile x (tile + m - 1)
# floats (the first tile, the interior ones, and the one or two tiles that
# reach past the far end), or one n_out x n band for an axis of one tile:
# 16 KiB for SSIM's window at any size, 128 KiB for Qcb's 193-tap blur at
# 128 px. So a cold build costs O(tile x m) per block, not O(n^2).
@functools.lru_cache(maxsize=32)
def _band_tiles(n: int, taps: bytes, pad: str, step: int) -> tuple:
    """The 1-D filter with these float64 taps over n samples, keeping every
    step-th output, as read-only row tiles (o0, o1, c0, c1, block) of its
    band matrix: outputs o0:o1 are block @ samples c0:c1."""
    k = np.frombuffer(taps)
    m = len(k)
    if pad == "valid":
        if m > n:
            raise ValueError(f"a {m}-tap window is longer than the axis of {n} samples")
        first = np.arange(0, n - m + 1, step)
    elif pad == "full":
        first = np.arange(0, n + m - 1, step) - (m - 1)
    elif pad in ("zeros", "replicate"):
        first = np.arange(0, n, step) - (m - 1) // 2
    else:
        raise ValueError(f"pad must be valid, full, zeros or replicate, got {pad!r}")
    n_out = len(first)  # first[i]: the sample output i's first tap reads
    size = max(_TILE // step, m)
    if size >= n_out:
        return ((0, n_out, 0, n, _band_block(first, k, n, pad, 0, n)),)
    tiles, interior = [], None
    for o0 in range(0, n_out, size):
        o1 = min(o0 + size, n_out)
        lo, hi = int(first[o0]), int(first[o1 - 1]) + m
        c0, c1 = max(lo, 0), min(hi, n)
        if o1 - o0 == size and (lo, hi) == (c0, c1):
            # a whole tile clear of the edges: all of them hold the same block
            if interior is None:
                interior = _band_block(first[o0:o1], k, n, pad, c0, c1)
            block = interior
        else:
            block = _band_block(first[o0:o1], k, n, pad, c0, c1)
        tiles.append((o0, o1, c0, c1, block))
    return tuple(tiles)


def correlate1d(a: np.ndarray, k: np.ndarray, axis: int = -1, pad: str = "valid",
                step: int = 1) -> np.ndarray:
    """1-D cross-correlation of a with the taps k along axis, one of a's last
    two (leading axes are a stack), as the band product above:
    out[i] = sum_d k[d] a[i * step + d - lo] with lo = 0 for pad "valid" (the
    window fits whole), m - 1 for "full" (the window overlaps the axis;
    samples outside it are zeros) and (m - 1) // 2 for "zeros" and
    "replicate" (same size before the stride; samples outside the axis are
    zeros or copies of the edge sample)."""
    axis %= a.ndim
    if axis < a.ndim - 2:
        raise ValueError(f"axis {axis} of a {a.ndim}-D array: correlate1d filters the last two")
    rows = axis == a.ndim - 2
    tiles = _band_tiles(a.shape[axis], np.asarray(k, dtype=np.float64).tobytes(), pad, step)
    if len(tiles) == 1:
        block = tiles[0][4]
        return block @ a if rows else a @ block.T
    shape = list(a.shape)
    shape[axis] = tiles[-1][1]
    out = np.empty(shape)
    for o0, o1, c0, c1, block in tiles:
        if rows:
            np.matmul(block, a[..., c0:c1, :], out=out[..., o0:o1, :])
        else:
            np.matmul(a[..., c0:c1], block.T, out=out[..., o0:o1])
    return out


def separable_filter(a: np.ndarray, k: np.ndarray, pad: str = "valid",
                     step: int = 1) -> np.ndarray:
    """Filter the last two axes of a with the window outer(k, k): correlate1d
    down the rows, then along them. Leading axes are a stack."""
    return correlate1d(correlate1d(a, k, -2, pad, step), k, -1, pad, step)


def gaussian_blur(img, sigma: float) -> np.ndarray:
    """Separable Gaussian blur, replicate padding, kernel truncated at 3 sigma.

    img is one gray image (an Image or a 2-D array) or a list or tuple of
    same-shape 2-D arrays, blurred as one (n, H, W) stack and returned as
    one. A 3-D array is rejected rather than read as a stack: an (H, W, 3)
    color array has the same rank. Each image of a stack gets the bits its
    own blur would.
    """
    stack = isinstance(img, (list, tuple)) and len(img) > 0 and np.ndim(img[0]) == 2
    a = np.asarray(img, dtype=np.float64) if stack else as_gray(img)
    return separable_filter(a, gaussian_kernel1d(sigma), "replicate")


# -- color conversion ------------------------------------------------------------

# Both directions clamp to [0, 1], as Image does, and keep the full 3 x 3
# product: luma and fusion's chroma re-attachment read one conversion.

def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """BT.601 full-range YCbCr of an (H, W, 3) RGB array."""
    return np.clip(rgb @ _FWD.T + _CHROMA_OFFSET, 0.0, 1.0)


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """RGB of an (H, W, 3) BT.601 full-range YCbCr array."""
    return np.clip((ycc - _CHROMA_OFFSET) @ _INV.T, 0.0, 1.0)
