"""Image type and pixel-domain primitives: histograms, Gaussian windows and
blur (of one image, or of a stack of them in one pass), one valid-mode
correlation (1-D along an axis: every window here is separable, so 2-D
filters run as one pass per axis), BT.601 color conversion.

Pixel values live in [0, 1] float64 everywhere; 8-bit I/O converts by /255
and round(*255) at the file boundary (see imgio). Color images carry an
explicit color-space tag.
"""

from __future__ import annotations

import numpy as np

GRAY = "gray"
RGB = "rgb"
YCBCR = "ycbcr"

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
    """H x W (gray) or H x W x 3 (color) pixels in [0, 1], clamped on entry."""

    __slots__ = ("pixels", "space")

    def __init__(self, pixels, space=None):
        arr = np.asarray(pixels, dtype=np.float64)
        if arr.ndim == 2:
            space = GRAY if space is None else space
            if space != GRAY:
                raise ValueError("2-D pixel array must be gray")
        elif arr.ndim == 3 and arr.shape[2] == 3:
            if space not in (RGB, YCBCR):
                raise ValueError("color image needs an explicit space tag (rgb or ycbcr)")
        else:
            raise ValueError(f"bad pixel array shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("empty image")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image contains non-finite values")
        self.pixels = np.clip(arr, 0.0, 1.0)
        self.space = space

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
        return f"Image({self.height}x{self.width}, {self.space})"


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
    """Y channel of a color image, or the gray pixels themselves."""
    if isinstance(img, Image) and img.channels == 3:
        if img.space == YCBCR:
            return img.pixels[:, :, 0]
        return rgb_ycbcr(img, "forward").pixels[:, :, 0]
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


def correlate1d_valid(a: np.ndarray, k: np.ndarray, axis: int) -> np.ndarray:
    """1-D cross-correlation of a with k along axis (counted from the front,
    so a stack of images adds leading axes), at the positions where k fits
    whole; a separable 2-D filter runs as one pass per axis."""
    win = np.lib.stride_tricks.sliding_window_view(a, len(k), axis=axis)
    # Stack over the output positions along axis: each stacked matrix then
    # pairs the other axes with the window, which BLAS reads in place.
    return (win.swapaxes(0, axis) @ k).swapaxes(0, axis)


def gaussian_blur(img, sigma: float) -> np.ndarray:
    """Separable Gaussian blur, replicate padding, kernel truncated at 3 sigma.

    img is one gray image (an Image or a 2-D array) or a list or tuple of
    same-shape 2-D arrays, blurred as one (n, H, W) stack and returned as
    one. A 3-D array is rejected rather than read as a stack: an (H, W, 3)
    color array has the same rank. Each image of a stack gets the bits its
    own blur would.
    """
    stack = isinstance(img, (list, tuple)) and len(img) > 0 and np.ndim(img[0]) == 2
    a = np.asarray(img, dtype=np.float64) if stack else as_gray(img)[None]
    k = gaussian_kernel1d(sigma)
    r = (len(k) - 1) // 2
    _, h, w = a.shape
    # replicate padding: take the clipped index range -r .. size + r - 1
    rows = correlate1d_valid(a.take(np.clip(np.arange(-r, h + r), 0, h - 1), axis=1), k, axis=1)
    cols = rows.take(np.clip(np.arange(-r, w + r), 0, w - 1), axis=2)
    # The column pass sees the stack as (n, W, H), so each BLAS matrix holds one
    # image's (H, taps) windows, as in a lone blur: a stacked image gets the same
    # bits. One (n * H, taps) matrix per column would not: the kernel's row
    # blocking then rounds odd heights differently.
    out = correlate1d_valid(cols.swapaxes(1, 2), k, axis=1).swapaxes(1, 2)
    return out if stack else out[0]


# -- color conversion ------------------------------------------------------------

def rgb_ycbcr(img: Image, direction: str) -> Image:
    """BT.601 full-range RGB <-> YCbCr conversion for 3-channel images."""
    if not isinstance(img, Image) or img.channels != 3:
        raise ValueError("rgb_ycbcr requires a 3-channel image")
    if direction == "forward":
        if img.space != RGB:
            raise ValueError(f"forward conversion expects rgb, got {img.space}")
        out = img.pixels @ _FWD.T + _CHROMA_OFFSET
        return Image(out, YCBCR)
    if direction == "inverse":
        if img.space != YCBCR:
            raise ValueError(f"inverse conversion expects ycbcr, got {img.space}")
        out = (img.pixels - _CHROMA_OFFSET) @ _INV.T
        return Image(out, RGB)
    raise ValueError(f"direction must be forward or inverse, got {direction!r}")
