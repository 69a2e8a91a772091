"""Two-dimensional DFT on numpy's FFT, with power-of-two padding and its adjoint.

The transform is the plain unnormalized DFT
F(u, v) = sum_x sum_y I(x, y) exp(-2i*pi*u*x/H) exp(-2i*pi*v*y/W)
over the trailing two axes; leading axes are batch. Callers zero-pad the
input up to the next power of two, so the spectrum always lives on the
padded grid. The inverse is unnormalized too: callers divide by the grid size.
The adjoint (conjugate-transposed) transform is exported for reverse-mode
differentiation: the DFT is linear, so the adjoint is exact.

A real input of width W has a Hermitian spectrum, F(-u, -v) = conj F(u, v),
so its columns 0 .. W // 2 hold all of it. The real-input pair (real_width
set) keeps only that half spectrum: the forward takes a real grid to it, the
inverse takes it back to a real grid of real_width columns, at about half the
complex transform's cost. The metrics filter real images this way; the tape's
fft2 stays complex. This module is the one place numpy's FFT is called.
"""

from __future__ import annotations

import numpy as np


def next_pow2(n: int) -> int:
    if n < 1:
        raise ValueError("extent must be >= 1")
    p = 1
    while p < n:
        p *= 2
    return p


def _pad_pow2(a: np.ndarray) -> np.ndarray:
    """Zero-pad the trailing two axes up to the next powers of two."""
    h, w = a.shape[-2:]
    hp, wp = next_pow2(h), next_pow2(w)
    if (hp, wp) == (h, w):
        return a
    out = np.zeros(a.shape[:-2] + (hp, wp), dtype=a.dtype)
    out[..., :h, :w] = a
    return out


def _fft2_raw(a: np.ndarray, inverse: bool, real_width: int | None = None) -> np.ndarray:
    """Unnormalized DFT of the trailing two axes; inverse flips the sign of
    the exponent and does not divide by the grid size.

    With real_width set, the transform is the real-input pair: the forward
    takes a real a of real_width columns to its real_width // 2 + 1 column
    half spectrum, and the inverse takes such a half spectrum back to the
    real grid of real_width columns."""
    if real_width is None:
        if inverse:
            return np.fft.ifft2(a, norm="forward")
        return np.fft.fft2(a)
    if inverse:
        return np.fft.irfft2(a, s=(a.shape[-2], real_width), norm="forward")
    return np.fft.rfft2(a)


def fft2_adjoint(g: np.ndarray, crop=None) -> np.ndarray:
    """Adjoint of the (padded) forward DFT: F^H g, cropped to the input shape.

    Used by the autodiff tape; for a real primal input the real part of the
    result is the gradient. Operates on the trailing two axes.
    """
    out = _fft2_raw(np.asarray(g, dtype=np.complex128), inverse=True)
    if crop is not None:
        out = out[..., : crop[-2], : crop[-1]]
    return out
