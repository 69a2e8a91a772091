"""Reverse-mode automatic differentiation over a fixed primitive set.

A dynamic tape: every operation allocates a Node holding the cached forward
value, references to its parents, and a vector-Jacobian closure. Graphs are
rebuilt per step; backward() walks the DAG in reverse topological order and
accumulates adjoints, dropping each one once its node's vjp has used it, so
a backward holds the adjoints of a graph's frontier, not of all its nodes.
Primitives:

    add, sub, mul, div, matmul, column concat, reshape, conv2d (stride 1|2)
    and its adjoint transposed conv2d, each with an optional bias and leaky
    slope, band_filter (a fixed separable valid-mode window), leaky_relu,
    tanh, log1p, abs (subgradient 0 at 0), sum, mean, fft2 (complex, linear
    adjoint), complex magnitude, min-max normalize (per slice over the
    trailing two axes), clamp (identity inside the bounds, zero outside).

conv2d, transposed conv2d and fft2 take a leading batch axis, so a batch of
images runs as one graph. transposed conv2d runs conv2d's kernels in reverse:
its forward is conv2d's input gradient, and its input gradient conv2d's forward.
conv2d serves the learned layers: convolution, bias and leaky slope as one
node that holds one array, with the bits of the three separate ops (see
conv2d). A fixed window, such as a
loss's SSIM or Sobel filter, is a band_filter: image.correlate1d's band
products over the last two axes of any stack, so the loss filters with the
metrics' matrices.

A leaf takes a gradient and a constant does not; an op node takes one iff
one of its parents does. So a graph over frozen parameters or fixed data,
such as a frozen encoder or the statistics of a constant image, carries no
gradient, and backward walks only the nodes that do. A vjp returns None for
an operand that takes no gradient, and backward skips it.

Complex gradients are packed as dL/dRe + i*dL/dIm, so chaining through the
linear DFT uses the conjugate-transposed transform exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fft as _fft
from .image import correlate1d


class Node:
    """One primitive application: cached value, parents, and a vjp closure."""

    __slots__ = ("value", "parents", "vjp", "op", "requires_grad")
    # numpy defers to the reflected operators: array * node is a node, not an object array
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None, op="leaf", requires_grad=False):
        self.value = np.asarray(value)
        self.parents = tuple(parents)
        self.vjp = vjp
        self.op = op
        # an op node takes a gradient iff a parent does; only a node without
        # parents (leaf or constant) says so itself
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in self.parents
        )
        if not self.requires_grad:
            # no backward walks through it: holding the parents and the vjp's
            # captured arrays would keep a forward-only graph's intermediates alive
            self.parents, self.vjp = (), None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape})"

    # operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)


def leaf(value) -> Node:
    return Node(np.asarray(value, dtype=np.float64), op="leaf", requires_grad=True)


def constant(value) -> Node:
    return Node(np.asarray(value), op="const", requires_grad=False)


def _wrap(x) -> Node:
    if isinstance(x, Node):
        return x
    return constant(np.asarray(x, dtype=np.float64))


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic -----------------------------------------------------


def add(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    return Node(
        a.value + b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                   _unbroadcast(g, b.shape) if b.requires_grad else None),
        op="add",
    )


def sub(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    return Node(
        a.value - b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                   _unbroadcast(-g, b.shape) if b.requires_grad else None),
        op="sub",
    )


def mul(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    return Node(
        a.value * b.value,
        (a, b),
        lambda g: (_unbroadcast(g * b.value, a.shape) if a.requires_grad else None,
                   _unbroadcast(g * a.value, b.shape) if b.requires_grad else None),
        op="mul",
    )


def div(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    return Node(
        a.value / b.value,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.value, a.shape) if a.requires_grad else None,
            _unbroadcast(-g * a.value / (b.value * b.value), b.shape)
            if b.requires_grad else None,
        ),
        op="div",
    )


# -- linear algebra ---------------------------------------------------------------


def matmul(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    return Node(
        a.value @ b.value,
        (a, b),
        # no product for an operand that takes no gradient (backward skips None)
        lambda g: (g @ b.value.T if a.requires_grad else None,
                   a.value.T @ g if b.requires_grad else None),
        op="matmul",
    )


def concat_cols(a, b) -> Node:
    """[a | b]: 2-D operands with equal row counts, joined along columns."""
    a, b = _wrap(a), _wrap(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("concat_cols expects 2-D operands")
    if a.value.shape[0] != b.value.shape[0]:
        raise ValueError(f"concat_cols row mismatch: {a.value.shape[0]} vs {b.value.shape[0]}")
    split = a.value.shape[1]
    return Node(
        np.concatenate([a.value, b.value], axis=1),
        (a, b),
        lambda g: (g[:, :split], g[:, split:]),
        op="concat",
    )


def reshape(x, shape) -> Node:
    """x's values in a new shape of the same size, -1 allowed as in numpy.
    A shape equal to x's returns x itself and adds no node."""
    x = _wrap(x)
    y = x.value.reshape(shape)
    if y.shape == x.shape:
        return x
    return Node(y, (x,), lambda g: (g.reshape(x.shape),), op="reshape")


# -- convolutions --------------------------------------------------------------------
# conv2d and transposed_conv2d are built from the three kernels below. Each
# picks its formula by geometry alone, so that a graph that trains and one that
# only infers compute the same bits. A kernel's pad is a (rows, cols) pair.


def _padded(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """x with ph rows and pw columns of zeros on each side of its two spatial
    axes; x itself when both are 0."""
    if not (ph or pw):
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    out[:, :, ph : ph + h, pw : pw + w] = x
    return out


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad):
    """Windows of x after pad zeros as (n, c·kh·kw, oh·ow), and oh, ow. The
    padded copy is freed on return: only the windows are kept."""
    x = _padded(x, *pad)
    n, c, h, w = x.shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (n, c, kh, kw, oh, ow), (s0, s1, s2, s3, s2 * stride, s3 * stride))
    return win.reshape(n, c * kh * kw, oh * ow), oh, ow


def _check_conv(op: str, x: Node, w: Node, stride: int, pad: int, w_in: int) -> None:
    """Raise a ValueError naming op unless stride is 1 or 2, x and w are 4-D,
    w's axis w_in matches x's channels, and 0 <= pad < min(kh, kw)."""
    if stride not in (1, 2):
        raise ValueError(f"{op} stride must be 1 or 2, got {stride}")
    if x.value.ndim != 4 or w.value.ndim != 4:
        raise ValueError(f"{op} expects a 4-D input and weight, got shapes {x.shape} and "
                         f"{w.shape}")
    if w.shape[w_in] != x.shape[1]:
        raise ValueError(f"{op} channel mismatch: input {x.shape[1]}, weight {w.shape[w_in]}")
    kh, kw = w.shape[2:]
    if not 0 <= pad < min(kh, kw):
        raise ValueError(f"{op} pad must be in [0, {min(kh, kw)}) for a {kh}x{kw} kernel, "
                         f"got {pad}")


def _conv_forward(x: np.ndarray, w: np.ndarray, stride: int, pad):
    """Cross-correlation of x (n, C_in, H, W) with w (C_out, C_in, kh, kw)
    after pad zeros, as (output, windows): windows are the im2col rows when
    this formula built them, else None. Two formulas:

    - stride 1 and C_out < C_in: weights first. One GEMM of the
      (kh·kw·C_out, C_in) tap weights by the padded input gives kh·kw tap
      planes of C_out channels, summed into the output by shifted-slice
      adds in row-major tap order;
    - otherwise: im2col, one GEMM of the (C_out, C_in·kh·kw) weights by the
      C_in·kh·kw rows of input windows.

    The buffer each builds has C_out·k² rows for weights first against
    C_in·k² for im2col, so weights first is taken where C_out < C_in: for
    the encoder's 64 -> 4 latent layer 36 rows against 576, and no 4.7 MB
    window matrix at 128 px. At stride 2 the tap planes would cover every
    input pixel while the output keeps one in four, so three quarters of
    their taps would be wasted, and im2col stays."""
    cout, cin, kh, kw = w.shape
    if stride == 1 and cout < cin:
        xp = _padded(x, *pad)
        n, _, hp, wp = xp.shape
        oh, ow = hp - kh + 1, wp - kw + 1
        taps = w.transpose(2, 3, 0, 1).reshape(kh * kw * cout, cin)
        planes = np.matmul(taps, xp.reshape(n, cin, hp * wp)).reshape(n, kh, kw, cout, hp, wp)
        out = planes[:, 0, 0, :, :oh, :ow].copy()
        for i in range(kh):
            for j in range(kw):
                if i or j:
                    out += planes[:, i, j, :, i : i + oh, j : j + ow]
        return out, None
    cols, oh, ow = _im2col(x, kh, kw, stride, pad)
    return np.matmul(w.reshape(cout, cin * kh * kw), cols).reshape(len(x), cout, oh, ow), cols


def _conv_input_grad(g: np.ndarray, w: np.ndarray, stride: int, pad, xshape) -> np.ndarray:
    """The gradient of _conv_forward with respect to its input of shape
    xshape, for the output gradient g (n, C_out, oh, ow). Two formulas:

    - stride 1 and C_out <= C_in: the correlation of g, padded by
      (kh-1-pad, kw-1-pad), with the kernel flipped in both spatial axes and
      its channel axes swapped. That is _conv_forward, which takes im2col
      here (C_in outputs from C_out inputs): C_out·kh·kw rows and one GEMM;
    - otherwise (stride 2, or C_out > C_in): one GEMM into C_in·kh·kw rows of
      windows, scattered back onto the padded input by kh·kw strided adds.

    Each formula's cost is the rows of pixels it builds and moves: C_out·k²
    for the correlation, C_in·k² plus the adds for the scatter. So the
    correlation is taken where C_out <= C_in. At stride 2 it would have to
    correlate an output gradient with zeros between its pixels, four times
    the work, so the scatter stays; pad < min(kh, kw) keeps the correlation's
    padding at zero or more."""
    cout, cin, kh, kw = w.shape
    if stride == 1 and cout <= cin:
        flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _conv_forward(g, flipped, 1, (kh - 1 - pad[0], kw - 1 - pad[1]))[0]
    (n, _, oh, ow), (h, wd), (ph, pw) = g.shape, xshape[2:], pad
    d6 = np.matmul(w.reshape(cout, -1).T, g.reshape(n, cout, -1)).reshape(n, cin, kh, kw, oh, ow)
    out = np.zeros((n, cin, h + 2 * ph, wd + 2 * pw))
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += d6[:, :, i, j]
    return out[:, :, ph : ph + h, pw : pw + wd]


def _conv_weight_grad(g: np.ndarray, x: np.ndarray, wshape, stride: int, pad,
                      windows=None) -> np.ndarray:
    """The gradient of _conv_forward with respect to its weight of shape
    wshape: the output gradient g against the windows of the input x. The
    windows are C_in·kh·kw times the input's size, so no forward keeps them:
    they are built here from x, inside a vjp, unless the caller has just built
    them itself (transposed_conv2d's dx), and a graph that runs no backward
    never builds them."""
    cout, _, kh, kw = wshape
    if windows is None:
        windows = _im2col(x, kh, kw, stride, pad)[0]
    return np.matmul(g.reshape(len(g), cout, -1), windows.swapaxes(1, 2)).sum(0).reshape(wshape)


def _layer(op: str, out: np.ndarray, x: Node, w: Node, bias: Node | None, slope,
           grads) -> Node:
    """One layer as one node: out, the kernels' result from x and w with bias
    already added, takes the leaky slope, and the node holds that one array.
    grads(g) gives (dx, dw) for the gradient g that reaches the kernels."""
    if slope is not None:
        # a fresh array, as the separate ops made, and out is freed: a slope
        # applied in place frees its temporary above out, at the heap top,
        # which glibc then trims and the next call faults in again
        out = _leaky_max(out, check_slope(slope))

    def vjp(g):
        if slope is not None:
            g = _leaky_grad(g, out, slope)  # y > 0 iff x > 0 (see leaky_relu)
        if bias is None:
            return grads(g)
        # no sum for a bias that takes no gradient (backward skips None)
        return (*grads(g), _unbroadcast(g, bias.shape) if bias.requires_grad else None)

    return Node(out, (x, w) if bias is None else (x, w, bias), vjp, op=op)


def conv2d(x, w, stride: int = 1, pad: int = 0, bias=None, slope=None) -> Node:
    """NCHW convolution (cross-correlation), weights (C_out, C_in, kh, kw).

    pad zeros on each side, 0 <= pad < min(kh, kw), and the padded input
    must hold at least one kernel window. The forward, input gradient and
    weight gradient are _conv_forward, _conv_input_grad and _conv_weight_grad;
    the node keeps no im2col windows, so dw builds them in the vjp.

    With bias, and slope in [0, 1], the node is leaky_relu(conv2d + bias,
    slope) bit for bit in value and gradients, as one node that holds one
    array: the convolution's and the bias sum's arrays are freed, and the vjp
    takes the slope mask from the output's sign, which is its input's. The
    one exception is leaky_relu's: slope 0 at +inf, whose output is NaN and
    takes gradient 0 here, 1 there. bias is a (C_out, 1, 1) array or any
    other shape that broadcasts against the output."""
    x, w = _wrap(x), _wrap(w)
    _check_conv("conv2d", x, w, stride, pad, 1)
    (_, _, h, wdt), (_, _, kh, kw) = x.shape, w.shape
    if h + 2 * pad < kh or wdt + 2 * pad < kw:
        raise ValueError(f"conv2d input {x.shape} padded by {pad} is smaller than the kernel "
                         f"{w.shape}")
    pads = (pad, pad)
    out = _conv_forward(x.value, w.value, stride, pads)[0]
    if bias is not None:
        bias = _wrap(bias)
        out = out + bias.value

    def grads(g):
        return (_conv_input_grad(g, w.value, stride, pads, x.shape) if x.requires_grad else None,
                _conv_weight_grad(g, x.value, w.shape, stride, pads) if w.requires_grad else None)

    return _layer("conv2d", out, x, w, bias, slope, grads)


def transposed_conv2d(x, w, stride: int, pad: int, out_hw, bias=None, slope=None) -> Node:
    """Adjoint of conv2d: upsamples (N, C_in, h, w) to (N, C_out, H, W).

    Weights are (C_in, C_out, kh, kw), the layout of the conv2d it is the
    adjoint of; out_hw pins the output spatial size (the adjoint geometry is
    ambiguous by stride-1 pixels otherwise). Its forward is that conv2d's input
    gradient and its input gradient that conv2d's forward, on the same kernels;
    its weight gradient is _conv_weight_grad with x and g swapped, on the
    windows of g that the vjp's dx has just built. bias and slope are as in
    conv2d."""
    x, w = _wrap(x), _wrap(w)
    _check_conv("transposed_conv2d", x, w, stride, pad, 0)
    (n, _, h, wdt), (_, cout, kh, kw) = x.shape, w.shape
    oh, ow = out_hw
    if ((oh + 2 * pad - kh) // stride + 1, (ow + 2 * pad - kw) // stride + 1) != (h, wdt):
        raise ValueError(f"transposed_conv2d geometry mismatch: input {h}x{wdt} cannot map to "
                         f"{oh}x{ow}")
    pads = (pad, pad)
    out = _conv_input_grad(x.value, w.value, stride, pads, (n, cout, oh, ow))
    if bias is not None:
        bias = _wrap(bias)
        out = out + bias.value  # and the scatter's padded buffer is freed

    def grads(g):
        dx, win = _conv_forward(g, w.value, stride, pads) if x.requires_grad else (None, None)
        return dx, (_conv_weight_grad(x.value, g, w.shape, stride, pads, win)
                    if w.requires_grad else None)

    return _layer("tconv2d", out, x, w, bias, slope, grads)


def band_filter(x, k_rows, k_cols) -> Node:
    """Valid-mode correlation of the last two axes of x with the fixed window
    outer(k_rows, k_cols): image.correlate1d with k_rows down the rows, then
    with k_cols along them. Leading axes are a stack.

    The filter is M_r @ x @ M_c.T for the valid band matrices of the taps, so
    its vjp is M_r.T @ g @ M_c: correlate1d's full mode with the taps
    reversed, on the same band tiles, never a dense band."""
    x = _wrap(x)
    k_rows, k_cols = (np.asarray(k, dtype=np.float64) for k in (k_rows, k_cols))
    if x.value.ndim < 2 or x.shape[-2] < len(k_rows) or x.shape[-1] < len(k_cols):
        raise ValueError(f"band_filter input {x.shape} is smaller than the kernel "
                         f"{len(k_rows)}x{len(k_cols)}")
    out = correlate1d(correlate1d(x.value, k_rows, -2), k_cols, -1)
    return Node(out, (x,), lambda g: (correlate1d(correlate1d(g, k_rows[::-1], -2, "full"),
                                                  k_cols[::-1], -1, "full"),), op="band_filter")


# -- nonlinearities ------------------------------------------------------------------


def check_slope(alpha, what: str = "leaky_relu slope") -> float:
    """The slope as a float, if it lies in [0, 1] (see leaky_relu)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {alpha}")
    return float(alpha)


def _leaky_max(x: np.ndarray, alpha: float) -> np.ndarray:
    """max(x, alpha x) as a fresh array: the slope of leaky_relu and of the
    conv layers."""
    y = alpha * x
    return np.maximum(x, y, out=y)  # in place: a fresh output costs more than the max


def _leaky_grad(g: np.ndarray, x: np.ndarray, alpha: float) -> np.ndarray:
    """g times the leaky slope's derivative at x: 1 where x > 0, alpha
    elsewhere. The mask is built here, in the vjp, so a graph that runs no
    backward skips it."""
    slope = np.maximum(x > 0, alpha)
    return np.multiply(g, slope, out=slope)


def leaky_relu(x, alpha: float = 0.2) -> Node:
    """max(x, alpha x) with slope alpha in [0, 1]; the gradient is 1 where
    x > 0 and alpha elsewhere. For such a slope the max equals the select
    where(x > 0, x, alpha x) bit for bit, signed zeros and NaN included, at a
    fraction of its cost, and y > 0 exactly where x > 0, so the conv layers'
    fused slope takes its mask from their output. The one exception is
    alpha = 0 at x = +inf, where 0 * inf makes the max NaN."""
    check_slope(alpha)
    x = _wrap(x)
    return Node(_leaky_max(x.value, alpha), (x,), lambda g: (_leaky_grad(g, x.value, alpha),),
                op="leaky_relu")


def tanh(x) -> Node:
    x = _wrap(x)
    y = np.tanh(x.value)
    return Node(y, (x,), lambda g: (g * (1.0 - y * y),), op="tanh")


def log1p(x) -> Node:
    x = _wrap(x)
    if np.any(x.value <= -1.0):
        raise ValueError("log1p requires inputs > -1")
    return Node(np.log1p(x.value), (x,), lambda g: (g / (1.0 + x.value),), op="log1p")


def absolute(x) -> Node:
    x = _wrap(x)
    return Node(np.abs(x.value), (x,), lambda g: (g * np.sign(x.value),), op="abs")


def clamp(x, lo: float, hi: float) -> Node:
    """Clamp with the exact subgradient: identity inside [lo, hi], zero outside."""
    x = _wrap(x)
    inside = (x.value >= lo) & (x.value <= hi)
    return Node(
        np.clip(x.value, lo, hi), (x,), lambda g: (g * inside,), op="clamp"
    )


# -- reductions --------------------------------------------------------------------


def reduce_sum(x) -> Node:
    x = _wrap(x)
    return Node(
        np.asarray(x.value.sum()),
        (x,),
        lambda g: (np.broadcast_to(g, x.shape).astype(np.float64),),
        op="sum",
    )


def reduce_mean(x) -> Node:
    x = _wrap(x)
    size = x.value.size
    return Node(
        np.asarray(x.value.mean()),
        (x,),
        lambda g: (np.broadcast_to(g / size, x.shape).astype(np.float64),),
        op="mean",
    )


# -- spectral and normalization ops ---------------------------------------------------


def fft2(x) -> Node:
    """2-D DFT over the trailing two axes of a real node; complex output on the
    next-power-of-two padded grid. Leading axes are batch."""
    x = _wrap(x)
    if x.value.ndim < 2:
        raise ValueError("fft2 node expects at least 2-D input")
    if not np.all(np.isfinite(x.value)):
        raise ValueError("fft2 input contains non-finite values")
    shape = x.value.shape
    spec = _fft._fft2_raw(_fft._pad_pow2(x.value.astype(np.complex128)), inverse=False)

    def vjp(g):
        adj = _fft.fft2_adjoint(g, crop=shape)
        return (adj.real if not np.iscomplexobj(x.value) else adj,)

    return Node(spec, (x,), vjp, op="fft2")


def complex_magnitude(z) -> Node:
    z = _wrap(z)
    mag = np.abs(z.value)

    def vjp(g):
        safe = np.where(mag > 0, mag, 1.0)
        return (np.where(mag > 0, g * z.value / safe, 0.0),)

    return Node(mag, (z,), vjp, op="cmag")


def minmax_normalize(x) -> Node:
    """(x - min) / (max - min) per slice over the trailing two axes.

    Leading axes are batch: each (H, W) slice is normalized on its own, and a
    2-D input is one slice. A range within rounding of the values (at most 64
    ulps of the larger bound's magnitude) counts as constant and gives all
    zeros for that slice: normalizing rounding noise would spread it over the
    full [0, 1] range.
    """
    x = _wrap(x)
    v = x.value
    flat = v.reshape(-1, math.prod(v.shape[-2:]))  # one row per slice
    lo = flat.min(axis=1, keepdims=True)
    hi = flat.max(axis=1, keepdims=True)
    r = hi - lo
    flat_slice = (r <= 64 * np.finfo(np.float64).eps * np.maximum(abs(lo), abs(hi)))[:, 0]
    r[flat_slice] = 1.0  # its rows are zeroed below; this only avoids 0 / 0
    y = (flat - lo) / r
    y[flat_slice] = 0.0
    rows = np.arange(len(flat))
    imin, imax = flat.argmin(axis=1), flat.argmax(axis=1)

    def vjp(g):
        g = g.reshape(flat.shape)
        s1 = g.sum(axis=1)
        s2 = (g * y).sum(axis=1)
        dx = g / r
        dx[rows, imin] += (s2 - s1) / r[:, 0]
        dx[rows, imax] -= s2 / r[:, 0]
        dx[flat_slice] = 0.0
        return (dx.reshape(v.shape),)

    return Node(y.reshape(v.shape), (x,), vjp, op="minmax")


# -- backward pass ---------------------------------------------------------------------


def topo_order(output: Node) -> list[Node]:
    """Parents-first ordering of the nodes that take a gradient and reach
    output (iterative DFS). Every path from such a node to output passes only
    through such nodes, so no gradient is lost by not entering the others."""
    order, seen = [], set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(output: Node, wrt) -> dict:
    """Adjoints of a scalar output with respect to the requested nodes.

    Every requested node must take a gradient and be part of output's graph.
    Returns {node: gradient array}; forward values are left untouched. Any
    other node's adjoint is dropped as soon as its vjp has run.
    """
    if output.value.size != 1:
        raise ValueError(f"backward needs a scalar output, got shape {output.value.shape}")
    wrt = list(wrt)
    for node in wrt:
        if not node.requires_grad:
            raise ValueError(f"requested node {node!r} takes no gradient")
    order = topo_order(output)
    in_graph = {id(n) for n in order}
    for node in wrt:
        if id(node) not in in_graph:
            raise ValueError("requested node is not part of the output's graph")
    adjoint = {id(output): np.ones_like(output.value, dtype=np.float64)}
    keep = {id(n) for n in wrt}
    for node in reversed(order):
        # parents come later in reverse topological order, so no node reads
        # this adjoint after its vjp: drop it, unless it is asked for
        g = adjoint.get(id(node)) if id(node) in keep else adjoint.pop(id(node), None)
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if not parent.requires_grad or pg is None:
                continue
            acc = adjoint.get(id(parent))
            adjoint[id(parent)] = pg if acc is None else acc + pg
    grads = {}
    for node in wrt:
        g = adjoint.get(id(node))
        if g is None:
            g = np.zeros_like(node.value, dtype=np.float64)
        grads[node] = np.asarray(g, dtype=np.float64).reshape(node.value.shape)
    return grads


# -- numerical gradient check ------------------------------------------------------------


@dataclass
class GradCheckReport:
    ok: bool
    worst: float
    tolerance: float
    inputs: dict = field(default_factory=dict)  # name -> {max_rel, checked, kinks}

    def __str__(self):
        lines = [f"gradient check: {'PASS' if self.ok else 'FAIL'} "
                 f"(worst {self.worst:.3e}, tol {self.tolerance:.1e})"]
        for name, d in self.inputs.items():
            lines.append(
                f"  {name}: max_rel {d['max_rel']:.3e} over {d['checked']} coords"
                + (f", {len(d['kinks'])} kink(s) excluded" if d["kinks"] else "")
            )
        return "\n".join(lines)


def check_gradients(
    fn,
    inputs: dict,
    tolerance: float = 1e-4,
    step: float = 1e-5,
    sample: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare backward() against central finite differences.

    fn maps {name: Node} to a scalar Node and must be pure. Coordinates where
    the left and right one-sided differences disagree (a kink of abs / clamp /
    leaky_relu / min-max ties) are excluded from the comparison and reported.
    When sample is given, at most that many coordinates per input are checked
    (deterministic choice per seed).
    """
    values = {k: np.asarray(v, dtype=np.float64) for k, v in inputs.items()}

    def evaluate(vals):
        leaves = {k: leaf(v) for k, v in vals.items()}
        out = fn(leaves)
        if out.value.size != 1:
            raise ValueError("check_gradients needs a scalar-valued graph")
        return out, leaves

    out, leaves = evaluate(values)
    grads = backward(out, [leaves[k] for k in values])
    grads = {k: grads[leaves[k]] for k in values}
    f0 = float(out.value)

    rng = np.random.default_rng(seed)
    report = GradCheckReport(ok=True, worst=0.0, tolerance=tolerance)
    for name, base in values.items():
        n = base.size
        coords = np.arange(n)
        if sample is not None and n > sample:
            coords = np.sort(rng.choice(n, size=sample, replace=False))
        max_rel, kinks = 0.0, []
        for idx in coords:
            orig = base.flat[idx]
            base.flat[idx] = orig + step
            fp = float(evaluate(values)[0].value)
            base.flat[idx] = orig - step
            fm = float(evaluate(values)[0].value)
            base.flat[idx] = orig
            d_c = (fp - fm) / (2.0 * step)
            d_l = (f0 - fm) / step
            d_r = (fp - f0) / step
            # one-sided slopes disagreeing by more than the comparison could
            # tolerate marks a nondifferentiable point inside [x-h, x+h]
            if abs(d_r - d_l) > 0.5 * tolerance * max(1.0, abs(d_c)):
                kinks.append(int(idx))
                continue
            g = grads[name].flat[idx]
            rel = abs(g - d_c) / max(abs(g), abs(d_c), 1.0)
            max_rel = max(max_rel, rel)
        report.inputs[name] = {"max_rel": max_rel, "checked": len(coords) - len(kinks),
                               "kinks": kinks}
        report.worst = max(report.worst, max_rel)
    report.ok = report.worst <= tolerance
    return report
