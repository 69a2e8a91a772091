"""Reverse-mode automatic differentiation over a fixed primitive set.

A dynamic tape: every operation allocates a Node holding the cached forward
value, references to its parents, and a vector-Jacobian closure. Graphs are
rebuilt per step; backward() walks the DAG in reverse topological order and
accumulates adjoints. Primitives:

    add, sub, mul, div, matmul, column concat, conv2d (stride 1|2),
    transposed conv2d, leaky_relu, tanh, exp, log1p, abs (subgradient 0 at 0),
    sum, mean, fft2 (complex, linear adjoint), complex magnitude, min-max
    normalize (per slice over the trailing two axes), clamp (identity inside
    the bounds, zero outside).

conv2d, transposed conv2d and fft2 take a leading batch axis, so a batch of
images runs as one graph. A vjp returns None for an operand that takes no
gradient, and backward skips it.

Complex gradients are packed as dL/dRe + i*dL/dIm, so chaining through the
linear DFT uses the conjugate-transposed transform exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fft as _fft


class Node:
    """One primitive application: cached value, parents, and a vjp closure."""

    __slots__ = ("value", "parents", "vjp", "op", "requires_grad")

    def __init__(self, value, parents=(), vjp=None, op="leaf", requires_grad=True):
        self.value = np.asarray(value)
        self.parents = tuple(parents)
        self.vjp = vjp
        self.op = op
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in self.parents
        )

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape})"

    # operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


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
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
        op="add",
    )


def sub(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    return Node(
        a.value - b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
        op="sub",
    )


def mul(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    return Node(
        a.value * b.value,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.value, a.shape),
            _unbroadcast(g * a.value, b.shape),
        ),
        op="mul",
    )


def div(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    return Node(
        a.value / b.value,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.value, a.shape),
            _unbroadcast(-g * a.value / (b.value * b.value), b.shape),
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


# -- convolutions --------------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    n, c, h, w = x.shape
    if pad:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad : pad + h, pad : pad + w] = x
        x, h, w = padded, h + 2 * pad, w + 2 * pad
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (n, c, kh, kw, oh, ow), (s0, s1, s2, s3, s2 * stride, s3 * stride)
    )
    return win.reshape(n, c * kh * kw, oh * ow), oh, ow


def _col2im(dcols: np.ndarray, xshape, kh: int, kw: int, stride: int, pad: int):
    n, c, h, w = xshape
    hp, wp = h + 2 * pad, w + 2 * pad
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    d6 = dcols.reshape(n, c, kh, kw, oh, ow)
    out = np.zeros((n, c, hp, wp))
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += d6[
                :, :, i, j
            ]
    return out[:, :, pad : pad + h, pad : pad + w] if pad else out


def conv2d(x, w, stride: int = 1, pad: int = 0) -> Node:
    """NCHW convolution (cross-correlation), weights (C_out, C_in, kh, kw)."""
    x, w = _wrap(x), _wrap(w)
    if stride not in (1, 2):
        raise ValueError(f"conv2d stride must be 1 or 2, got {stride}")
    n, c, h, wdt = x.value.shape
    cout, cin, kh, kw = w.value.shape
    if cin != c:
        raise ValueError(f"conv2d channel mismatch: input {c}, weight {cin}")
    cols, oh, ow = _im2col(x.value, kh, kw, stride, pad)
    wmat = w.value.reshape(cout, cin * kh * kw)
    out = np.matmul(wmat, cols).reshape(n, cout, oh, ow)
    if not w.requires_grad:
        cols = None  # only dw reads the windows; do not keep them with the graph

    def vjp(g):
        # no product for an operand that takes no gradient (backward skips None)
        gmat = g.reshape(n, cout, oh * ow)
        dx = (_col2im(np.matmul(wmat.T, gmat), x.value.shape, kh, kw, stride, pad)
              if x.requires_grad else None)
        dw = (np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.value.shape)
              if w.requires_grad else None)
        return dx, dw

    return Node(out, (x, w), vjp, op="conv2d")


def transposed_conv2d(x, w, stride: int, pad: int, out_hw) -> Node:
    """Adjoint of conv2d: upsamples (N, C_in, h, w) to (N, C_out, H, W).

    Weights are (C_in, C_out, kh, kw); out_hw pins the output spatial size
    (the adjoint geometry is ambiguous by stride-1 pixels otherwise).
    """
    x, w = _wrap(x), _wrap(w)
    if stride not in (1, 2):
        raise ValueError(f"transposed_conv2d stride must be 1 or 2, got {stride}")
    n, cin, h, wdt = x.value.shape
    wcin, cout, kh, kw = w.value.shape
    if wcin != cin:
        raise ValueError(f"transposed_conv2d channel mismatch: input {cin}, weight {wcin}")
    oh, ow = out_hw
    ohc = (oh + 2 * pad - kh) // stride + 1
    owc = (ow + 2 * pad - kw) // stride + 1
    if (ohc, owc) != (h, wdt):
        raise ValueError(
            f"transposed_conv2d geometry mismatch: input {h}x{wdt} cannot map to {oh}x{ow}"
        )
    wmat = w.value.reshape(cin, cout * kh * kw)
    xmat = x.value.reshape(n, cin, h * wdt)
    dcols = np.matmul(wmat.T, xmat)
    out = _col2im(dcols, (n, cout, oh, ow), kh, kw, stride, pad)

    def vjp(g):
        gcols, _, _ = _im2col(g, kh, kw, stride, pad)
        dx = np.matmul(wmat, gcols).reshape(x.value.shape)
        dw = np.matmul(xmat, gcols.transpose(0, 2, 1)).sum(axis=0).reshape(w.value.shape)
        return dx, dw

    return Node(out, (x, w), vjp, op="tconv2d")


# -- nonlinearities ------------------------------------------------------------------


def check_slope(alpha, what: str = "leaky_relu slope") -> float:
    """The slope as a float, if it lies in [0, 1] (see leaky_relu)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {alpha}")
    return float(alpha)


def leaky_relu(x, alpha: float = 0.2) -> Node:
    """max(x, alpha x) with slope alpha in [0, 1]; the gradient is 1 where
    x > 0 and alpha elsewhere. For such a slope the max equals the select
    where(x > 0, x, alpha x) bit for bit, signed zeros and NaN included, at a
    fraction of its cost. The one exception is alpha = 0 at x = +inf, where
    0 * inf makes the max NaN."""
    check_slope(alpha)
    x = _wrap(x)
    pos = x.value > 0
    y = alpha * x.value
    np.maximum(x.value, y, out=y)  # in place: a fresh output costs more than the max

    def vjp(g):
        slope = np.maximum(pos, alpha)
        return (np.multiply(g, slope, out=slope),)

    return Node(y, (x,), vjp, op="leaky_relu")


def tanh(x) -> Node:
    x = _wrap(x)
    y = np.tanh(x.value)
    return Node(y, (x,), lambda g: (g * (1.0 - y * y),), op="tanh")


def exp(x) -> Node:
    x = _wrap(x)
    y = np.exp(x.value)
    return Node(y, (x,), lambda g: (g * y,), op="exp")


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
    """Parents-first ordering of the DAG reachable from output (iterative DFS)."""
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
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(output: Node, wrt) -> dict:
    """Adjoints of a scalar output with respect to the requested nodes.

    Returns {node: gradient array}; forward values are left untouched.
    """
    if output.value.size != 1:
        raise ValueError(f"backward needs a scalar output, got shape {output.value.shape}")
    wrt = list(wrt)
    order = topo_order(output)
    in_graph = {id(n) for n in order}
    for node in wrt:
        if id(node) not in in_graph:
            raise ValueError("requested node is not part of the output's graph")
    adjoint = {id(output): np.ones_like(output.value, dtype=np.float64)}
    for node in reversed(order):
        g = adjoint.get(id(node))
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
