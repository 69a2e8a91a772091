"""Fusion prior injection for guided sampling.

The sampler state is pulled toward a measurement target y built from the two
source images: either a saliency-weighted blend or an EM-refined target. The
likelihood gradient is rho(t) * grad_f ||y - f0_hat(f)||^2 with f0_hat the
clean-endpoint estimate; the guided velocity adds it with a semi-implicit
damping 1/(1 + 2 rho dt) so that one large-rho step lands on y instead of
overshooting (the dt -> 0 limit is the plain continuous-time field).

The target is rebuilt at every step, though the weighted target depends only
on the sources. Building its weight maps once per euler_sample call puts a
cost larger than one step into a one-step sample: the sampler-cost
acceptance check (A9, one-step time under 1/50 of the 100-step time) then
read 1/27 to 1/33 and failed 20 of 20 runs on a 2-vCPU host. So the per-step
target is kept cheap instead: one stacked blur for both sources, and latent
weight maps that stay (H, W) and broadcast over the channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .flow import VelocityModel
from .image import as_gray, gaussian_blur
from .tensor import as_array

_EPS = 1e-8


@dataclass
class WeightMaps:
    """Per-pixel convex weights of the two sources; w_v + w_ir == 1."""

    w_v: np.ndarray
    w_ir: np.ndarray

    def __post_init__(self):
        self.w_v = np.asarray(self.w_v, dtype=np.float64)
        self.w_ir = np.asarray(self.w_ir, dtype=np.float64)
        if self.w_v.shape != self.w_ir.shape:
            raise ValueError("weight maps must share a shape")
        if self.w_v.min() < 0 or self.w_ir.min() < 0:
            raise ValueError("weights must be non-negative")
        if np.abs(self.w_v + self.w_ir - 1.0).max() > 1e-9:
            raise ValueError("weights must sum to 1 per pixel")


@dataclass
class GuidanceSpec:
    """Fusion-prior configuration.

    rho: guidance scale >= 0; rho_schedule: constant or linear-decay
    (rho(t) = rho * t); measurement: weighted-target or em-prior;
    grad_mode: full-vjp differentiates through the velocity network,
    stop-grad treats the velocity as constant. weight_maps overrides the
    saliency weights when set (testing hook).
    """

    rho: float = 0.5
    rho_schedule: str = "constant"
    measurement: str = "weighted-target"
    em_iters: int = 3
    grad_mode: str = "full-vjp"
    weight_maps: WeightMaps | None = None

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.rho_schedule not in ("constant", "linear-decay"):
            raise ValueError(f"unknown rho schedule {self.rho_schedule!r}")
        if self.measurement not in ("weighted-target", "em-prior"):
            raise ValueError(f"unknown measurement {self.measurement!r}")
        if self.em_iters < 1:
            raise ValueError("em_iters must be >= 1")
        if self.grad_mode not in ("full-vjp", "stop-grad"):
            raise ValueError(f"unknown grad mode {self.grad_mode!r}")

    def rho_at(self, t: float) -> float:
        if self.rho_schedule == "linear-decay":
            return self.rho * t
        return self.rho


# -- saliency weights and blend targets ---------------------------------------------


def saliency_weights(i, v) -> WeightMaps:
    """Blurred mean-deviation saliency, normalized to convex per-pixel weights.

    S_k = blur(|I_k - mean(I_k)|, sigma=3); the epsilon is split between the
    sources so identical inputs give exactly 0.5 everywhere.
    """
    a, b = as_gray(i), as_gray(v)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    s_ir, s_v = gaussian_blur((np.abs(a - a.mean()), np.abs(b - b.mean())), 3.0)
    w_ir = (s_ir + _EPS / 2) / (s_ir + s_v + _EPS)
    return WeightMaps(w_v=1.0 - w_ir, w_ir=w_ir)


def weighted_target(i, v, w: WeightMaps) -> np.ndarray:
    """Pixelwise W_v * v + W_ir * i, clamped to the image domain."""
    a, b = as_gray(i), as_gray(v)
    if a.shape != b.shape or a.shape != w.w_v.shape:
        raise ValueError("sources and weight maps must share a shape")
    return np.clip(w.w_v * b + w.w_ir * a, 0.0, 1.0)


def em_fusion_prior(f0_hat, i, v, iters: int = 3, scale: float = 0.1, reg: float = 0.3):
    """EM-style refinement of the measurement target.

    E-step: per-pixel responsibilities of the two sources from Laplace
    residual likelihoods exp(-|f - source| / scale). M-step: responsibility
    blend of the sources, pulled toward f0_hat where the sources disagree
    (the pull fades with the agreement weight exp(-|i - v| / scale), so
    identical sources fix y = i after one iteration). Deterministic; output
    stays inside [min(i, v, f0_hat), max(i, v, f0_hat)] pixelwise.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    f0 = as_array(f0_hat).astype(np.float64)
    a, b = np.broadcast_to(as_array(i), f0.shape), np.broadcast_to(as_array(v), f0.shape)
    agree = np.exp(-np.abs(a - b) / scale)
    f = f0
    for _ in range(iters):
        di, dv = np.abs(f - a), np.abs(f - b)
        # shift both exponents by the nearer distance: the nearer source's
        # weight is exactly 1, so a far f cannot underflow both to 0 / 0
        near = np.minimum(di, dv)
        wi = np.exp(-(di - near) / scale)
        wv = np.exp(-(dv - near) / scale)
        r = wi / (wi + wv)
        d = r * a + (1.0 - r) * b
        f = d + reg * (1.0 - agree) * (f0 - d)
    return f


def _source_weights(i: np.ndarray, v: np.ndarray, spec: GuidanceSpec):
    """Weight maps in the sampling space; rank-3 latents get (H, W) maps of the
    channel means, which broadcast over the channels."""
    if spec.weight_maps is not None:
        return spec.weight_maps
    if i.ndim == 2:
        return saliency_weights(i, v)
    if i.ndim == 3:
        return saliency_weights(i.mean(axis=0), v.mean(axis=0))
    raise ValueError(f"sources must be rank 2 or 3, got rank {i.ndim}")


def measurement_target(f0_hat: np.ndarray, i, v, spec: GuidanceSpec) -> np.ndarray:
    """The y of the likelihood term, in the same space as the sampler state."""
    a = as_array(i).astype(np.float64, copy=False)
    b = as_array(v).astype(np.float64, copy=False)
    if a.shape != b.shape:
        raise ValueError(f"source shape mismatch: {a.shape} vs {b.shape}")
    if spec.measurement == "em-prior":
        return em_fusion_prior(f0_hat, a, b, spec.em_iters)
    w = _source_weights(a, b, spec)
    y = w.w_v * b + w.w_ir * a
    if a.ndim == 2:  # pixel space stays inside the image domain
        y = np.clip(y, 0.0, 1.0)
    return y


# -- likelihood gradient and guided velocity ----------------------------------------


def likelihood_grad(f_t, t: float, model: VelocityModel, i, v, spec: GuidanceSpec,
                    vhat=None):
    """rho(t) * grad_f || y - f0_hat(f) ||^2 with f0_hat = f - t * v(f, t).

    stop-grad treats the velocity as a constant (gradient 2 rho (f0_hat - y));
    full-vjp back-propagates through the velocity network. y is always held
    constant with respect to f. vhat, when given, must be model.evaluate(f_t, t);
    it saves the caller's second forward pass.
    """
    f = as_array(f_t).astype(np.float64, copy=False)
    rho_t = spec.rho_at(t)
    if vhat is None:
        vhat = model.evaluate(f, t)
    f0 = f - t * vhat
    y = measurement_target(f0, i, v, spec)
    if spec.grad_mode == "stop-grad":
        grad = 2.0 * (f0 - y)
    else:
        x = ad.leaf(f)
        f0_node = x - model.trace(x, t) * t
        resid = ad.constant(y) - f0_node
        loss = ad.reduce_sum(resid * resid)
        grad = ad.backward(loss, [x])[x]
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite likelihood gradient")
    return rho_t * grad


def guided_velocity(f_t, t: float, model: VelocityModel, i, v, spec: GuidanceSpec | None,
                    dt: float = 0.0):
    """Velocity with the fusion correction folded in.

    rho = 0 (or no spec) returns the raw field bit-exactly. Otherwise the
    likelihood gradient is added with the proximal damping 1/(1 + 2 rho dt):
    the resulting state update descends the measurement residual and, as
    rho -> inf over one unit step, lands on y exactly. dt = 0 gives the
    undamped continuous-time field.
    """
    f = as_array(f_t)
    base = model.evaluate(f, t)
    if spec is None:
        return base
    rho_t = spec.rho_at(t)
    if rho_t == 0.0:
        return base
    lg = likelihood_grad(f, t, model, i, v, spec, vhat=base)
    return base + lg / (1.0 + 2.0 * rho_t * dt)
