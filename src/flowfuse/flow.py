"""Straight-path flow core: linear interpolation between data and noise, the
constant velocity target, its regression loss, deterministic Euler sampling,
and a closed-form Gaussian velocity oracle for verification.

Time runs from t=1 (noise side) down to t=0 (data side). Along the straight
path x_t = (1-t) x0 + t eps the true velocity is the constant eps - x0, which
is what makes one-step Euler exact once the field is straight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .optim import ParamSet
from .tensor import Tensor, as_array


# -- sampling schedule ------------------------------------------------------------


@dataclass(frozen=True)
class SampleSchedule:
    """Strictly decreasing time grid from exactly 1.0 to exactly 0.0."""

    times: tuple

    def __init__(self, times):
        times = tuple(float(t) for t in times)
        if len(times) < 2 or times[0] != 1.0 or times[-1] != 0.0:
            raise ValueError("schedule must start at 1.0 and end at 0.0")
        if any(nxt >= prv for prv, nxt in zip(times[:-1], times[1:])):
            raise ValueError("schedule must be strictly decreasing")
        object.__setattr__(self, "times", times)

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @staticmethod
    def uniform(steps: int) -> "SampleSchedule":
        if steps < 1:
            raise ValueError("steps must be >= 1")
        return SampleSchedule([1.0 - k / steps for k in range(steps)] + [0.0])


# -- velocity models ------------------------------------------------------------------


class VelocityModel:
    """Velocity field v(x, t). Kinds:

    constant(c)              -- v = c everywhere (straight-field test model)
    analytic_gaussian(mu0, sigma0)
                             -- exact conditional-expectation velocity for
                                x0 ~ N(mu0, sigma0^2), eps ~ N(0, 1), elementwise
    mlp(dim, hidden)         -- small trainable network; t is appended to the
                                flattened state as an extra input feature
    """

    def __init__(self, kind, params=None, **meta):
        self.kind = kind
        self.params = params
        self.meta = meta

    # constructors ---------------------------------------------------------

    @staticmethod
    def constant(c: float) -> "VelocityModel":
        return VelocityModel("constant", None, c=float(c))

    @staticmethod
    def analytic_gaussian(mu0: float, sigma0: float) -> "VelocityModel":
        if sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        return VelocityModel("analytic-gaussian", None, mu0=float(mu0), sigma0=float(sigma0))

    @staticmethod
    def mlp(dim: int, hidden=(128, 128), alpha: float = 0.2, seed: int = 0) -> "VelocityModel":
        alpha = ad.check_slope(alpha, "leaky slope alpha")
        rng = np.random.default_rng(seed)
        widths = [dim + 1, *hidden, dim]
        params = {}
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            params[f"w{i}"] = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
            params[f"b{i}"] = np.zeros(fan_out)
        return VelocityModel(
            "mlp", ParamSet(params), dim=int(dim), hidden=tuple(hidden), alpha=alpha
        )

    def with_params(self, params: ParamSet) -> "VelocityModel":
        return VelocityModel(self.kind, params, **self.meta)

    # evaluation -----------------------------------------------------------

    def _mlp_batch(self, x: np.ndarray):
        """View the state as (B, dim) rows plus the inverse reshaper."""
        dim = self.meta["dim"]
        if x.ndim >= 1 and x.shape[-1] == dim:
            lead = x.shape[:-1]
            return x.reshape(-1, dim), lambda out: out.reshape(*lead, dim)
        if x.size == dim:
            shape = x.shape
            return x.reshape(1, dim), lambda out: out.reshape(shape)
        raise ValueError(f"state of shape {x.shape} does not match model dim {dim}")

    def evaluate(self, x, t) -> np.ndarray:
        """Pure numpy forward; deterministic, output shape equals input shape."""
        x = as_array(x)
        if self.kind == "constant":
            return np.full_like(x, self.meta["c"])
        if self.kind == "analytic-gaussian":
            # the posterior-mean form is continuous at t = 1 (v = x - mu0 there),
            # so sampling from the t = 1 grid point is fine
            return _gaussian_velocity(self.meta["mu0"], self.meta["sigma0"], x, float(t))
        rows, unshape = self._mlp_batch(x)
        tcol = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1, 1), (rows.shape[0], 1))
        h = np.concatenate([rows, tcol], axis=1)
        n_layers = len(self.meta["hidden"]) + 1
        for i in range(n_layers):
            h = h @ self.params[f"w{i}"]
            h += self.params[f"b{i}"]
            if i < n_layers - 1:
                np.maximum(h, self.meta["alpha"] * h, out=h)  # ad.leaky_relu's forward
        return unshape(h)

    def __call__(self, x, t) -> np.ndarray:
        return self.evaluate(x, t)

    def trace(self, x_node: ad.Node, t, param_nodes=None) -> ad.Node:
        """Tape forward of the same field, for vector-Jacobian products.

        param_nodes, when given, maps parameter names to leaves (training);
        otherwise parameters enter as constants (state-gradient only).
        """
        if self.kind == "constant":
            return ad.constant(np.full(x_node.value.shape, self.meta["c"])) + x_node * 0.0
        if self.kind == "analytic-gaussian":
            return _gaussian_velocity(self.meta["mu0"], self.meta["sigma0"], x_node, float(t))
        dim = self.meta["dim"]
        if x_node.value.ndim != 2 or x_node.value.shape[1] != dim:
            raise ValueError(f"trace expects a (batch, {dim}) node, got {x_node.value.shape}")
        b = x_node.value.shape[0]
        tcol = ad.constant(np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1, 1), (b, 1)))
        h = ad.concat_cols(x_node, tcol)
        n_layers = len(self.meta["hidden"]) + 1
        get = (lambda k: param_nodes[k]) if param_nodes is not None else (
            lambda k: ad.constant(self.params[k]))
        for i in range(n_layers):
            h = ad.matmul(h, get(f"w{i}")) + get(f"b{i}")
            if i < n_layers - 1:
                h = ad.leaky_relu(h, self.meta["alpha"])
        return h


# -- analytic Gaussian oracle ------------------------------------------------------


def _gaussian_velocity(mu0: float, sigma0: float, x, t: float):
    """The closed form of analytic_gaussian_velocity, on an array or a tape node."""
    m = (1.0 - t) * mu0
    s2 = (1.0 - t) ** 2 * sigma0 * sigma0 + t * t
    return (t - (1.0 - t) * sigma0 * sigma0) / s2 * (x - m) - mu0


def analytic_gaussian_velocity(mu0: float, sigma0: float, x, t: float) -> np.ndarray:
    """E[eps - x0 | x_t = x] for x0 ~ N(mu0, sigma0^2), eps ~ N(0,1) independent.

    With m(t) = (1-t) mu0 and s^2(t) = (1-t)^2 sigma0^2 + t^2, the posterior
    means of eps and x0 are linear in (x - m), giving
    v(x, t) = (t - (1-t) sigma0^2) / s^2 * (x - m) - mu0.
    """
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must be in [0, 1), got {t}")
    return _gaussian_velocity(mu0, sigma0, as_array(x), t)


# -- training loss ---------------------------------------------------------------------


def rf_loss(model: VelocityModel, x0_batch, eps_batch, t_batch):
    """Mean squared error || v(x_t, t) - (eps - x0) ||^2 over the batch.

    Returns (loss, gradient map by parameter name); the map is empty for
    parameterless model kinds.
    """
    x0 = np.atleast_2d(as_array(x0_batch))
    eps = np.atleast_2d(as_array(eps_batch))
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch: {x0.shape} vs {eps.shape}")
    t = np.asarray(t_batch, dtype=np.float64).reshape(-1)
    if t.shape[0] != x0.shape[0]:
        raise ValueError("one t per batch row required")
    if np.any(t >= 1.0) or np.any(t < 0.0):
        raise ValueError("t must lie in [0, 1); t = 1 is the path pole")
    xt = (1.0 - t)[:, None] * x0 + t[:, None] * eps
    target = eps - x0
    if model.kind == "constant":
        return float(np.mean((np.full_like(xt, model.meta["c"]) - target) ** 2)), {}
    if model.kind == "analytic-gaussian":
        v = np.stack([model.evaluate(xt[i], float(t[i])) for i in range(t.size)])
        return float(np.mean((v - target) ** 2)), {}
    param_nodes = {k: ad.leaf(model.params[k]) for k in model.params.names()}
    v_node = model.trace(ad.constant(xt), t, param_nodes)
    diff = v_node - ad.constant(target)
    loss_node = ad.reduce_mean(diff * diff)
    grads = ad.backward(loss_node, list(param_nodes.values()))
    return float(loss_node.value), {k: grads[n] for k, n in param_nodes.items()}


# -- Euler sampler ----------------------------------------------------------------------


def euler_sample(
    model: VelocityModel,
    f_start,
    sched: SampleSchedule,
    guidance=None,
    sources=None,
) -> list:
    """Deterministic Euler integration f_{t-dt} = f_t - dt * v_eff(f_t, t).

    Unguided, v_eff is the model field; with a guidance spec and (i, v)
    sources attached, the fusion correction is added per step (see the
    guidance module). The measurement target is rebuilt every step: built
    once per call, its cost lands whole in a one-step sample, and the A9
    check (one-step time under 1/50 of the 100-step time) read 1/27 to 1/33
    (see the guidance module). Returns the full trajectory: steps + 1 states
    from f_start down to f_0. No noise is injected anywhere.
    """
    f = as_array(f_start).astype(np.float64, copy=True)
    guided = guidance is not None and guidance.rho > 0.0
    if guided and sources is None:
        raise ValueError("guided sampling requires the (i, v) source pair")
    if guided:
        from .guidance import guided_velocity  # deferred: guidance builds on this module

        src_i, src_v = sources
    trajectory = [Tensor(f)]
    times = sched.times
    for k in range(sched.steps):
        t, t_next = times[k], times[k + 1]
        dt = t - t_next
        if guided:
            v = guided_velocity(f, t, model, src_i, src_v, guidance, dt=dt)
        else:
            v = model.evaluate(f, t)
        f = f - dt * v
        if not np.all(np.isfinite(f)):
            raise FloatingPointError(f"non-finite state after step {k} (t = {t:.6g})")
        trajectory.append(Tensor(f))  # each step's f is a fresh array
    return trajectory
