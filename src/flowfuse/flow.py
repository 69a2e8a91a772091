"""Straight-path flow core: linear interpolation between data and noise, the
constant velocity target, its regression loss, deterministic Euler sampling,
and a closed-form Gaussian velocity oracle for verification.

A velocity field has one forward, VelocityModel.trace, the only place the
model kind is read: evaluate runs it on a constant state, rf_loss with
parameter leaves, and full-vjp guidance with a state leaf.

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
    mlp(dim, hidden)         -- small trainable network; t is appended to each
                                (dim,) row of the state as an extra input
                                feature (param_shapes gives its parameters)
    """

    def __init__(self, kind, params=None, **meta):
        self.kind = kind
        self.params = params if params is not None else ParamSet({})
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
        # He-normal weights drawn in layer order, zero biases
        params = {k: rng.standard_normal(s) * np.sqrt(2.0 / s[0]) if k[0] == "w" else np.zeros(s)
                  for k, s in param_shapes(dim, hidden).items()}
        return VelocityModel(
            "mlp", ParamSet(params), dim=int(dim), hidden=tuple(hidden), alpha=alpha
        )

    def with_params(self, params: ParamSet) -> "VelocityModel":
        return VelocityModel(self.kind, params, **self.meta)

    # evaluation -----------------------------------------------------------

    def evaluate(self, x, t) -> np.ndarray:
        """The field at an array state: trace on a constant, which keeps no
        gradient. Deterministic; output shape equals input shape."""
        return self.trace(ad.constant(as_array(x)), t).value

    def trace(self, x_node: ad.Node, t, param_nodes=None) -> ad.Node:
        """The field's forward on the tape, in the state's shape. t is a
        scalar or one value per row; the mlp's rows are the state's (dim,)
        rows, or the whole state if it holds dim values. param_nodes, when
        given, maps parameter names to leaves (training); otherwise parameters
        enter as constants (state-gradient only).
        """
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "constant":
            return ad.constant(np.full(x_node.value.shape, self.meta["c"])) + x_node * 0.0
        if self.kind == "analytic-gaussian":
            # one t per row broadcasts over the row's trailing axes; the
            # posterior-mean form is continuous at t = 1 (v = x - mu0 there),
            # so sampling from the t = 1 grid point is fine
            t = t.reshape(-1, *(1,) * (x_node.value.ndim - 1)) if t.ndim else float(t)
            return _gaussian_velocity(self.meta["mu0"], self.meta["sigma0"], x_node, t)
        dim = self.meta["dim"]
        shape = x_node.value.shape
        if not (shape and shape[-1] == dim) and x_node.value.size != dim:
            raise ValueError(f"state of shape {shape} does not match model dim {dim}")
        h = ad.reshape(x_node, (-1, dim))
        tcol = np.broadcast_to(t.reshape(-1, 1), (h.value.shape[0], 1))
        h = ad.concat_cols(h, ad.constant(tcol))
        n_layers = len(self.meta["hidden"]) + 1
        get = (lambda k: param_nodes[k]) if param_nodes is not None else (
            lambda k: ad.constant(self.params[k]))
        for i in range(n_layers):
            h = ad.matmul(h, get(f"w{i}")) + get(f"b{i}")
            if i < n_layers - 1:
                h = ad.leaky_relu(h, self.meta["alpha"])
        return ad.reshape(h, shape)


def param_shapes(dim, hidden):
    """The mlp's parameter shapes, name -> shape, in parameter order: the
    weights w0.. map [state | t] through the hidden widths back to dim."""
    widths = [dim + 1, *hidden, dim]
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        shapes[f"w{i}"] = (fan_in, fan_out)
        shapes[f"b{i}"] = (fan_out,)
    return shapes


# -- analytic Gaussian oracle ------------------------------------------------------


def _gaussian_velocity(mu0: float, sigma0: float, x, t):
    """E[eps - x0 | x_t = x] for x0 ~ N(mu0, sigma0^2), eps ~ N(0,1) independent,
    on a tape node; t is a float or an array that broadcasts against x.

    With m(t) = (1-t) mu0 and s^2(t) = (1-t)^2 sigma0^2 + t^2, the posterior
    means of eps and x0 are linear in (x - m), giving
    v(x, t) = (t - (1-t) sigma0^2) / s^2 * (x - m) - mu0.
    """
    m = (1.0 - t) * mu0
    s2 = (1.0 - t) ** 2 * sigma0 * sigma0 + t * t
    return (t - (1.0 - t) * sigma0 * sigma0) / s2 * (x - m) - mu0


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
    param_nodes = {k: ad.leaf(model.params[k]) for k in model.params.names()}
    v_node = model.trace(ad.constant(xt), t, param_nodes)
    diff = v_node - ad.constant(eps - x0)
    loss_node = ad.reduce_mean(diff * diff)
    grads = ad.backward(loss_node, list(param_nodes.values())) if param_nodes else {}
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
