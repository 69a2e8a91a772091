"""Named parameter sets with Adam state.

ParamSets are treated as immutable values: adam_step returns a fresh set with
updated parameters, moments, and step count. Updates are the standard
bias-corrected Adam rule and fully deterministic.
"""

from __future__ import annotations

import numpy as np


class ParamSet:
    """name -> float64 tensor, plus per-parameter first/second moments."""

    __slots__ = ("params", "m", "v", "step")

    def __init__(self, params: dict, m=None, v=None, step: int = 0):
        self.params = {k: np.asarray(p, dtype=np.float64) for k, p in params.items()}
        self.m = m if m is not None else {k: np.zeros(p.shape) for k, p in self.params.items()}
        self.v = v if v is not None else {k: np.zeros(p.shape) for k, p in self.params.items()}
        self.step = step
        for k in self.params:
            if self.m[k].shape != self.params[k].shape or self.v[k].shape != self.params[k].shape:
                raise ValueError(f"moment shape mismatch for parameter {k!r}")

    def names(self):
        return list(self.params)

    def __getitem__(self, name):
        return self.params[name]


def adam_step(
    pset: ParamSet,
    grads: dict,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> ParamSet:
    """One bias-corrected Adam update; grads must cover every parameter."""
    if set(grads) != set(pset.params):
        missing = set(pset.params) ^ set(grads)
        raise ValueError(f"gradient map does not match parameter names: {sorted(missing)}")
    t = pset.step + 1
    c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t  # the bias corrections
    new_p, new_m, new_v = {}, {}, {}
    for k, p in pset.params.items():
        g = np.asarray(grads[k], dtype=np.float64)
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {k!r}: {g.shape} vs {p.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {k!r}")
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        # p - lr (m / c1) / (sqrt(v / c2) + eps), operation for operation, in
        # four arrays (out= keeps even a 0-d parameter an array)
        m, v, step, tmp = (np.empty(p.shape) for _ in range(4))
        np.multiply(pset.m[k], beta1, out=m)
        m += np.multiply(g, 1.0 - beta1, out=tmp)
        np.multiply(pset.v[k], beta2, out=v)
        np.multiply(g, 1.0 - beta2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(m, c1, out=step)
        step *= lr
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        step /= tmp
        new_p[k] = np.subtract(p, step, out=step)
        new_m[k] = m
        new_v[k] = v
    return ParamSet(new_p, new_m, new_v, t)
