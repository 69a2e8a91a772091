"""Flat key=value run configuration.

Keys are section-dotted (flow.steps, guidance.rho, codec.lambda_mask, ...).
Lines are `key = value`; blank lines and #-comments are ignored. Unknown keys
are rejected with their line number. Every run writes its fully resolved
config next to its outputs.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple


class ConfigError(ValueError):
    pass


class Bound(NamedTuple):
    """Lower bound on a finite numeric value, and an optional exclusive upper end."""

    low: float
    strict: bool = False
    high: float | None = None  # values must lie below it

    def admits(self, v) -> bool:
        return (math.isfinite(v) and (v > self.low if self.strict else v >= self.low)
                and (self.high is None or v < self.high))

    def __str__(self):
        text = f"a finite number {'>' if self.strict else '>='} {self.low:g}"
        return text if self.high is None else f"{text} and < {self.high:g}"


def _side(val) -> int:
    """An image side for data.size: a multiple of 4, as the codec downsamples 4x."""
    if (side := int(val)) % 4:
        raise ValueError(f"must be a multiple of 4, got {side}")
    return side


_COUNT = Bound(1)  # steps, batch sizes, iterations
_RATE = Bound(0.0, strict=True)  # learning rates
_WEIGHT = Bound(0.0)  # guidance strength and loss weights

# key -> (parser, default, allowed values, a Bound, or None)
SCHEMA = {
    "run.seed": (int, 0, None),
    "run.out": (str, "out", None),
    "flow.steps": (int, 1, _COUNT),
    "flow.start": (str, "visible", ("visible", "noise")),
    "flow.hidden": (str, "128,128", None),
    "flow.train_steps": (int, 2000, _COUNT),
    "flow.lr": (float, 1e-3, _RATE),
    "flow.batch": (int, 64, _COUNT),
    "flow.data": (str, "latents", ("latents", "toy2d")),
    "flow.time_eps": (float, 1e-3, Bound(0.0, high=1.0)),
    "guidance.rho": (float, 0.5, _WEIGHT),
    "guidance.schedule": (str, "constant", ("constant", "linear-decay")),
    "guidance.measurement": (str, "weighted-target", ("weighted-target", "em-prior")),
    "guidance.em_iters": (int, 3, _COUNT),
    "guidance.grad_mode": (str, "full-vjp", ("full-vjp", "stop-grad")),
    "codec.hidden": (str, "32,64", None),
    "codec.lambda_fre": (float, 0.1, _WEIGHT),
    "codec.lambda_int": (float, 1.0, _WEIGHT),
    "codec.lambda_ssim": (float, 1.0, _WEIGHT),
    "codec.lambda_grad": (float, 1.0, _WEIGHT),
    # weighs no term (luma-only); kept: perfbench's train-32 config sets it, unknown keys fail
    "codec.lambda_color": (float, 0.5, _WEIGHT),
    "codec.lambda_mask": (float, 1.0, _WEIGHT),
    "codec.train_steps": (int, 500, _COUNT),
    "codec.lr": (float, 1e-3, _RATE),
    "codec.batch": (int, 8, _COUNT),
    "codec.resume": (str, "", None),
    "data.dir": (str, "", None),
    "data.kind": (str, "ivif", ("ivif", "mef", "mff")),
    "data.count": (int, 16, _COUNT),
    "data.size": (_side, 32, _COUNT),
}


class Config:
    """Resolved configuration with attribute-free dotted-key access."""

    def __init__(self, values: dict):
        self.values = values

    def __getitem__(self, key: str):
        return self.values[key]

    def hidden_pair(self, key: str):
        parts = [int(p) for p in str(self.values[key]).split(",") if p.strip()]
        if len(parts) != 2:
            raise ConfigError(f"{key} must be two comma-separated widths")
        return tuple(parts)

    def dump(self) -> str:
        lines = [f"{k} = {self.values[k]}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def write_resolved(self, path) -> None:
        Path(path).write_text(self.dump())


def _parse_value(key: str, val, where: str):
    """Parse one value through its schema entry; errors name where and key."""
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    parser, _, allowed = SCHEMA[key]
    try:
        parsed = parser(val)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc
    if isinstance(allowed, Bound):
        if not allowed.admits(parsed):
            raise ConfigError(f"{where}: {key} must be {allowed}, got {parsed!r}")
    elif allowed is not None and parsed not in allowed:
        raise ConfigError(f"{where}: {key} must be one of {allowed}, got {parsed!r}")
    return parsed


def parse_config(text: str | None = None, path=None, overrides: dict | None = None) -> Config:
    """Parse config text or a file, apply overrides, fill defaults."""
    values = {k: d for k, (_, d, _) in SCHEMA.items()}
    if path is not None:
        text = Path(path).read_text()
    if text:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            values[key] = _parse_value(key, val.strip(), f"line {lineno}")
    for key, val in (overrides or {}).items():
        values[key] = _parse_value(key, val, f"override {key} = {val!r}")
    return Config(values)
