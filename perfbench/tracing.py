"""Traced runs: spans around the library's public functions, per-layer metrics.

The tracer wraps functions of the flowfuse modules from outside, so nothing
under src/ changes. A wrapped call records a span (name, start, end, parent
span, op id) in memory while an op or a set-up is active, and costs one flag
test otherwise. Names imported by value (``from .codec import encode`` in
cli, ``from .fft import _fft2_raw`` in metrics, ...) are patched in every
flowfuse module that holds them, or their calls would go unrecorded.

Per-layer metrics are derived from the spans after the run: ``X.ms`` is the
self time of X (its span minus the union of its child spans) and ``X.calls``
its call count, both per op. A few layers add counts measured at the same
boundary (bytes read and written, autodiff nodes, distinct source pairs,
Euler steps).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

# metric prefix -> (module, attribute path) of the wrapped function
TARGETS = {
    "autodiff.conv2d": ("autodiff", "conv2d"),
    "autodiff.transposed_conv2d": ("autodiff", "transposed_conv2d"),
    "autodiff.matmul": ("autodiff", "matmul"),
    "autodiff.fft2": ("autodiff", "fft2"),
    "autodiff.minmax_normalize": ("autodiff", "minmax_normalize"),
    "autodiff.complex_magnitude": ("autodiff", "complex_magnitude"),
    "autodiff.leaky_relu": ("autodiff", "leaky_relu"),
    "autodiff.mul": ("autodiff", "mul"),
    "autodiff.backward": ("autodiff", "backward"),
    "fft.fft2_raw": ("fft", "_fft2_raw"),
    "fft.fft2_adjoint": ("fft", "fft2_adjoint"),
    "optim.adam_step": ("optim", "adam_step"),
    "codec.stage1_step": ("codec", "stage1_step"),
    "codec.stage2_step": ("codec", "stage2_step"),
    "codec.encode": ("codec", "encode"),
    "codec.decode": ("codec", "decode"),
    "flow.rf_loss": ("flow", "rf_loss"),
    "flow.euler_sample": ("flow", "euler_sample"),
    "flow.evaluate": ("flow", "VelocityModel.evaluate"),
    "flow.trace": ("flow", "VelocityModel.trace"),
    "guidance.guided_velocity": ("guidance", "guided_velocity"),
    "guidance.likelihood_grad": ("guidance", "likelihood_grad"),
    "guidance.saliency_weights": ("guidance", "saliency_weights"),
    "guidance.measurement_target": ("guidance", "measurement_target"),
    "image.gaussian_blur": ("image", "gaussian_blur"),
    "image.luma": ("image", "luma"),
    "imgio.read_png": ("imgio", "read_png"),
    "imgio.write_png": ("imgio", "write_png"),
    "metrics.report": ("metrics", "report"),
    "metrics.mutual_information": ("metrics", "mutual_information"),
    "metrics.ssim_psnr": ("metrics", "ssim_psnr"),
    "metrics.vif_pair": ("metrics", "vif_pair"),
    "metrics.qcb": ("metrics", "qcb"),
    "metrics.sf_ag": ("metrics", "sf_ag"),
    "metrics.scd_cc": ("metrics", "scd_cc"),
    "metrics.entropy": ("metrics", "entropy"),
    "checkpoint.load_codec": ("checkpoint", "load_codec_checkpoint"),
    "checkpoint.load_flow": ("checkpoint", "load_flow_checkpoint"),
    "config.parse_config": ("config", "parse_config"),
    "synth.make_pair": ("synth", "make_pair"),
}

_AD_PRIMS = ("conv2d", "transposed_conv2d", "matmul", "fft2", "minmax_normalize",
             "complex_magnitude", "leaky_relu", "mul")

# Per-layer metrics of a traced run, in report order: name -> unit. Values are
# per timed op, except the set-up layers (checkpoint, config, synth), which are
# per set-up.
PER_LAYER = {
    "autodiff.nodes": "count",
    "autodiff.node_bytes": "bytes",
    "autodiff.backward.ms": "ms",
    **{f"autodiff.{p}.{k}": u for p in _AD_PRIMS for k, u in (("calls", "count"), ("ms", "ms"))},
    "fft.fft2_raw.calls": "count",
    "fft.fft2_raw.ms": "ms",
    "fft.fft2_adjoint.ms": "ms",
    "optim.adam_step.calls": "count",
    "optim.adam_step.ms": "ms",
    "codec.stage1_step.ms": "ms",
    "codec.stage2_step.ms": "ms",
    "codec.encode.calls": "count",
    "codec.encode.ms": "ms",
    "codec.decode.ms": "ms",
    "flow.rf_loss.ms": "ms",
    "flow.euler_sample.ms": "ms",
    "flow.euler_steps": "count",
    "flow.evaluate.calls": "count",
    "flow.evaluate.ms": "ms",
    "flow.evaluate.per_step": "count",
    "flow.trace.calls": "count",
    "flow.trace.ms": "ms",
    "guidance.guided_velocity.ms": "ms",
    "guidance.likelihood_grad.calls": "count",
    "guidance.likelihood_grad.ms": "ms",
    "guidance.saliency_weights.calls": "count",
    "guidance.saliency_weights.ms": "ms",
    "guidance.source_pairs": "count",
    "guidance.saliency_weights.per_pair": "count",
    "guidance.measurement_target.ms": "ms",
    "image.gaussian_blur.calls": "count",
    "image.gaussian_blur.ms": "ms",
    "image.luma.ms": "ms",
    "imgio.read_png.calls": "count",
    "imgio.read_png.ms": "ms",
    "imgio.read_png.bytes": "bytes",
    "imgio.write_png.ms": "ms",
    "imgio.write_png.bytes": "bytes",
    "metrics.report.ms": "ms",
    **{f"metrics.{m}.ms": "ms" for m in ("mutual_information", "ssim_psnr", "vif_pair",
                                          "qcb", "sf_ag", "scd_cc", "entropy")},
    "cli.encode_ms": "ms",
    "cli.sample_ms": "ms",
    "cli.decode_ms": "ms",
    "checkpoint.load_codec.ms": "ms",
    "checkpoint.load_flow.ms": "ms",
    "config.parse_config.ms": "ms",
    "synth.make_pair.ms": "ms",
    "trace.overhead_pct": "%",
}

# per-layer metrics counted at a boundary rather than derived from spans
COUNTED = ("autodiff.nodes", "autodiff.node_bytes", "imgio.read_png.bytes",
           "imgio.write_png.bytes", "flow.euler_steps")

# traced names that run in set-up; their metrics are per set-up, not per op
SETUP_LAYERS = ("checkpoint.load_codec", "checkpoint.load_flow", "config.parse_config",
                "synth.make_pair")


class TraceError(RuntimeError):
    """The traced run cannot vouch for its per-layer numbers."""


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int  # timed ops count from 0; set-up r is -1 - r


def _pixels(x) -> np.ndarray:
    return np.ascontiguousarray(getattr(x, "pixels", x), dtype=np.float64)


def _read_bytes(tracer, args, kwargs, result):
    tracer.count("imgio.read_png.bytes", Path(args[0]).stat().st_size)


def _write_bytes(tracer, args, kwargs, result):
    tracer.count("imgio.write_png.bytes", Path(args[0]).stat().st_size)


def _source_pair(tracer, args, kwargs, result):
    digest = hashlib.sha256(_pixels(args[0]).tobytes() + _pixels(args[1]).tobytes())
    tracer.pairs[tracer.op].add(digest.digest())


def _euler_steps(tracer, args, kwargs, result):
    sched = args[2] if len(args) > 2 else kwargs["sched"]
    tracer.count("flow.euler_steps", sched.steps)


EXTRAS = {
    "imgio.read_png": _read_bytes,
    "imgio.write_png": _write_bytes,
    "guidance.saliency_weights": _source_pair,
    "flow.euler_sample": _euler_steps,
}


class Tracer:
    """Span recorder; records only while ``op`` is set (see ``active``)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.counts = defaultdict(int)  # (op, name) -> count
        self.pairs = defaultdict(set)  # op -> distinct saliency source pairs
        self.op = None

    @contextlib.contextmanager
    def active(self, op: int):
        """Attribute the spans and counts recorded inside to ``op``."""
        self.op = op
        try:
            yield
        finally:
            self.op = None

    def count(self, name: str, n=1) -> None:
        self.counts[(self.op, name)] += n

    def wrap(self, name: str, fn, extra=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer.stack.pop()
                tracer.spans[idx] = Span(name, start, end, parent, tracer.op)
            if extra is not None:
                extra(tracer, args, kwargs, result)
            return result

        return traced

    # -- derivation -----------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span: its duration minus the union of its children."""
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                children[s.parent].append((s.start, s.end))
        return [s.end - s.start - covered(s.start, s.end, children[i])
                for i, s in enumerate(self.spans)]

    def totals(self, ops) -> tuple:
        """Summed (self seconds, calls, counts) by name over the given ops."""
        ops = set(ops)
        secs, calls, counts = defaultdict(float), defaultdict(int), defaultdict(int)
        for s, own in zip(self.spans, self.self_times()):
            if s.op in ops:
                secs[s.name] += own
                calls[s.name] += 1
        for (op, name), n in self.counts.items():
            if op in ops:
                counts[name] += n
        return secs, calls, counts


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def per_layer(tracer: Tracer, ops: list, setups: list, phases: dict,
              overhead_pct: float) -> dict:
    """Every PER_LAYER metric from a traced run's spans and counts."""
    n_ops, n_setups = len(ops), len(setups)
    secs, calls, counts = tracer.totals(ops)
    s_secs, _, _ = tracer.totals(setups)
    out = {}
    for name in PER_LAYER:
        if name.endswith(".ms") and name[:-3] in SETUP_LAYERS:
            out[name] = s_secs[name[:-3]] * 1e3 / n_setups
        elif name.endswith(".ms") and name[:-3] in TARGETS:
            out[name] = secs[name[:-3]] * 1e3 / n_ops
        elif name.endswith(".calls"):
            out[name] = calls[name[:-6]] / n_ops
        elif name in COUNTED:
            out[name] = counts[name] / n_ops
    pairs = sum(len(tracer.pairs[op]) for op in ops)
    out["guidance.source_pairs"] = pairs / n_ops
    out["guidance.saliency_weights.per_pair"] = ratio(calls["guidance.saliency_weights"], pairs)
    out["flow.evaluate.per_step"] = ratio(calls["flow.evaluate"], counts["flow.euler_steps"])
    for phase in ("encode_ms", "sample_ms", "decode_ms"):
        out[f"cli.{phase}"] = phases.get(phase, 0.0)
    out["trace.overhead_pct"] = overhead_pct
    return {name: out[name] for name in PER_LAYER}


def ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def unreached(tracer: Tracer, ops: list, setups: list, reaches) -> list:
    """Wrapped names a workload must reach but that recorded no call."""
    _, calls, _ = tracer.totals(ops)
    _, s_calls, _ = tracer.totals(setups)
    return sorted(n for n in reaches if not (s_calls if n in SETUP_LAYERS else calls)[n])


# -- patching ---------------------------------------------------------------------


class Patched:
    """Context manager installing the tracer's wrappers; restores on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list = []

    def __enter__(self):
        mods = {name: importlib.import_module(f"flowfuse.{name}")
                for name in {m for m, _ in TARGETS.values()} | {"cli"}}
        family = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "flowfuse" or n.startswith("flowfuse."))]
        for metric, (mod_name, path) in TARGETS.items():
            owner = mods[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                raise TraceError(f"flowfuse.{mod_name}.{path} no longer exists")
            traced = self.tracer.wrap(metric, original, EXTRAS.get(metric))
            if outer:  # a method: one class attribute serves every caller
                self._set(owner, attr, traced)
                continue
            for mod in family:  # the module itself and every by-value import
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, traced)
        self._count_nodes(mods["autodiff"].Node)
        return self

    def _count_nodes(self, node_cls) -> None:
        tracer = self.tracer
        original = node_cls.__init__

        @functools.wraps(original)
        def counted(node, *args, **kwargs):
            original(node, *args, **kwargs)
            if tracer.op is not None:
                tracer.count("autodiff.nodes")
                tracer.count("autodiff.node_bytes", node.value.nbytes)

        self._set(node_cls, "__init__", counted)

    def _set(self, owner, name, value) -> None:
        self.undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __exit__(self, *exc):
        for owner, name, value in reversed(self.undo):
            setattr(owner, name, value)
        self.undo.clear()
