"""The four workloads: set-up, one op, and the check of each op's output.

Each workload is one client in a closed loop: the next op starts when the
last one has returned. Set-up makes every input from the workload seed,
saves and reloads the seeded random codec and flow weights through RFFZ
checkpoints (all but eval, which uses none), parses the config, and runs
each distinct input once; those
warm-up outputs are the references the timed ops must reproduce. Ops call
the library through module attributes, the way the CLI reaches it, so a
traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flowfuse import (checkpoint, cli, codec, config, flow, guidance, image, imgio, metrics,
                      optim, synth)

from harness import CheckFailed
from tracing import SETUP_LAYERS


def _config(workdir: Path, seed: int, text: str) -> config.Config:
    """Parse a config file written into the work dir, as `flowfuse --config`."""
    path = workdir / "run.cfg"
    path.write_text(text)
    return config.parse_config(path=path, overrides={"run.seed": seed})


def _pairs_on_disk(workdir: Path, seed: int, size: int, count: int) -> list:
    """ivif pairs written as A/NNNN.png and B/NNNN.png; returns the path pairs."""
    paths = []
    for k in range(count):
        a, b = synth.make_pair("ivif", size, seed, k)
        pa, pb = workdir / "A" / f"{k:04d}.png", workdir / "B" / f"{k:04d}.png"
        pa.parent.mkdir(exist_ok=True)
        pb.parent.mkdir(exist_ok=True)
        imgio.save_image(pa, a)
        imgio.save_image(pb, b)
        paths.append((pa, pb))
    return paths


def _checkpoints(workdir: Path, cfg: config.Config, seed: int, dim: int):
    """Seeded random codec and flow weights, round-tripped through RFFZ."""
    params = codec.CodecParams.initialize(hidden=cfg.hidden_pair("codec.hidden"), seed=seed)
    checkpoint.save_codec_checkpoint(workdir / "codec.rffz", params)
    model = flow.VelocityModel.mlp(dim, cfg.hidden_pair("flow.hidden"), seed=seed)
    checkpoint.save_flow_checkpoint(workdir / "flow.rffz", model)
    return (checkpoint.load_codec_checkpoint(workdir / "codec.rffz"),
            checkpoint.load_flow_checkpoint(workdir / "flow.rffz"))


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


class Train:
    """One training round at the A10 recipe's shapes: a codec stage-1 step, a
    stage-2 step on a frozen-encoder copy, and a flow rf_loss + Adam step."""

    CONFIG = """\
codec.hidden = 24,48
codec.batch = 8
codec.lambda_int = 0.3
codec.lambda_ssim = 2.5
codec.lambda_grad = 0.3
codec.lambda_color = 0
codec.lambda_mask = 1.2
flow.hidden = 64,64
flow.batch = 16
flow.lr = 1.5e-3
"""

    def __init__(self, seed: int, workdir: Path, size: int = 32, pairs: int = 10,
                 pair_batch: int = 4, extra_config: str = ""):
        self.cfg = _config(workdir, seed, self.CONFIG + extra_config)
        drawn = [synth.make_pair("ivif", size, seed, k) for k in range(pairs)]
        self.pairs = [(a.pixels, b.pixels) for a, b in drawn]
        self.images = [img for ab in self.pairs for img in ab]
        self.pair_batch = pair_batch
        self.weights = cli.loss_weights(self.cfg)
        c, model = _checkpoints(workdir, self.cfg, seed, 4 * (size // 4) ** 2)
        self.codec1, self.codec2, self.model = c, c.with_freeze("encoder"), model
        self.bank = np.stack([codec.encode(c, img).data.ravel() for img in self.images])
        self.sigma = 0.5 * self.bank.std()
        self.rng = np.random.default_rng(seed)
        self.cycle = 1
        self.reference = self.op(-1)

    def op(self, i: int) -> dict:
        cfg, rng = self.cfg, self.rng
        batch = [self.images[k] for k in rng.integers(0, len(self.images), cfg["codec.batch"])]
        self.codec1, l1 = codec.stage1_step(self.codec1, batch, self.weights, lr=cfg["codec.lr"])
        # distinct pairs, so that a traced op's saliency calls per pair is a fixed count
        drawn = rng.choice(len(self.pairs), self.pair_batch, replace=False)
        pairs = [self.pairs[k] for k in drawn]
        self.codec2, l2 = codec.stage2_step(self.codec2, pairs, self.weights, lr=cfg["codec.lr"])
        x0 = self.bank[rng.integers(0, len(self.bank), cfg["flow.batch"])]
        x1 = x0 + self.sigma * rng.standard_normal(x0.shape)
        t = rng.uniform(0.0, 1.0 - cfg["flow.time_eps"], x0.shape[0])
        rf, grads = flow.rf_loss(self.model, x0, x1, t)
        self.model = self.model.with_params(optim.adam_step(self.model.params, grads,
                                                            cfg["flow.lr"]))
        return {**{f"stage1.{k}": v for k, v in l1.items()},
                **{f"stage2.{k}": v for k, v in l2.items()}, "flow.rf": rf}

    def check(self, i: int, losses: dict) -> None:
        bad = {k: v for k, v in losses.items() if not math.isfinite(v)}
        if bad:
            raise CheckFailed(f"non-finite losses {bad}")

    def digest(self) -> str:
        return _sha256([json.dumps({k: v.hex() for k, v in self.reference.items()},
                                   sort_keys=True).encode()])


class Fuse:
    """`flowfuse fuse` for one pair per op: read two PNGs, fuse_images, write
    the fused PNG. Pairs are used in turn."""

    def __init__(self, seed: int, workdir: Path, size: int = 128, pairs: int = 4,
                 extra_config: str = ""):
        self.cfg = _config(workdir, seed, extra_config)
        self.size = size
        self.inputs = _pairs_on_disk(workdir, seed, size, pairs)
        self.codec, self.model = _checkpoints(workdir, self.cfg, seed, 4 * (size // 4) ** 2)
        self.out = workdir / "fused"
        self.out.mkdir()
        self.phases: list = []  # the timings dict fuse_images returns, per op
        self.cycle = pairs
        self.reference = [self.op(k).read_bytes() for k in range(pairs)]
        self.phases.clear()

    def op(self, i: int) -> Path:
        pa, pb = self.inputs[i % len(self.inputs)]
        img_a, img_b = imgio.load_image(pa), imgio.load_image(pb)
        fused, timings, _ = cli.fuse_images(img_a, img_b, self.codec, self.model, self.cfg)
        dest = self.out / f"{pa.stem}_fused.png"
        imgio.save_image(dest, fused)
        self.phases.append(timings)
        return dest

    def check(self, i: int, dest: Path) -> None:
        blob = dest.read_bytes()
        img = imgio.load_image(dest)
        if (img.height, img.width) != (self.size, self.size):
            raise CheckFailed(f"{dest.name}: {img.height}x{img.width}, "
                              f"inputs are {self.size}x{self.size}")
        if blob != self.reference[i % len(self.inputs)]:
            raise CheckFailed(f"{dest.name}: bytes differ from the pair's first output")

    def digest(self) -> str:
        return _sha256(self.reference)


class Eval:
    """`flowfuse eval` for one triple per op: read the fused image and its two
    sources, then metrics.report. Set-up makes each fused image as the pair's
    saliency-weighted target: `flowfuse eval` loads no checkpoint, and a fuse
    through the flow model would make set-up time and peak memory a fuse
    path's rather than the eval path's."""

    def __init__(self, seed: int, workdir: Path, size: int = 128, triples: int = 4):
        _config(workdir, seed, "")
        inputs = _pairs_on_disk(workdir, seed, size, triples)
        (workdir / "fused").mkdir()
        self.triples = []
        for pa, pb in inputs:
            a, b = imgio.load_image(pa), imgio.load_image(pb)
            fused = guidance.weighted_target(a, b, guidance.saliency_weights(a, b))
            pf = workdir / "fused" / f"{pa.stem}_fused.png"
            imgio.save_image(pf, fused)
            self.triples.append((pf, pa, pb))
        self.cycle = triples
        self.reference = [self.values(self.op(k)) for k in range(triples)]

    def op(self, i: int):
        pf, pa, pb = self.triples[i % len(self.triples)]
        return metrics.report(image.luma(imgio.load_image(pf)), image.luma(imgio.load_image(pa)),
                              image.luma(imgio.load_image(pb)))

    @staticmethod
    def values(rep) -> dict:
        return {k: v for k, v in rep.to_dict().items() if k != "per_source"}

    def check(self, i: int, rep) -> None:
        got = self.values(rep)
        bad = sorted(k for k, v in got.items() if not math.isfinite(v))
        if bad or len(got) != 10:
            raise CheckFailed(f"metrics not finite or missing: {bad or sorted(got)}")
        if got != self.reference[i % len(self.triples)]:
            raise CheckFailed("metrics differ from the triple's first report")

    def digest(self) -> str:
        return _sha256([json.dumps({k: v.hex() for k, v in ref.items()}, sort_keys=True).encode()
                        for ref in self.reference])


_AD = ("autodiff.conv2d", "autodiff.transposed_conv2d", "autodiff.leaky_relu")
_FUSE = SETUP_LAYERS + _AD + (
    "codec.encode", "codec.decode", "flow.euler_sample", "flow.evaluate",
    "guidance.guided_velocity", "guidance.likelihood_grad", "guidance.saliency_weights",
    "guidance.measurement_target", "image.gaussian_blur", "image.luma", "imgio.read_png",
    "imgio.write_png")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: type  # make(seed, workdir, **sizes) sets up and returns the runner
    reaches: tuple  # traced names that must record calls, or the trace is broken
    sizes: tuple = ()  # keyword arguments for make

    def set_up(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True)
        return self.make(seed, workdir, **dict(self.sizes))


WORKLOADS = {w.name: w for w in (
    Workload(
        "train-32",
        "training round at 32 px: the autodiff tape, fft, codec losses and optim do "
        "the work; imgio, metrics and the sampler do none",
        Train,
        SETUP_LAYERS + _AD + ("autodiff.matmul", "autodiff.fft2", "autodiff.minmax_normalize",
                        "autodiff.complex_magnitude", "autodiff.mul", "autodiff.backward",
                        "fft.fft2_raw", "fft.fft2_adjoint", "optim.adam_step",
                        "codec.stage1_step", "codec.stage2_step", "flow.rf_loss",
                        "flow.trace", "guidance.saliency_weights", "image.gaussian_blur"),
    ),
    Workload(
        "fuse-128",
        "fuse path at 128 px with the default config (1 step, full-vjp): the tape VJP "
        "through the dim 4096 velocity MLP sets time and peak memory",
        Fuse,
        _FUSE + ("flow.trace", "autodiff.matmul", "autodiff.mul", "autodiff.backward"),
    ),
    Workload(
        "fuse-128-sg20",
        "fuse path at 128 px with stop-grad and 20 steps: no tape, two evaluate calls "
        "and one saliency pass per step, encode/decode/imgio a third of the op",
        Fuse,
        _FUSE,
        (("extra_config", "guidance.grad_mode = stop-grad\nflow.steps = 20\n"),),
    ),
    Workload(
        "eval-128",
        "eval path at 128 px: the only workload that runs metrics (VIF, Qcb's FFT and "
        "blur, SSIM); shares fft with train-32",
        Eval,
        ("config.parse_config", "synth.make_pair", "imgio.read_png", "image.luma",
         "image.gaussian_blur", "fft.fft2_raw", "metrics.report", "metrics.mutual_information",
         "metrics.ssim_psnr", "metrics.vif_pair", "metrics.qcb", "metrics.sf_ag",
         "metrics.scd_cc", "metrics.entropy"),
    ),
)}
