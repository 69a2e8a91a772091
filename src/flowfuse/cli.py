"""Command-line surface: synth | train | fuse | eval | bench.

Every command is reproducible: (seed, config, inputs) fully determine the
outputs apart from wall-clock fields, and the fully resolved configuration is
written next to each command's outputs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import (
    load_codec_checkpoint,
    load_flow_checkpoint,
    save_codec_checkpoint,
    save_flow_checkpoint,
)
from .codec import CodecParams, LossWeights, decode, encode, stage1_step, stage2_step
from .config import Config, parse_config
from .flow import SampleSchedule, VelocityModel, euler_sample, rf_loss
from .guidance import GuidanceSpec
from .image import Image, luma, rgb_to_ycbcr, ycbcr_to_rgb
from .imgio import IMAGE_SUFFIXES, load_image, save_image
from .metrics import COLUMNS, MetricsReport, report
from .optim import adam_step
from .synth import generate
from . import metrics as _metrics


def build_guidance_spec(cfg: Config) -> GuidanceSpec:
    return GuidanceSpec(
        rho=cfg["guidance.rho"],
        grad_mode=cfg["guidance.grad_mode"],
    )


def loss_weights(cfg: Config) -> LossWeights:
    return LossWeights(
        fre=cfg["codec.lambda_fre"],
        intensity=cfg["codec.lambda_int"],
        ssim=cfg["codec.lambda_ssim"],
        grad=cfg["codec.lambda_grad"],
        mask=cfg["codec.lambda_mask"],
    )


TOY2D_MODES = np.array([[4.0, 4.0], [-4.0, -4.0]])
TOY2D_SIGMA = 0.25


def toy2d_batch(rng, n: int) -> np.ndarray:
    """Two-Gaussian 2-D mixture: modes +-(4, 4), per-mode sigma 0.25."""
    pick = rng.integers(0, 2, n)
    return TOY2D_MODES[pick] + TOY2D_SIGMA * rng.standard_normal((n, 2))


def _list_images(d: Path) -> list:
    return sorted(p for p in Path(d).iterdir() if p.suffix.lower() in IMAGE_SUFFIXES)


def _by_stem(d: Path) -> dict:
    """The image files in d by stem, the key that pairs an A/ file with its
    B/ counterpart whatever their formats; of two files with one stem, the
    first in IMAGE_SUFFIXES order."""
    files = {}
    for p in sorted(_list_images(d), key=lambda p: IMAGE_SUFFIXES.index(p.suffix.lower())):
        files.setdefault(p.stem, p)
    return files


def _pair_lumas(data_dir: Path) -> list:
    """Matched (a, b) luma arrays from DATA/A and DATA/B."""
    b_files = _by_stem(Path(data_dir) / "B")
    pairs = [(luma(load_image(pa)), luma(load_image(b_files[pa.stem])))
             for pa in _list_images(Path(data_dir) / "A") if pa.stem in b_files]
    if not pairs:
        raise FileNotFoundError(f"no matched A/B image pairs under {data_dir}")
    return pairs


# -- training drivers -------------------------------------------------------------------


def _train(outdir: Path, stage: str, columns, steps: int, step, state, save) -> Path:
    """Run state, losses = step(k, state) for k = 1..steps, append one
    <stage>_loss.csv row per step, and save the final state at <stage>.rffz.

    A step raises FloatingPointError when its state's loss is non-finite; the
    state before it, the last whose loss was finite, is then saved and the
    error re-raised.
    """
    csv, ckpt = outdir / f"{stage}_loss.csv", outdir / f"{stage}.rffz"
    csv.write_text(",".join(["step", *columns, "wall_s"]) + "\n")
    prev = state
    for k in range(1, steps + 1):
        t0 = time.perf_counter()
        try:
            new, losses = step(k, state)
        except FloatingPointError as err:
            save(ckpt, prev)
            raise FloatingPointError(
                f"step {k}: {err}; last finite state kept at {ckpt}") from err
        row = [str(k), *(f"{losses[c]:.8f}" for c in columns), f"{time.perf_counter() - t0:.6f}"]
        with csv.open("a") as fh:
            fh.write(",".join(row) + "\n")
        prev, state = state, new
    save(ckpt, state)
    return ckpt


def train_flow(cfg: Config, outdir: Path, codec_path=None, echo=print) -> Path:
    """Fit the velocity field with the straight-path regression loss.

    toy2d couples the 2-D mixture with standard normal noise. The latents
    mode couples clean image latents with sigma-noised copies of themselves
    (sigma = half the latent standard deviation): the field learns to
    transport perturbed latents back onto the latent manifold and is
    near-stationary on clean latents, which is what the noise-free visible
    start of the fusion pipeline integrates.
    """
    rng = np.random.default_rng(cfg["run.seed"])
    hidden = cfg.hidden_pair("flow.hidden")
    time_eps = cfg["flow.time_eps"]
    if cfg["flow.data"] == "toy2d":
        dim = 2
        draw = lambda n: (toy2d_batch(rng, n), rng.standard_normal((n, 2)))
    else:
        if codec_path is None:
            raise ValueError("flow training on latents needs a codec checkpoint")
        codec = load_codec_checkpoint(codec_path)
        pairs = _pair_lumas(Path(cfg["data.dir"]))
        latents = [encode(codec, img).data.ravel() for ab in pairs for img in ab]
        bank = np.stack(latents)
        dim = bank.shape[1]
        sigma = 0.5 * bank.std()

        def draw(n):
            x0 = bank[rng.integers(0, bank.shape[0], n)]
            return x0, x0 + sigma * rng.standard_normal(x0.shape)

    total = cfg["flow.train_steps"]
    decay_at = int(0.6 * total)  # late fine-tuning phase at lr/6

    def step(k, model):
        x0, eps = draw(cfg["flow.batch"])
        tb = rng.uniform(0.0, 1.0 - time_eps, x0.shape[0])
        loss, grads = rf_loss(model, x0, eps, tb)
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite flow loss")
        lr = cfg["flow.lr"] if k <= decay_at else cfg["flow.lr"] / 6.0
        return model.with_params(adam_step(model.params, grads, lr)), {"rf": loss}

    ckpt = _train(outdir, "flow", ["rf"], total, step,
                  VelocityModel.mlp(dim, hidden, seed=cfg["run.seed"]), save_flow_checkpoint)
    echo(f"flow model ({dim} dims) -> {ckpt}")
    return ckpt


def _init_codec(cfg: Config) -> CodecParams:
    resume = cfg["codec.resume"]
    if resume:
        return load_codec_checkpoint(resume)
    return CodecParams.initialize(hidden=cfg.hidden_pair("codec.hidden"),
                                  seed=cfg["run.seed"])


def train_codec1(cfg: Config, outdir: Path, echo=print) -> Path:
    rng = np.random.default_rng(cfg["run.seed"])
    pairs = _pair_lumas(Path(cfg["data.dir"]))
    images = [img for ab in pairs for img in ab]
    w = loss_weights(cfg)

    def step(k, p):
        batch = [images[j] for j in rng.integers(0, len(images), cfg["codec.batch"])]
        return stage1_step(p, batch, w, lr=cfg["codec.lr"])

    ckpt = _train(outdir, "codec1", ["l1", "fre", "total"], cfg["codec.train_steps"], step,
                  _init_codec(cfg), save_codec_checkpoint)
    echo(f"stage-one codec -> {ckpt}")
    return ckpt


def train_codec2(cfg: Config, outdir: Path, codec_path, echo=print) -> Path:
    if codec_path is None:
        raise ValueError("stage two requires the stage-one codec checkpoint")
    rng = np.random.default_rng(cfg["run.seed"])
    pairs = _pair_lumas(Path(cfg["data.dir"]))
    w = loss_weights(cfg)

    def step(k, p):
        batch = [pairs[j] for j in rng.integers(0, len(pairs), cfg["codec.batch"])]
        return stage2_step(p, batch, w, lr=cfg["codec.lr"])

    ckpt = _train(outdir, "codec2", ["intensity", "ssim", "grad", "mask", "total"],
                  cfg["codec.train_steps"], step,
                  load_codec_checkpoint(codec_path).with_freeze("encoder"), save_codec_checkpoint)
    echo(f"stage-two codec -> {ckpt}")
    return ckpt


# -- fusion pipeline --------------------------------------------------------------------


def fuse_images(img_a: Image, img_b: Image, codec: CodecParams, model: VelocityModel,
                cfg: Config, seed_side: str = "b"):
    """Full inference path: encode the seed side, run the guided sampler in
    latent space, decode, and re-attach the visible chroma.

    Returns (fused Image, phase timings dict, latent trajectory).
    """
    if (img_a.height, img_a.width) != (img_b.height, img_b.width):
        raise ValueError(
            f"input sizes differ: {img_a.height}x{img_a.width} vs "
            f"{img_b.height}x{img_b.width}; resize to a common size divisible by 4")
    ya, yb = luma(img_a), luma(img_b)
    seed_luma = yb if seed_side == "b" else ya
    timings = {}
    t0 = time.perf_counter()
    z_i = encode(codec, ya)
    z_v = encode(codec, yb)
    z_seed = z_v if seed_side == "b" else z_i
    timings["encode_s"] = time.perf_counter() - t0
    if model.kind == "mlp" and model.meta["dim"] != z_seed.size:
        raise ValueError(
            f"flow checkpoint expects latent dim {model.meta['dim']}, inputs give "
            f"{z_seed.size}; resize inputs to match the trained size")
    if cfg["flow.start"] == "noise":
        rng = np.random.default_rng(cfg["run.seed"])
        start = rng.standard_normal(z_seed.shape)
    else:
        start = z_seed.data
    spec = build_guidance_spec(cfg)
    t0 = time.perf_counter()
    traj = euler_sample(model, start, SampleSchedule.uniform(cfg["flow.steps"]),
                        spec, (z_i.data, z_v.data))
    timings["sample_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    fused_y = decode(codec, traj[-1])
    timings["decode_s"] = time.perf_counter() - t0
    visible = img_b if seed_side == "b" else img_a
    if visible.channels == 3:
        ycc = rgb_to_ycbcr(visible.pixels)
        ycc[:, :, 0] = fused_y.pixels
        fused = Image(ycbcr_to_rgb(ycc))
    else:
        fused = fused_y
    return fused, timings, traj


# -- commands ---------------------------------------------------------------------------


def _outdir(args, cfg) -> Path:
    out = Path(args.out if args.out else cfg["run.out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_cfg(args, **overrides) -> Config:
    if args.seed is not None:
        overrides["run.seed"] = args.seed
    return parse_config(path=args.config, overrides=overrides)


def cmd_synth(args) -> int:
    flags = {"data.kind": args.kind, "data.count": args.count, "data.size": args.size}
    cfg = _load_cfg(args, **{k: v for k, v in flags.items() if v is not None})
    out = _outdir(args, cfg)
    names = generate(cfg["data.kind"], cfg["data.count"], cfg["data.size"], cfg["run.seed"],
                     out, force=args.force)
    cfg.write_resolved(out / "resolved.cfg")
    print(f"wrote {len(names)} {cfg['data.kind']} pairs under {out}/A and {out}/B")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args, **({"data.dir": args.data} if args.data else {}))
    out = _outdir(args, cfg)
    cfg.write_resolved(out / "resolved.cfg")
    if args.stage == "flow":
        train_flow(cfg, out, codec_path=args.codec)
    elif args.stage == "codec1":
        train_codec1(cfg, out)
    else:
        train_codec2(cfg, out, codec_path=args.codec)
    return 0


def cmd_fuse(args) -> int:
    cfg = _load_cfg(args)
    out = _outdir(args, cfg)
    img_a = load_image(args.input_a)
    img_b = load_image(args.input_b)
    codec = load_codec_checkpoint(args.codec)
    model = load_flow_checkpoint(args.flow)
    try:
        fused, timings, traj = fuse_images(img_a, img_b, codec, model, cfg, seed_side=args.seed_side)
    except ValueError as err:  # the size checks know no file names
        raise ValueError(f"fusing {args.input_a} with {args.input_b}: {err}") from err
    name = Path(args.input_a).stem
    dest = out / f"{name}_fused.png"
    save_image(dest, fused)
    cfg.write_resolved(out / "resolved.cfg")
    if args.dump_trajectory:
        from .checkpoint import save_checkpoint

        save_checkpoint(out / f"{name}_trajectory.rffz",
                        {f"state{k:04d}": s.data for k, s in enumerate(traj)})
    for phase in ("encode_s", "sample_s", "decode_s"):
        print(f"{phase[:-2]:>8}: {timings[phase] * 1e3:8.2f} ms")
    print(f"fused image -> {dest}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    out = _outdir(args, cfg)
    fused_dir, a_dir, b_dir = Path(args.fused), Path(args.src_a), Path(args.src_b)
    a_files, b_files = _by_stem(a_dir), _by_stem(b_dir)
    rows, missing = [], []
    for pf in _list_images(fused_dir):
        stem = pf.stem.removesuffix("_fused")
        pa, pb = a_files.get(stem), b_files.get(stem)
        if pa is None or pb is None:
            missing.append(pf.name)
            continue
        triple = [luma(load_image(p)) for p in (pf, pa, pb)]
        if len({y.shape for y in triple}) > 1:
            sizes = [f"{p} ({y.shape[0]}x{y.shape[1]})" for p, y in zip((pf, pa, pb), triple)]
            raise ValueError(f"evaluating {sizes[0]} against {sizes[1]} and {sizes[2]}: "
                             "the fused image and its sources must share one size")
        rows.append((pf.stem, report(*triple)))
    if missing:
        print(f"skipped {len(missing)} file(s) without counterparts: "
              f"{', '.join(missing)}", file=sys.stderr)
    if not rows:
        print("no aligned triples found", file=sys.stderr)
        return 1
    csv_path = out / "metrics.csv"
    with csv_path.open("w") as fh:
        fh.write(MetricsReport.csv_header() + "\n")
        for name, rep in rows:
            fh.write(rep.csv_row(name) + "\n")
        mean = {c: float(np.mean([getattr(r, c) for _, r in rows])) for c in COLUMNS}
        mean_rep = MetricsReport(per_source={}, **mean)
        fh.write(mean_rep.csv_row("mean") + "\n")
    (out / "metrics.json").write_text(
        "[" + ",\n".join(rep.to_json() for _, rep in rows) + "]\n")
    cfg.write_resolved(out / "resolved.cfg")
    print(f"{len(rows)} triple(s) -> {csv_path}")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    out = _outdir(args, cfg)
    try:
        steps_list = [int(s) for s in args.steps.split(",")]
    except ValueError:
        raise ValueError(f"--steps {args.steps!r}: expected comma-separated integers") from None
    if min(steps_list) < 1:
        raise ValueError(f"--steps {args.steps!r}: every step count must be >= 1")
    if args.runs < 5:
        raise ValueError(f"--runs {args.runs}: at least 5 timed runs per step count")
    codec = load_codec_checkpoint(args.codec)
    model = load_flow_checkpoint(args.flow)
    from .synth import make_pair

    img_a, img_b = make_pair(cfg["data.kind"], cfg["data.size"], cfg["run.seed"], 0)
    z_i, z_v = encode(codec, luma(img_a)), encode(codec, luma(img_b))
    if model.kind == "mlp" and model.meta["dim"] != z_v.size:
        raise ValueError(
            f"data.size = {cfg['data.size']} gives latent dim {z_v.size}, but the flow "
            f"checkpoint {args.flow} expects {model.meta['dim']}; set data.size to the "
            "size it was trained at")
    spec = build_guidance_spec(cfg)
    rows = []
    for n in steps_list:
        sched = SampleSchedule.uniform(n)
        times = []
        for _ in range(args.runs):
            t0 = time.perf_counter()
            euler_sample(model, z_v.data, sched, spec, (z_i.data, z_v.data))
            times.append(time.perf_counter() - t0)
        cfg_n = Config(dict(cfg.values))
        cfg_n.values["flow.steps"] = n
        t0 = time.perf_counter()
        fused, timings, _ = fuse_images(img_a, img_b, codec, model, cfg_n)
        total = time.perf_counter() - t0
        sf, ag = _metrics.sf_ag(luma(fused))
        rows.append({
            "steps": n,
            "sampler_mean_s": float(np.mean(times)),
            "sampler_std_s": float(np.std(times)),
            "pipeline_s": total,
            "encode_s": timings["encode_s"],
            "decode_s": timings["decode_s"],
            "sf": sf,
            "ag": ag,
        })
    cols = list(rows[0])
    with (out / "bench.csv").open("w") as fh:
        fh.write(",".join(cols) + "\n")
        for r in rows:
            fh.write(",".join(f"{r[c]:.6f}" if c != "steps" else str(r[c])
                              for c in cols) + "\n")
    with (out / "scatter.csv").open("w") as fh:
        fh.write("runtime_s,sf,ag,steps\n")
        for r in rows:
            fh.write(f"{r['sampler_mean_s']:.6f},{r['sf']:.4f},{r['ag']:.4f},{r['steps']}\n")
    cfg.write_resolved(out / "resolved.cfg")
    for r in rows:
        print(f"steps={r['steps']:4d}  sampler {r['sampler_mean_s']*1e3:8.2f} "
              f"+- {r['sampler_std_s']*1e3:.2f} ms  SF {r['sf']:.2f}  AG {r['ag']:.2f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowfuse",
        description="One-step flow-based image fusion: synthesis, training, "
                    "inference, evaluation, and benchmarking.")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, help="overrides run.seed")
    parser.add_argument("--out", help="output directory (default from config)")
    parser.add_argument("--force", action="store_true",
                        help="allow writing into a non-empty dataset directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic paired dataset")
    p.add_argument("--kind", choices=("ivif", "mef", "mff"), help="overrides data.kind")
    p.add_argument("--count", type=int, help="overrides data.count")
    p.add_argument("--size", type=int, help="overrides data.size")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train the flow model or a codec stage")
    p.add_argument("--stage", choices=("flow", "codec1", "codec2"), required=True)
    p.add_argument("--data", help="dataset directory with A/ and B/")
    p.add_argument("--codec", help="codec checkpoint (codec2 and latent flow)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("fuse", help="fuse one image pair")
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    p.add_argument("--codec", required=True)
    p.add_argument("--flow", required=True)
    p.add_argument("--seed-side", choices=("a", "b"), default="b",
                   help="which input seeds the sampler (visible side)")
    p.add_argument("--dump-trajectory", action="store_true")
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("eval", help="metric table over fused/source directories")
    p.add_argument("--fused", required=True)
    p.add_argument("--src-a", required=True)
    p.add_argument("--src-b", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="sampler timing versus step count")
    p.add_argument("--codec", required=True)
    p.add_argument("--flow", required=True)
    p.add_argument("--steps", default="1,10,50,100")
    p.add_argument("--runs", type=int, default=5, help="timed runs per step count (>= 5)")
    p.set_defaults(fn=cmd_bench)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
