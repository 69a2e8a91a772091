"""Acceptance criteria, one test per criterion, each printing a PASS line.

Budgets and tolerances are asserted exactly as stated; training recipes are
fixed-seed and were recorded as baselines when first frozen.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from flowfuse import autodiff as ad
from flowfuse.cli import TOY2D_MODES, TOY2D_SIGMA, fuse_images, toy2d_batch
from flowfuse.codec import (
    CodecParams,
    LossWeights,
    _decode_nodes,
    _encode_nodes,
    _freq_loss_node,
    decode,
    encode,
    stage1_step,
    stage2_step,
)
from flowfuse.config import parse_config
from flowfuse.flow import SampleSchedule, VelocityModel, euler_sample, rf_loss
from flowfuse.guidance import GuidanceSpec, WeightMaps
from flowfuse.metrics import entropy, mutual_information, sf_ag, ssim_psnr
from flowfuse.optim import adam_step
from flowfuse.synth import make_pair

GOLDEN_DIR = Path(__file__).parent / "golden"


def _passline(text):
    print(f"\n{text}: PASS")


def test_a01_one_step_exactness_for_straight_fields():
    t0 = time.perf_counter()
    model = VelocityModel.constant(2.0)
    rng = np.random.default_rng(0)
    f1 = rng.standard_normal((4, 8, 8))
    outs = [euler_sample(model, f1, SampleSchedule.uniform(n))[-1].data
            for n in (1, 10, 100)]
    spread = max(np.abs(a - b).max() for a in outs for b in outs)
    assert spread < 1e-12
    assert np.abs(outs[0] - (f1 - 2.0)).max() < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passline(f"A1 straightness/one-step exactness (spread {spread:.2e}, {elapsed:.2f}s)")


def test_a02_analytic_flow_transport_statistics():
    t0 = time.perf_counter()
    mu0, s0 = 2.0, 0.5
    model = VelocityModel.analytic_gaussian(mu0, s0)
    starts = np.random.default_rng(7).standard_normal(10_000)
    out = euler_sample(model, starts, SampleSchedule.uniform(200))[-1].data
    mean_err = abs(out.mean() - mu0) / mu0
    std_err = abs(out.std() - s0) / s0
    assert mean_err < 0.02
    assert std_err < 0.03
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passline(f"A2 analytic flow correctness (mean err {mean_err:.3%}, "
              f"std err {std_err:.3%}, {elapsed:.1f}s)")


def test_a03_gradient_integrity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)

    # (a) straight-path regression loss of a small velocity net on 8x8 states
    model = VelocityModel.mlp(dim=64, hidden=(16,), seed=3)
    x0 = rng.standard_normal((4, 64))
    eps = rng.standard_normal((4, 64))
    tb = rng.uniform(0.0, 0.95, 4)
    xt = (1 - tb)[:, None] * x0 + tb[:, None] * eps
    target = eps - x0

    def rf_graph(ns):
        v = model.trace(ad.constant(xt), tb, ns)
        d = v - ad.constant(target)
        return ad.reduce_mean(d * d)

    rep_a = ad.check_gradients(rf_graph, dict(model.params.params), tolerance=1e-4,
                               sample=100, seed=0)
    assert rep_a.ok, str(rep_a)

    # (b) stage-one loss including the spectral term through the FFT
    p = CodecParams.initialize(hidden=(2, 3), seed=4)
    x8 = rng.random((8, 8))

    def stage1_graph(ns):
        get_e = lambda k: ns[f"e.{k}"]
        get_d = lambda k: ns[f"d.{k}"]
        xc = ad.constant(x8[None, None])
        recon = _decode_nodes(get_d, p, _encode_nodes(get_e, p, xc))
        return ad.reduce_mean(ad.absolute(recon - xc)) + _freq_loss_node(recon, xc) * 0.1

    inputs = {f"e.{k}": p.encoder[k] for k in p.encoder.names()}
    inputs.update({f"d.{k}": p.decoder[k] for k in p.decoder.names()})
    rep_b = ad.check_gradients(stage1_graph, inputs, tolerance=1e-4, sample=40, seed=1)
    assert rep_b.ok, str(rep_b)

    # (c) full-vjp guidance residual with respect to the sampler state
    gmodel = VelocityModel.mlp(dim=64, hidden=(16,), seed=5)
    t, rho = 0.6, 0.8
    f = rng.random((1, 64))
    y = rng.random((1, 64))

    def resid_graph(ns):
        x = ns["f"]
        f0 = x - gmodel.trace(x, t) * t
        d = ad.constant(y) - f0
        return ad.reduce_sum(d * d) * rho

    rep_c = ad.check_gradients(resid_graph, {"f": f}, tolerance=1e-4, seed=2)
    assert rep_c.ok, str(rep_c)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passline(f"A3 gradient integrity (worst rel errs {rep_a.worst:.1e}/"
              f"{rep_b.worst:.1e}/{rep_c.worst:.1e}, {elapsed:.1f}s)")


def test_a04_toy_flow_training_and_mode_landing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    model = VelocityModel.mlp(dim=2, hidden=(128, 128), seed=0)
    initial = None
    for step in range(2000):
        x0 = toy2d_batch(rng, 256)
        eps = rng.standard_normal(x0.shape)
        tb = rng.uniform(0.0, 1.0 - 1e-3, 256)
        loss, grads = rf_loss(model, x0, eps, tb)
        if initial is None:
            initial = loss
        lr = 3e-3 if step < 1200 else 5e-4
        model = model.with_params(adam_step(model.params, grads, lr))
    ev = np.random.default_rng(99)
    x0 = toy2d_batch(ev, 8192)
    final, _ = rf_loss(model, x0, ev.standard_normal(x0.shape),
                       ev.uniform(0.0, 1.0 - 1e-3, 8192))
    ratio = final / initial
    assert ratio < 0.25

    starts = np.random.default_rng(1).standard_normal((400, 2))
    out = euler_sample(model, starts, SampleSchedule.uniform(100))[-1].data
    dist = np.minimum(np.linalg.norm(out - TOY2D_MODES[0], axis=1),
                      np.linalg.norm(out - TOY2D_MODES[1], axis=1))
    landed = float((dist < 3.0 * TOY2D_SIGMA).mean())
    assert landed >= 0.95
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _passline(f"A4 toy flow training (loss ratio {ratio:.3f}, "
              f"{landed:.1%} within 3 sigma, {elapsed:.0f}s)")


def _texture_bank():
    imgs = []
    for idx in range(8):
        a, b = make_pair("ivif", 32, seed=11, index=idx)
        imgs += [a.pixels, b.pixels]
    return imgs


def test_a05_stage_one_training():
    t0 = time.perf_counter()
    imgs = _texture_bank()
    assert len(imgs) == 16
    held_out = [img.pixels for pair in
                (make_pair("ivif", 32, seed=77, index=k) for k in range(2))
                for img in pair]

    p = CodecParams.initialize(hidden=(16, 32), seed=0)
    w = LossWeights()

    def mean_psnr(params):
        return float(np.mean(
            [ssim_psnr(x, decode(params, encode(params, x)).pixels)[1]
             for x in held_out]))

    psnr_init = mean_psnr(p)
    initial = None
    losses = None
    for _ in range(500):
        p, losses = stage1_step(p, imgs, w, lr=2e-3)
        if initial is None:
            initial = losses["total"]
    ratio = losses["total"] / initial
    psnr_trained = mean_psnr(p)
    assert ratio < 0.5
    assert psnr_trained > psnr_init
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _passline(f"A5 stage-one training (loss ratio {ratio:.3f}, PSNR "
              f"{psnr_init:.1f} -> {psnr_trained:.1f} dB, {elapsed:.0f}s)")


def test_a06_stage_two_contract():
    t0 = time.perf_counter()
    pairs = [tuple(img.pixels for img in make_pair("ivif", 32, seed=21, index=k))
             for k in range(8)]
    p = CodecParams.initialize(hidden=(16, 32), seed=1)
    w = LossWeights()
    for _ in range(100):  # brief reconstruction warmup before the decoder stage
        p, _ = stage1_step(p, [img for ab in pairs for img in ab][:8], w, lr=2e-3)
    p = p.with_freeze("encoder")
    enc_before = {k: p.encoder[k].copy() for k in p.encoder.names()}
    rng = np.random.default_rng(2)
    hist = []
    for _ in range(500):
        batch = [pairs[i] for i in rng.integers(0, len(pairs), 4)]
        p, losses = stage2_step(p, batch, w, lr=1e-3)
        hist.append(losses["total"])
    frozen = all(np.array_equal(p.encoder[k], v) for k, v in enc_before.items())
    head, tail = float(np.mean(hist[:10])), float(np.mean(hist[-10:]))
    assert frozen, "encoder tensors changed during stage two"
    assert tail < head
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _passline(f"A6 stage-two contract (encoder bit-frozen, trailing mean "
              f"{head:.3f} -> {tail:.3f}, {elapsed:.0f}s)")


def test_a07_guidance_limits():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    f1 = rng.random((16, 16))
    i_img, v_img = rng.random((16, 16)), rng.random((16, 16))
    model = VelocityModel.constant(0.0)  # identity-scale f0_hat map
    sched = SampleSchedule.uniform(1)

    unguided = euler_sample(model, f1, sched)
    guided_zero = euler_sample(model, f1, sched, GuidanceSpec(rho=0.0), (i_img, v_img))
    for a, b in zip(unguided, guided_zero):
        assert np.array_equal(a.data, b.data)

    wm = WeightMaps(np.ones((16, 16)), np.zeros((16, 16)))
    spec = GuidanceSpec(rho=1e3, grad_mode="stop-grad", weight_maps=wm)
    f0 = euler_sample(model, f1, sched, spec, (i_img, v_img))[-1].data
    l1 = float(np.abs(f0 - v_img).mean())
    assert l1 < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passline(f"A7 guidance limits (rho=0 bit-exact, saturated L1 {l1:.5f}, "
              f"{elapsed:.2f}s)")


def test_a08_metric_suite_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    x = rng.random((16, 16))
    assert mutual_information(x, x) == pytest.approx(entropy(x), abs=1e-12)
    assert ssim_psnr(x, x)[0] == 1.0
    assert sf_ag(np.full((8, 8), 0.3)) == (0.0, 0.0)

    flat = np.full((16, 16), 0.25)
    _, psnr = ssim_psnr(flat, flat + 1.0 / 255.0)
    assert abs(psnr - 48.13) < 0.01

    a, b = rng.random((4, 4)), rng.random((4, 4))

    def bin256(v):
        return 255 if v >= 255 / 256 else int(v * 256)

    joint = {}
    for i in range(4):
        for j in range(4):
            key = (bin256(a[i, j]), bin256(b[i, j]))
            joint[key] = joint.get(key, 0) + 1
    pa, pb = {}, {}
    for (ka, kb), c in joint.items():
        pa[ka] = pa.get(ka, 0) + c / 16
        pb[kb] = pb.get(kb, 0) + c / 16
    oracle = sum((c / 16) * np.log2((c / 16) / (pa[ka] * pb[kb]))
                 for (ka, kb), c in joint.items())
    assert mutual_information(a, b) == pytest.approx(oracle, abs=1e-12)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passline(f"A8 metric suite closed forms ({elapsed:.2f}s)")


def test_a09_sampler_cost_is_affine_in_step_count():
    import gc

    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    dim = 4 * 16 * 16
    model = VelocityModel.mlp(dim=dim, hidden=(128, 128), seed=6)
    z_v = rng.standard_normal((4, 16, 16))
    z_i = rng.standard_normal((4, 16, 16))
    spec = GuidanceSpec(rho=0.5, grad_mode="stop-grad")
    step_counts = [1, 5, 10, 50, 100]
    runs = 9
    scheds = [SampleSchedule.uniform(n) for n in step_counts]
    times = [[] for _ in step_counts]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for sched in scheds:
            euler_sample(model, z_v, sched, spec, (z_i, z_v))  # warmup
        # round-robin over the step counts: a slow or fast phase of a shared
        # host then lands on every count alike instead of bending the line
        for _ in range(runs):
            for sched, ts in zip(scheds, times):
                t1 = time.perf_counter()
                euler_sample(model, z_v, sched, spec, (z_i, z_v))
                ts.append(time.perf_counter() - t1)
    finally:
        if gc_was_enabled:
            gc.enable()
    means = [float(np.median(ts)) for ts in times]
    xs = np.asarray(step_counts, dtype=np.float64)
    ys = np.asarray(means)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((ys - ys.mean()) ** 2))
    ratio = means[0] / means[-1]
    assert slope > 0
    assert r2 > 0.99
    assert ratio < 1.0 / 50.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passline(f"A9 efficiency shape (R^2 {r2:.5f}, 1-step/100-step ratio "
              f"1/{1/ratio:.0f}, {elapsed:.1f}s)")


# A10 locks the golden's per-pair mi_ab at abs=1e-2 (it reads only the
# synthetic inputs) but the fused-image metrics only through their 10-pair
# means. The 1,450 training steps amplify last-digit rounding, so per-pair
# mi_sum and ssim_sum move with numpy's SIMD dispatch and OpenBLAS's kernels.
# Same code and seed on one host, 9 distinct kernel builds selected with
# NPY_DISABLE_CPU_FEATURES and OPENBLAS_CORETYPE: per-pair spread up to 0.176
# (mi_sum) and 0.012 (ssim_sum), yet every build's means lie within 0.037 and
# 0.0049 of the golden's. Behavioural changes move the means further: guidance
# off (rho = 0) mean mi_sum +0.102, which no semantic assert catches; stage 2
# skipped mean ssim_sum -0.118. The bounds sit above the rounding spread and
# below those shifts.
A10_MEAN_BOUNDS = {"mi_sum": 0.06, "ssim_sum": 0.015}


def _kernel_build():
    """numpy version, SIMD dispatch and BLAS build, for a drift report."""
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its config
        return f"numpy {np.__version__}"
    simd = cfg["SIMD Extensions"]
    blas = cfg["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, SIMD found {simd.get('found', [])} "
            f"baseline {simd.get('baseline', [])}, "
            f"BLAS {blas.get('name')} {blas.get('version')}")


def test_a10_end_to_end_fusion_sanity(tmp_path):
    t0 = time.perf_counter()
    pairs = [make_pair("ivif", 32, seed=33, index=k) for k in range(10)]
    arrs = [(a.pixels, b.pixels) for a, b in pairs]
    imgs = [img for ab in arrs for img in ab]

    # stage one: shared reconstruction codec
    p = CodecParams.initialize(hidden=(24, 48), seed=3)
    rng = np.random.default_rng(3)
    for _ in range(600):
        batch = [imgs[i] for i in rng.integers(0, len(imgs), 8)]
        p, _ = stage1_step(p, batch, LossWeights(), lr=2.5e-3)
    # stage two: decoder fine-tune, structure-weighted
    w2 = LossWeights(intensity=0.3, ssim=2.5, grad=0.3, mask=1.2)
    p = p.with_freeze("encoder")
    rng2 = np.random.default_rng(4)
    for _ in range(350):
        batch = [arrs[i] for i in rng2.integers(0, len(arrs), 4)]
        p, _ = stage2_step(p, batch, w2, lr=8e-4)
    # latent flow: clean latents coupled with sigma-noised copies
    bank = np.stack([encode(p, img).data.ravel() for img in imgs])
    sigma = 0.5 * bank.std()
    model = VelocityModel.mlp(bank.shape[1], (64, 64), seed=5)
    rng3 = np.random.default_rng(5)
    for _ in range(500):
        x0 = bank[rng3.integers(0, bank.shape[0], 16)]
        x1 = x0 + sigma * rng3.standard_normal(x0.shape)
        loss, grads = rf_loss(model, x0, x1, rng3.uniform(0.0, 1.0 - 1e-3, 16))
        model = model.with_params(adam_step(model.params, grads, 1.5e-3))

    # round-trip both checkpoints through the container before inference
    from flowfuse.checkpoint import (
        load_codec_checkpoint,
        load_flow_checkpoint,
        save_codec_checkpoint,
        save_flow_checkpoint,
    )

    save_codec_checkpoint(tmp_path / "codec.rffz", p)
    save_flow_checkpoint(tmp_path / "flow.rffz", model)
    p = load_codec_checkpoint(tmp_path / "codec.rffz")
    model = load_flow_checkpoint(tmp_path / "flow.rffz")

    cfg = parse_config(
        "flow.steps = 1\nguidance.rho = 0.3\nguidance.grad_mode = stop-grad\n")
    records = []
    for (img_a, img_b), (pa, pb) in zip(pairs, arrs):
        fused = fuse_images(img_a, img_b, p, model, cfg)[0].pixels
        mi_sum = mutual_information(fused, pa) + mutual_information(fused, pb)
        mi_ab = mutual_information(pa, pb)
        ssim_sum = ssim_psnr(fused, pa)[0] + ssim_psnr(fused, pb)[0]
        records.append({"mi_sum": mi_sum, "mi_ab": mi_ab, "ssim_sum": ssim_sum})
        assert mi_sum > mi_ab
        assert ssim_sum > 1.0

    golden_path = GOLDEN_DIR / "end_to_end_fusion.json"
    if not golden_path.exists():
        candidate = tmp_path / golden_path.name
        candidate.write_text(json.dumps(records, indent=1))
        pytest.fail(f"golden {golden_path} is missing; candidate records were "
                    f"written to {candidate}: review them and copy the file "
                    f"into {GOLDEN_DIR}/")
    golden = json.loads(golden_path.read_text())
    build = _kernel_build()
    assert len(golden) == len(records), (
        f"golden holds {len(golden)} pairs, the run fused {len(records)}")
    for k, (got, want) in enumerate(zip(records, golden)):
        assert got["mi_ab"] == pytest.approx(want["mi_ab"], abs=1e-2), (
            f"pair {k} mi_ab {got['mi_ab']:.4f} vs golden {want['mi_ab']:.4f}; {build}")
    deviations = {}
    for key, bound in A10_MEAN_BOUNDS.items():
        got = float(np.mean([r[key] for r in records]))
        want = float(np.mean([r[key] for r in golden]))
        deviations[key] = got - want
        assert abs(got - want) < bound, (
            f"10-pair mean {key} {got:.4f} vs golden {want:.4f} "
            f"(|dev| {abs(got - want):.4f} >= {bound}); {build}")

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    min_margin = min(r["ssim_sum"] for r in records)
    _passline(f"A10 end-to-end fusion sanity (10/10 pairs, min SSIM sum "
              f"{min_margin:.3f}, mean dev mi_sum {deviations['mi_sum']:+.4f} "
              f"ssim_sum {deviations['ssim_sum']:+.4f}, {elapsed:.0f}s)")
