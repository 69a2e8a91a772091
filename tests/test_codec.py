import numpy as np
import pytest

from flowfuse import autodiff as ad
from flowfuse.codec import (
    CodecParams,
    LossWeights,
    _freq_loss_node,
    _fusion_loss_nodes,
    _sobel_pair,
    decode,
    encode,
    stage1_step,
    stage2_step,
)
from flowfuse.guidance import WeightMaps


def textures(n, size, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        y, x = np.mgrid[0:size, 0:size] / size
        fx, fy = rng.uniform(1, 4, 2)
        img = 0.5 + 0.25 * np.sin(2 * np.pi * (fx * x + fy * y) + rng.uniform(0, 6))
        img += 0.15 * rng.random((size, size))
        out.append(np.clip(img, 0.0, 1.0))
    return out


SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T


def correlation_oracle(a, kern):
    """Direct nested-loop cross-correlation over the positions where kern fits."""
    kh, kw = kern.shape
    out = np.zeros((a.shape[0] - kh + 1, a.shape[1] - kw + 1))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            acc = 0.0
            for di in range(kh):
                for dj in range(kw):
                    acc += kern[di, dj] * a[i + di, j + dj]
            out[i, j] = acc
    return out


class TestSobel:
    """The one Sobel of the codec's gradient loss, on the tape: the absolute
    valid-mode responses to [1, 2, 1] down the rows by [-1, 0, 1] along them
    (and the transpose), over an (n, 1, H, W) node. The loss runs it on the
    fused image and, as constants, on the sources."""

    @staticmethod
    def sobel(a):
        return tuple(g.value for g in _sobel_pair(ad.constant(a)))

    def test_constant_image_gives_zero_everywhere(self):
        # zero up to the rounding of one 9-term dot, whose order the BLAS picks:
        # (9 - 1) half-ulps of the terms' absolute sum, 8 * 0.4 (the separable
        # passes this Sobel replaced cancelled exactly)
        a = np.full((2, 1, 5, 5), 0.4)
        for g in self.sobel(a):
            assert g.shape == (2, 1, 3, 3)
            assert np.abs(g).max() <= 8 * (np.finfo(float).eps / 2) * (8 * 0.4)

    def test_vertical_step_edge(self):
        a = np.zeros((1, 1, 5, 6))
        a[..., 3:] = 1.0
        gx, gy = self.sobel(a)
        assert gx.shape == gy.shape == (1, 1, 3, 4)
        assert np.all(gy == 0)
        assert np.all(gx[..., 1:3] == 4.0)  # windows centred on the edge columns
        assert np.all(gx[..., [0, 3]] == 0)

    def test_matches_direct_convolution_oracle(self):
        rng = np.random.default_rng(7)
        for shape in ((3, 1, 5, 5), (2, 1, 16, 13)):
            a = rng.random(shape)
            for g, k in zip(self.sobel(a), (SOBEL_X, SOBEL_Y)):
                for img, got in zip(a[:, 0], g[:, 0]):
                    assert np.abs(got - np.abs(correlation_oracle(img, k))).max() < 1e-12

    def test_rejects_color_and_tiny_images(self):
        with pytest.raises(ValueError, match="4-D input"):  # an (n, H, W) stack: a bad rank
            self.sobel(np.zeros((1, 5, 5)))
        with pytest.raises(ValueError, match="channel mismatch"):
            self.sobel(np.zeros((1, 4, 4, 3)))
        with pytest.raises(ValueError, match="smaller than the kernel"):
            self.sobel(np.zeros((1, 1, 2, 5)))


class TestShapes:
    def test_encode_shape_contract(self):
        p = CodecParams.initialize(hidden=(6, 8), seed=0)
        z = encode(p, np.random.default_rng(0).random((32, 32)))
        assert z.shape == (4, 8, 8)

    def test_decode_shape_contract(self):
        p = CodecParams.initialize(hidden=(6, 8), seed=0)
        img = decode(p, np.zeros((4, 8, 8)))
        assert (img.height, img.width) == (32, 32)

    def test_indivisible_size_rejected_with_hint(self):
        p = CodecParams.initialize(hidden=(4, 4), seed=0)
        with pytest.raises(ValueError, match="divisible by 4"):
            encode(p, np.zeros((30, 32)))

    @pytest.mark.parametrize("alpha", [-0.2, 1.5])
    def test_leaky_slope_outside_zero_one_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\]"):
            CodecParams.initialize(hidden=(4, 4), alpha=alpha)

    def test_bad_latent_rejected(self):
        p = CodecParams.initialize(hidden=(4, 4), seed=0)
        with pytest.raises(ValueError, match="latent"):
            decode(p, np.zeros((3, 8, 8)))

    def test_encode_deterministic(self):
        p = CodecParams.initialize(hidden=(6, 8), seed=1)
        x = np.random.default_rng(1).random((16, 16))
        assert np.array_equal(encode(p, x).data, encode(p, x).data)

    def test_roundtrip_smoke(self):
        p = CodecParams.initialize(hidden=(6, 8), seed=2)
        x = np.random.default_rng(2).random((16, 16))
        r = decode(p, encode(p, x))
        assert r.pixels.shape == (16, 16)
        assert np.all(np.isfinite(r.pixels))

    def test_decoder_clamp_saturation(self):
        p = CodecParams.initialize(hidden=(4, 4), seed=3)
        # driving the final bias far positive saturates every output at 1.0
        p.decoder.params["b2"][:] = 10.0
        img = decode(p, np.zeros((4, 4, 4)))
        assert np.all(img.pixels == 1.0)


def freq_loss(a, b):
    """The spectral loss between two gray (H, W) images."""
    return float(_freq_loss_node(ad.constant(a), ad.constant(b)).value)


def fusion_terms(f, i, v, w):
    """Each fusion-loss term's value for one gray (H, W) triple."""
    terms = _fusion_loss_nodes(ad.constant(f[None, None]), i[None], v[None], w, None)
    return {k: float(node.value) for k, node in terms.items()}


class TestFreqLoss:
    def test_identical_images_zero(self):
        x = np.random.default_rng(3).random((8, 8))
        assert freq_loss(x, x) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rng.random((8, 8)), rng.random((8, 8))
        assert abs(freq_loss(a, b) - freq_loss(b, a)) < 1e-15

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            assert freq_loss(rng.random((4, 8)), rng.random((4, 8))) >= 0.0

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_delta_vs_constant_matches_hand_derivation(self, n):
        # step-by-step closed form on n x n:
        #   delta: |DFT| == 1 in every bin (single unit-magnitude term per bin)
        #          -> log map constant up to rounding -> normalized to all zeros
        #   const c: spectrum n^2 c at DC, 0 elsewhere -> log map log1p(n^2 c) at
        #          the center bin after the shift -> normalizes to 1 there, 0 elsewhere
        #   loss = mean((0 - N_const)^2) = 1 / n^2
        delta = np.zeros((n, n))
        delta[2, 5] = 1.0
        const = np.full((n, n), 0.3)
        got = freq_loss(delta, const)
        assert abs(got - 1.0 / n**2) < 1e-12

    def test_random_pair_matches_naive_dft_oracle(self):
        # well-conditioned spectra: naive-DFT straight-line evaluation of the
        # shift -> log1p -> min-max -> mean-square pipeline
        def oracle_spectrum(img):
            h, w = img.shape
            spec = np.zeros((h, w), dtype=np.complex128)
            for u in range(h):
                for v in range(w):
                    for x in range(h):
                        for y in range(w):
                            spec[u, v] += img[x, y] * np.exp(
                                -2j * np.pi * (u * x / h + v * y / w))
            spec = np.roll(np.roll(spec, h // 2, 0), w // 2, 1)  # center shift
            mag = np.log1p(np.abs(spec))
            lo, hi = mag.min(), mag.max()
            return np.zeros_like(mag) if hi == lo else (mag - lo) / (hi - lo)

        rng = np.random.default_rng(42)
        a, b = rng.random((8, 8)), rng.random((8, 8))
        want = float(np.mean((oracle_spectrum(a) - oracle_spectrum(b)) ** 2))
        assert abs(freq_loss(a, b) - want) < 1e-9

    def test_constant_spectrum_degenerate_normalization(self):
        # a delta image has a flat magnitude spectrum: min == max -> zeros, loss defined
        delta = np.zeros((4, 4))
        delta[0, 0] = 1.0
        val = freq_loss(delta, delta)
        assert val == 0.0


class TestFusionLoss:
    def test_all_equal_gives_zero(self):
        x = np.random.default_rng(6).random((16, 16)) * 0.8 + 0.1
        terms = fusion_terms(x, x, x, LossWeights())
        assert sorted(terms) == ["grad", "intensity", "mask", "ssim"]
        for name, value in terms.items():
            assert abs(value) < 1e-9, name

    def test_constant_offset_intensity(self):
        rng = np.random.default_rng(7)
        i = rng.random((16, 16)) * 0.5 + 0.2
        f = i + 0.1
        w = LossWeights(ssim=0, grad=0, mask=0)
        terms = fusion_terms(f, i, i, w)
        assert list(terms) == ["intensity"]
        assert abs(terms["intensity"] - 0.1) < 1e-12

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            LossWeights(intensity=-1.0)
        with pytest.raises(ValueError):
            LossWeights(mask=np.inf)


class TestStage1:
    def test_pure_reconstruction_when_fre_zero(self):
        p = CodecParams.initialize(hidden=(4, 6), seed=9)
        batch = textures(2, 16, 9)
        _, losses = stage1_step(p, batch, LossWeights(fre=0.0))
        assert losses["fre"] == 0.0
        assert losses["total"] == losses["l1"]

    def test_components_nonnegative(self):
        p = CodecParams.initialize(hidden=(4, 6), seed=10)
        _, losses = stage1_step(p, textures(2, 16, 10), LossWeights())
        assert losses["l1"] >= 0 and losses["fre"] >= 0 and losses["total"] >= 0

    def test_loss_decreases_over_short_run(self):
        p = CodecParams.initialize(hidden=(6, 8), seed=11)
        batch = textures(4, 16, 11)
        w = LossWeights()
        first = None
        for k in range(40):
            p, losses = stage1_step(p, batch, w, lr=3e-3)
            if first is None:
                first = losses["total"]
        assert losses["total"] < first

    def test_freeze_must_be_none(self):
        p = CodecParams.initialize(hidden=(4, 4), seed=12).with_freeze("encoder")
        with pytest.raises(ValueError, match="freeze"):
            stage1_step(p, textures(1, 16, 12), LossWeights())


def test_training_steps_reject_colour():
    # training is luma-only, as inference is: a colour input must be reduced
    # to image.luma first, not averaged over RGB
    from flowfuse.image import Image

    gray = textures(1, 16, 16)[0]
    colour = Image(np.stack([gray] * 3, axis=2))
    p = CodecParams.initialize(hidden=(4, 4), seed=16)
    with pytest.raises(ValueError, match="gray image required"):
        stage1_step(p, [colour], LossWeights())
    for pair in ((colour, gray), (gray, np.stack([gray] * 3, axis=2))):
        with pytest.raises(ValueError, match="gray image required"):
            stage2_step(p.with_freeze("encoder"), [pair], LossWeights())


class TestStage2:
    def test_encoder_bitwise_frozen(self):
        p = CodecParams.initialize(hidden=(4, 6), seed=13).with_freeze("encoder")
        enc_before = {k: p.encoder[k].copy() for k in p.encoder.names()}
        pairs = list(zip(textures(3, 16, 13), textures(3, 16, 14)))
        for _ in range(5):
            p, _ = stage2_step(p, pairs, LossWeights(ssim=0.0))
        for k, v in enc_before.items():
            assert np.array_equal(p.encoder[k], v)

    def test_freeze_flag_required(self):
        p = CodecParams.initialize(hidden=(4, 4), seed=14)
        with pytest.raises(ValueError, match="freeze"):
            stage2_step(p, [(np.zeros((16, 16)), np.zeros((16, 16)))], LossWeights())

    def test_pair_shape_mismatch_named(self):
        p = CodecParams.initialize(hidden=(4, 4), seed=14).with_freeze("encoder")
        pairs = [(np.zeros((16, 16)), np.zeros((16, 16))), (np.zeros((16, 20)), np.zeros((16, 16)))]
        with pytest.raises(ValueError, match="pair 1"):
            stage2_step(p, pairs, LossWeights())

    def test_dominant_mask_with_wv_one_pulls_output_toward_v(self):
        p = CodecParams.initialize(hidden=(6, 8), seed=15).with_freeze("encoder")
        rng = np.random.default_rng(15)
        i = rng.random((16, 16))
        v = np.clip(0.5 + 0.3 * np.sin(np.arange(256).reshape(16, 16) / 9.0), 0, 1)
        wm = WeightMaps(np.ones((16, 16)), np.zeros((16, 16)))
        w = LossWeights(intensity=0, ssim=0, grad=0, mask=1)
        dist = []
        for _ in range(60):
            p, _ = stage2_step(p, [(i, v)], w, lr=5e-3, weight_maps=wm)
            f = decode(p, encode(p, v)).pixels
            dist.append(float(np.abs(f - v).mean()))
        assert dist[-1] < dist[0]

    def test_loss_trend_decreasing(self):
        p = CodecParams.initialize(hidden=(6, 8), seed=16).with_freeze("encoder")
        pairs = list(zip(textures(2, 16, 16), textures(2, 16, 17)))
        w = LossWeights(ssim=1.0)
        hist = []
        for _ in range(40):
            p, losses = stage2_step(p, pairs, w, lr=3e-3)
            hist.append(losses["total"])
        assert np.mean(hist[-10:]) < np.mean(hist[:10])


def test_fusion_loss_gradients_pass_numeric_check():
    # decoder-stage loss graph: intensity/grad/mask terms on 8x8 (SSIM needs
    # an 11x11 window and is checked separately on 16x16)
    from flowfuse import autodiff as ad
    from flowfuse.codec import _decode_nodes, _encode_nodes, _fusion_loss_nodes

    rng = np.random.default_rng(18)
    p = CodecParams.initialize(hidden=(2, 3), seed=18)
    i2, v2 = rng.random((8, 8)), rng.random((8, 8))

    def build(ns, weights):
        get_d = lambda k: ns[k]
        z = encode(p, v2).data[None]
        f = _decode_nodes(get_d, p, ad.constant(z))
        terms = _fusion_loss_nodes(f, i2[None], v2[None], weights, None)
        total = None
        for name, node in terms.items():
            weighted = node * getattr(weights, name)
            total = weighted if total is None else total + weighted
        return total

    w_small = LossWeights(ssim=0.0)
    rep = ad.check_gradients(
        lambda ns: build(ns, w_small),
        {k: p.decoder[k] for k in p.decoder.names()},
        tolerance=1e-4, sample=40, seed=3)
    assert rep.ok, str(rep)

    i16, v16 = rng.random((16, 16)), rng.random((16, 16))

    def build16(ns):
        get_d = lambda k: ns[k]
        z = encode(p, v16).data[None]
        f = _decode_nodes(get_d, p, ad.constant(z))
        terms = _fusion_loss_nodes(f, i16[None], v16[None],
                                   LossWeights(intensity=0, grad=0, mask=0), None)
        return terms["ssim"]

    rep16 = ad.check_gradients(
        build16, {k: p.decoder[k] for k in p.decoder.names()},
        tolerance=1e-4, sample=30, seed=4)
    assert rep16.ok, str(rep16)


def test_stage1_gradients_pass_numeric_check():
    # small codec so the finite-difference sweep stays quick
    from flowfuse import autodiff as ad
    from flowfuse.codec import _decode_nodes, _encode_nodes, _freq_loss_node

    p = CodecParams.initialize(hidden=(2, 3), seed=17)
    x = np.random.default_rng(17).random((8, 8))
    names_e = p.encoder.names()
    names_d = p.decoder.names()

    def build(ns):
        get_e = lambda k: ns[f"e.{k}"]
        get_d = lambda k: ns[f"d.{k}"]
        xc = ad.constant(x[None, None])
        recon = _decode_nodes(get_d, p, _encode_nodes(get_e, p, xc))
        l1 = ad.reduce_mean(ad.absolute(recon - xc))
        return l1 + _freq_loss_node(recon, xc) * 0.1

    inputs = {f"e.{k}": p.encoder[k] for k in names_e}
    inputs.update({f"d.{k}": p.decoder[k] for k in names_d})
    rep = ad.check_gradients(build, inputs, tolerance=1e-4, sample=40, seed=0)
    assert rep.ok, str(rep)


# -- the batched training graphs against the per-image loop they replace ----------------


def _old_ssim(a, b):
    """Tape SSIM with the 2-D 11 x 11 window, as one conv per moment."""
    from flowfuse import autodiff as ad

    x = np.arange(11) - 5.0
    k = np.exp(-0.5 * (x / 1.5) ** 2)
    win = ad.constant((np.outer(k, k) / np.outer(k, k).sum())[None, None])
    mu_a, mu_b = ad.conv2d(a, win), ad.conv2d(b, win)
    var_a = ad.conv2d(a * a, win) - mu_a * mu_a
    var_b = ad.conv2d(b * b, win) - mu_b * mu_b
    cov = ad.conv2d(a * b, win) - mu_a * mu_b
    num = (mu_a * mu_b * 2.0 + 0.01**2) * (cov * 2.0 + 0.03**2)
    den = (mu_a * mu_a + mu_b * mu_b + 0.01**2) * (var_a + var_b + 0.03**2)
    return ad.reduce_mean(num / den)


def _old_sobel_abs(a, kern):
    """|2-D valid correlation| of one image with a 3 x 3 kernel."""
    win = np.lib.stride_tricks.sliding_window_view(a, kern.shape)
    return np.abs(np.einsum("ijkl,kl->ij", win, kern))


def _old_stage1_step(p, batch, w, lr):
    """Stage one as one graph per image, summed and divided by n."""
    from flowfuse import autodiff as ad
    from flowfuse.codec import _decode_nodes, _encode_nodes, _freq_loss_node, _leaf_getter
    from flowfuse.optim import adam_step

    get_e, enc = _leaf_getter(p.encoder)
    get_d, dec = _leaf_getter(p.decoder)
    l1s, fres = [], []
    for a in batch:
        x = ad.constant(a[None, None])
        recon = _decode_nodes(get_d, p, _encode_nodes(get_e, p, x))
        l1s.append(ad.reduce_mean(ad.absolute(recon - x)))
        fres.append(_freq_loss_node(recon, x))
    l1 = sum(l1s[1:], l1s[0]) * (1.0 / len(batch))
    fre = sum(fres[1:], fres[0]) * (1.0 / len(batch))
    total = l1 + fre * w.fre
    grads = ad.backward(total, list(enc.values()) + list(dec.values()))
    new = CodecParams(adam_step(p.encoder, {k: grads[n] for k, n in enc.items()}, lr),
                      adam_step(p.decoder, {k: grads[n] for k, n in dec.items()}, lr),
                      p.hidden, p.latent_channels, p.alpha, p.freeze)
    return new, {"l1": float(l1.value), "fre": float(fre.value), "total": float(total.value)}


def _old_stage2_step(p, pairs, w, lr):
    """Stage two as one graph per pair, summed and divided by n."""
    from flowfuse import autodiff as ad
    from flowfuse.codec import (_const_getter, _decode_nodes, _encode_nodes, _leaf_getter,
                                _sobel_pair)
    from flowfuse.guidance import saliency_weights
    from flowfuse.optim import adam_step

    get_e = _const_getter(p.encoder)
    get_d, dec = _leaf_getter(p.decoder)
    sums = {"intensity": 0.0, "ssim": 0.0, "grad": 0.0, "mask": 0.0}
    total = None
    for i2, v2 in pairs:
        i4, v4 = ad.constant(i2[None, None]), ad.constant(v2[None, None])
        f = _decode_nodes(get_d, p, _encode_nodes(get_e, p, v4))
        gxf, gyf = _sobel_pair(f)
        tx, ty = (ad.constant(np.maximum(_old_sobel_abs(i2, k), _old_sobel_abs(v2, k))[None, None])
                  for k in (SOBEL_X, SOBEL_Y))
        wm = saliency_weights(i2, v2)
        blend = np.clip(wm.w_v * v2 + wm.w_ir * i2, 0.0, 1.0)
        terms = {
            "intensity": ad.reduce_mean(ad.absolute(f - np.maximum(i2, v2)[None, None])),
            "ssim": ad.constant(np.asarray(2.0)) - _old_ssim(f, i4) - _old_ssim(f, v4),
            "grad": (ad.reduce_mean(ad.absolute(gxf - tx))
                     + ad.reduce_mean(ad.absolute(gyf - ty))) * 0.5,
            "mask": ad.reduce_mean(ad.absolute(ad.constant(blend[None, None]) - f)),
        }
        pair_total = None
        for name, node in terms.items():
            sums[name] += float(node.value)
            weighted = node * getattr(w, name)
            pair_total = weighted if pair_total is None else pair_total + weighted
        total = pair_total if total is None else total + pair_total
    total = total * (1.0 / len(pairs))
    losses = {k: s / len(pairs) for k, s in sums.items()}
    losses["total"] = float(total.value)
    grads = ad.backward(total, list(dec.values()))
    new = CodecParams(p.encoder, adam_step(p.decoder, {k: grads[n] for k, n in dec.items()}, lr),
                      p.hidden, p.latent_channels, p.alpha, p.freeze)
    return new, losses


def _assert_close(got, want, rel=1e-12):
    assert abs(got - want) <= rel * abs(want), (got, want)


def _assert_same_update(p, new, old):
    """The Adam updates of every parameter agree to rel relative to their size."""
    for part in ("encoder", "decoder"):
        before, a, b = getattr(p, part), getattr(new, part), getattr(old, part)
        for k in before.names():
            d_new, d_old = a[k] - before[k], b[k] - before[k]
            scale = np.abs(d_old).max()
            assert np.abs(d_new - d_old).max() <= 1e-12 * max(scale, 1e-300), (part, k)


SHAPES = {"one shape": [16] * 4, "mixed shapes": [16, 20, 16, 20, 20]}


class TestBatchedSteps:
    """One graph per image shape gives the per-image loop's losses and updates."""

    @pytest.mark.parametrize("sizes", SHAPES.values(), ids=SHAPES.keys())
    def test_stage1_matches_the_per_image_loop(self, sizes):
        p = CodecParams.initialize(hidden=(4, 6), seed=19)
        batch = [textures(1, n, 19 + k)[0] for k, n in enumerate(sizes)]
        w = LossWeights(fre=0.3)
        new, losses = stage1_step(p, batch, w, lr=2e-3)
        old, want = _old_stage1_step(p, batch, w, lr=2e-3)
        for k in ("l1", "fre", "total"):
            _assert_close(losses[k], want[k])
        _assert_same_update(p, new, old)

    @pytest.mark.parametrize("sizes", SHAPES.values(), ids=SHAPES.keys())
    def test_stage2_matches_the_per_image_loop(self, sizes):
        p = CodecParams.initialize(hidden=(4, 6), seed=20).with_freeze("encoder")
        pairs = [(textures(1, n, 40 + k)[0], textures(1, n, 60 + k)[0])
                 for k, n in enumerate(sizes)]
        w = LossWeights(intensity=0.3, ssim=2.5, grad=0.3, mask=1.2)
        new, losses = stage2_step(p, pairs, w, lr=2e-3)
        old, want = _old_stage2_step(p, pairs, w, lr=2e-3)
        for k in ("intensity", "ssim", "grad", "mask", "total"):
            _assert_close(losses[k], want[k])
        _assert_same_update(p, new, old)

    def test_stage2_peak_memory_at_32px(self):
        # one stage-two step of the benchmark's recipe (32 px, 4 pairs, hidden
        # 24,48): 25.96 MiB peak with one graph per pair, the 2-D SSIM window
        # and the im2col windows of constant weights kept on the tape; 6.81 MiB
        # batched, separable and without those windows (numpy 2.4)
        import tracemalloc

        from flowfuse import synth

        p = CodecParams.initialize(hidden=(24, 48), seed=1).with_freeze("encoder")
        pairs = [tuple(img.pixels for img in synth.make_pair("ivif", 32, 1, k))
                 for k in range(4)]
        w = LossWeights(intensity=0.3, ssim=2.5, grad=0.3, mask=1.2)
        tracemalloc.start()
        try:
            stage2_step(p, pairs, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 25.96 * 2**20, peak / 2**20


def _two_call_ssim(a, b):
    """Tape SSIM that filters both images itself, once per call."""
    from flowfuse import autodiff as ad
    from flowfuse.codec import _ssim_filter

    mu_a, mu_b = _ssim_filter(a), _ssim_filter(b)
    var_a = _ssim_filter(a * a) - mu_a * mu_a
    var_b = _ssim_filter(b * b) - mu_b * mu_b
    cov = _ssim_filter(a * b) - mu_a * mu_b
    num = (mu_a * mu_b * 2.0 + 0.01**2) * (cov * 2.0 + 0.03**2)
    den = (mu_a * mu_a + mu_b * mu_b + 0.01**2) * (var_a + var_b + 0.03**2)
    return ad.reduce_mean(num / den)


def test_ssim_term_shares_the_fused_moments_with_the_same_value():
    from flowfuse import autodiff as ad
    from flowfuse.codec import _decode_nodes, _fusion_loss_nodes, _leaf_getter

    p = CodecParams.initialize(hidden=(4, 6), seed=27)
    i3, v3 = np.stack(textures(3, 16, 27)), np.stack(textures(3, 16, 28))
    z = np.stack([encode(p, v).data for v in v3])
    w = LossWeights(intensity=0, grad=0, mask=0)

    def ssim_term(shared):
        get_d, dec = _leaf_getter(p.decoder)
        f = _decode_nodes(get_d, p, ad.constant(z))
        if shared:
            term = _fusion_loss_nodes(f, i3, v3, w, None)["ssim"]
        else:
            term = (ad.constant(np.asarray(2.0)) - _two_call_ssim(f, ad.constant(i3[:, None]))
                    - _two_call_ssim(f, ad.constant(v3[:, None])))
        grads = ad.backward(term, list(dec.values()))
        return term.value, {k: grads[n] for k, n in dec.items()}

    value, grads = ssim_term(shared=True)
    want, want_grads = ssim_term(shared=False)
    assert value == want  # the same products in the same order: bit for bit
    for k, g in grads.items():
        # the shared moments sum their two adjoints before one filter pass
        assert np.abs(g - want_grads[k]).max() <= 1e-12 * np.abs(want_grads[k]).max(), k


def test_ssim_means_are_the_metric_filter_bit_for_bit():
    from flowfuse import autodiff as ad
    from flowfuse.codec import _ssim_moments
    from flowfuse.image import separable_filter
    from flowfuse.metrics import SSIM_WINDOW, ssim_moments

    x4 = np.stack(textures(3, 44, 29))[:, None]  # 34 outputs a side: two row tiles
    mu, sq = (m.value for m in _ssim_moments(ad.constant(x4)))
    assert np.array_equal(mu, separable_filter(x4, SSIM_WINDOW))
    assert np.array_equal(sq, separable_filter(x4 * x4, SSIM_WINDOW))
    for img, m in zip(x4[:, 0], mu[:, 0]):
        assert np.array_equal(m, ssim_moments(img)[0])


def test_stage2_backward_calls_no_vjp_of_the_frozen_encoder(monkeypatch):
    # the frozen encoder's output takes no gradient, so it holds no parents and
    # no vjp: the backward, spied on the decoder side, stops at it
    from flowfuse import codec as codec_mod

    latents, decoder_nodes, called = [], [], []
    real_decode = codec_mod._decode_nodes

    def decode_and_spy(get, p, z):
        latents.append(z)
        f = real_decode(get, p, z)
        stack = [f]
        while stack:
            node = stack.pop()
            if node.vjp is not None and all(node is not d for d in decoder_nodes):
                decoder_nodes.append(node)
                node.vjp = (lambda n, vjp: lambda g: called.append(n) or vjp(g))(node, node.vjp)
                stack.extend(node.parents)
        return f

    monkeypatch.setattr(codec_mod, "_decode_nodes", decode_and_spy)
    p = CodecParams.initialize(hidden=(4, 6), seed=29).with_freeze("encoder")
    pairs = [(textures(1, 16, 29)[0], textures(1, 16, 30)[0])]
    stage2_step(p, pairs, LossWeights())
    (z,) = latents
    assert z.op == "add" and not z.requires_grad
    assert z.parents == () and z.vjp is None
    assert any(z in n.parents for n in decoder_nodes)  # the walk reached the encoder
    assert sorted(n.op for n in decoder_nodes if "conv" in n.op) == ["conv2d", "tconv2d", "tconv2d"]
    assert {id(n) for n in called} == {id(n) for n in decoder_nodes}


def test_encode_equals_the_stage1_graph_bit_for_bit():
    # inference builds constants and stage one builds leaves; conv2d picks its
    # forward by geometry alone, so both run the same formulas
    from flowfuse.codec import _encode_nodes, _leaf_getter

    p = CodecParams.initialize(seed=34)
    imgs = textures(3, 32, 34)
    get_e, _ = _leaf_getter(p.encoder)
    z = _encode_nodes(get_e, p, ad.constant(np.stack(imgs)[:, None]))
    assert z.requires_grad
    for k, img in enumerate(imgs):
        assert np.array_equal(encode(p, img).data, z.value[k])


def test_encode_peak_memory_at_128_px():
    # the latent layer runs weights first, so encode never holds the 4.5 MiB
    # window matrix of its 64-channel input
    import tracemalloc

    p = CodecParams.initialize(seed=35)
    img = np.random.default_rng(35).random((128, 128))
    tracemalloc.start()
    try:
        encode(p, img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 2**20, peak / 2**20
