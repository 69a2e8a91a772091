"""Task-specific latent autoencoder and its two training stages.

The encoder downsamples 4x with two stride-2 convolutions into a 4-channel
latent; the decoder mirrors it with transposed convolutions and a final clamp
to [0, 1]. Stage one fits encoder and decoder with reconstruction plus a
spectral log-magnitude loss; stage two freezes the encoder and fine-tunes the
decoder alone with the fusion loss, so that decoding a source latent starts
producing fused-looking images.

Each training step runs one batched (n, 1, H, W) graph over all its images
and one backward pass. A batch with several image shapes gets one graph per
shape, each weighted by its share of the images, so every loss is the mean
over images of the per-image loss.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .image import Image, as_gray, correlate1d_valid, gaussian_window1d
from .guidance import WeightMaps, saliency_weights, weighted_target
from .optim import ParamSet, adam_step
from .tensor import Tensor, as_array

_K = 3  # all convolutions are 3x3


@dataclass
class LossWeights:
    """Coefficients of the training objectives; all finite and >= 0."""

    fre: float = 0.1
    intensity: float = 1.0
    ssim: float = 1.0
    grad: float = 1.0
    color: float = 0.5
    mask: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"loss weight {f.name} must be finite and >= 0, got {v}")


class CodecParams:
    """Encoder/decoder parameter sets plus architecture and freeze state."""

    def __init__(self, encoder: ParamSet, decoder: ParamSet, in_channels=1,
                 hidden=(32, 64), latent_channels=4, alpha=0.2, freeze="none"):
        if freeze not in ("none", "encoder"):
            raise ValueError(f"freeze must be none or encoder, got {freeze!r}")
        self.encoder = encoder
        self.decoder = decoder
        self.in_channels = int(in_channels)
        self.hidden = tuple(int(h) for h in hidden)
        self.latent_channels = int(latent_channels)
        self.alpha = ad.check_slope(alpha, "leaky slope alpha")
        self.freeze = freeze

    @staticmethod
    def initialize(in_channels=1, hidden=(32, 64), latent_channels=4, alpha=0.2,
                   seed=0) -> "CodecParams":
        rng = np.random.default_rng(seed)
        c1, c2 = hidden

        def conv_w(cout, cin):
            std = np.sqrt(2.0 / (cin * _K * _K))
            return rng.standard_normal((cout, cin, _K, _K)) * std

        def tconv_w(cin, cout):
            std = np.sqrt(2.0 / (cin * _K * _K))
            return rng.standard_normal((cin, cout, _K, _K)) * std

        enc = ParamSet({
            "w0": conv_w(c1, in_channels), "b0": np.zeros((c1, 1, 1)),
            "w1": conv_w(c2, c1), "b1": np.zeros((c2, 1, 1)),
            "w2": conv_w(latent_channels, c2), "b2": np.zeros((latent_channels, 1, 1)),
        })
        dec = ParamSet({
            "w0": conv_w(c2, latent_channels), "b0": np.zeros((c2, 1, 1)),
            "w1": tconv_w(c2, c1), "b1": np.zeros((c1, 1, 1)),
            "w2": tconv_w(c1, in_channels),
            # mid-range output at init so the clamp does not start saturated
            "b2": np.full((in_channels, 1, 1), 0.5),
        })
        return CodecParams(enc, dec, in_channels, hidden, latent_channels, alpha)

    def with_freeze(self, freeze: str) -> "CodecParams":
        return CodecParams(self.encoder, self.decoder, self.in_channels, self.hidden,
                           self.latent_channels, self.alpha, freeze)


# -- forward graphs ------------------------------------------------------------------


def _encode_nodes(get, p: CodecParams, x: ad.Node) -> ad.Node:
    h = ad.leaky_relu(ad.conv2d(x, get("w0"), 2, 1) + get("b0"), p.alpha)
    h = ad.leaky_relu(ad.conv2d(h, get("w1"), 2, 1) + get("b1"), p.alpha)
    return ad.conv2d(h, get("w2"), 1, 1) + get("b2")


def _decode_nodes(get, p: CodecParams, z: ad.Node) -> ad.Node:
    n, _, h, w = z.value.shape
    y = ad.leaky_relu(ad.conv2d(z, get("w0"), 1, 1) + get("b0"), p.alpha)
    y = ad.leaky_relu(ad.transposed_conv2d(y, get("w1"), 2, 1, (2 * h, 2 * w)) + get("b1"),
                      p.alpha)
    y = ad.transposed_conv2d(y, get("w2"), 2, 1, (4 * h, 4 * w)) + get("b2")
    return ad.clamp(y, 0.0, 1.0)


def _const_getter(pset: ParamSet):
    cache = {k: ad.constant(pset[k]) for k in pset.names()}
    return lambda k: cache[k]


def _leaf_getter(pset: ParamSet):
    cache = {k: ad.leaf(pset[k]) for k in pset.names()}
    return (lambda k: cache[k]), cache


def _check_divisible(a: np.ndarray):
    h, w = a.shape
    if h % 4 or w % 4:
        raise ValueError(
            f"image extents must be divisible by 4, got {h}x{w}; "
            f"pad by ({(-h) % 4}, {(-w) % 4}) pixels"
        )


def encode(p: CodecParams, img) -> Tensor:
    """Image (H, W) -> latent (latent_channels, H/4, W/4); deterministic."""
    a = as_gray(img)
    _check_divisible(a)
    z = _encode_nodes(_const_getter(p.encoder), p, ad.constant(a[None, None]))
    return Tensor(z.value[0])


def decode(p: CodecParams, z) -> Image:
    """Latent (latent_channels, h, w) -> gray image (4h, 4w) in [0, 1]."""
    a = as_array(z)
    if a.ndim != 3 or a.shape[0] != p.latent_channels:
        raise ValueError(
            f"latent must be ({p.latent_channels}, h, w), got {a.shape}"
        )
    y = _decode_nodes(_const_getter(p.decoder), p, ad.constant(a[None]))
    return Image(y.value[0, 0])


# -- frequency loss -------------------------------------------------------------------


def _log_spectrum_node(img_node: ad.Node) -> ad.Node:
    """Min-max-normalized log(1 + |DFT|) of each image, without the center
    shift (see freq_loss)."""
    return ad.minmax_normalize(ad.log1p(ad.complex_magnitude(ad.fft2(img_node))))


def _freq_loss_node(a: ad.Node, b: ad.Node) -> ad.Node:
    d = _log_spectrum_node(a) - _log_spectrum_node(b)
    return ad.reduce_mean(d * d)


def freq_loss(x, xr) -> float:
    """Mean squared difference of normalized, center-shifted log-magnitude
    spectra of the two images (gray, or color averaged to one channel).

    Spectra are compared on the power-of-two padded grid. The value is
    identical with or without the center shift, since both spectra are
    shifted by the same permutation before the pixelwise difference.
    """
    a, b = _loss_gray(x), _loss_gray(xr)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(_freq_loss_node(ad.constant(a), ad.constant(b)).value)


def _loss_gray(img) -> np.ndarray:
    if isinstance(img, Image) and img.channels == 3:
        return img.pixels.mean(axis=2)
    a = as_array(img) if not isinstance(img, Image) else img.pixels
    if a.ndim == 3:
        return a.mean(axis=2)
    return a


# -- fusion loss -----------------------------------------------------------------------

_SSIM_SIGMA = 1.5
_SSIM_WIN = 11
_SSIM_C1 = 0.01**2
_SSIM_C2 = 0.03**2
_SSIM_K = gaussian_window1d(_SSIM_WIN, _SSIM_SIGMA)


def _ssim_filter(x: ad.Node) -> ad.Node:
    """The 11x11 SSIM window as two valid 1-D passes: along rows, then columns."""
    return ad.conv2d(ad.conv2d(x, _SSIM_K[None, None, None, :]), _SSIM_K[None, None, :, None])


def _ssim_moments(x: ad.Node):
    """The window means of x and of x·x: the statistics SSIM takes from one
    (n, 1, H, W) image node alone."""
    h, w = x.value.shape[-2:]
    if h < _SSIM_WIN or w < _SSIM_WIN:
        raise ValueError(f"SSIM needs at least {_SSIM_WIN}x{_SSIM_WIN} pixels, got {h}x{w}")
    return _ssim_filter(x), _ssim_filter(x * x)


def _ssim_node(a: ad.Node, b: ad.Node, a_moments) -> ad.Node:
    """Mean local SSIM (11x11 Gaussian window, sigma 1.5, L = 1, valid mode)
    between (n, 1, H, W) nodes, over all n images.

    a_moments is _ssim_moments(a), passed in so that several comparisons
    against one image share its filtered mean and square: the fusion loss
    compares the fused image with both sources and filters it once. Only b's
    moments and the cross term a·b are filtered here.
    """
    mu_a, sq_a = a_moments
    mu_b, sq_b = _ssim_moments(b)
    var_a = sq_a - mu_a * mu_a
    var_b = sq_b - mu_b * mu_b
    cov = _ssim_filter(a * b) - mu_a * mu_b
    num = (mu_a * mu_b * 2.0 + _SSIM_C1) * (cov * 2.0 + _SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    return ad.reduce_mean(num / den)


# Sobel x is outer([1, 2, 1], [-1, 0, 1]): smoothing down the rows, a central
# difference along them; Sobel y is its transpose.
_SOBEL_SMOOTH = np.array([1.0, 2.0, 1.0])
_SOBEL_DIFF = np.array([-1.0, 0.0, 1.0])
_SOBEL_X = np.outer(_SOBEL_SMOOTH, _SOBEL_DIFF)


def _sobel(stack: np.ndarray):
    """Valid-mode Sobel (x, y) responses of an (n, H, W) stack, each as two
    1-D passes."""
    if stack.ndim != 3:
        raise ValueError(f"Sobel needs an (n, H, W) stack, got shape {stack.shape}")
    gx = correlate1d_valid(correlate1d_valid(stack, _SOBEL_SMOOTH, 1), _SOBEL_DIFF, 2)
    gy = correlate1d_valid(correlate1d_valid(stack, _SOBEL_DIFF, 1), _SOBEL_SMOOTH, 2)
    return gx, gy


def _sobel_pair(x4: ad.Node):
    kx = ad.constant(_SOBEL_X[None, None])
    ky = ad.constant(_SOBEL_X.T[None, None])
    return ad.absolute(ad.conv2d(x4, kx)), ad.absolute(ad.conv2d(x4, ky))


def _fusion_loss_nodes(f: ad.Node, i3: np.ndarray, v3: np.ndarray, w: LossWeights,
                       weight_maps: WeightMaps | None) -> dict:
    """Per-term scalar nodes, each a mean over the n images, for one
    (n, 1, H, W) fused node against (n, H, W) stacks of gray sources. The
    color term is handled outside (chroma never passes through the decoder
    here)."""
    i4, v4 = i3[:, None], v3[:, None]
    terms = {}
    if w.intensity:
        target = ad.constant(np.maximum(i4, v4))
        terms["intensity"] = ad.reduce_mean(ad.absolute(f - target))
    if w.ssim:
        two = ad.constant(np.asarray(2.0))
        f_moments = _ssim_moments(f)
        terms["ssim"] = (two - _ssim_node(f, ad.constant(i4), f_moments)
                         - _ssim_node(f, ad.constant(v4), f_moments))
    if w.grad:
        gxf, gyf = _sobel_pair(f)
        tx, ty = (ad.constant(np.maximum(np.abs(gi), np.abs(gv))[:, None])
                  for gi, gv in zip(_sobel(i3), _sobel(v3)))
        gsum = ad.reduce_mean(ad.absolute(gxf - tx)) + ad.reduce_mean(ad.absolute(gyf - ty))
        terms["grad"] = gsum * 0.5
    if w.mask:
        blend = np.stack([
            weighted_target(i, v, weight_maps if weight_maps is not None
                            else saliency_weights(i, v))
            for i, v in zip(i3, v3)])
        terms["mask"] = ad.reduce_mean(ad.absolute(ad.constant(blend[:, None]) - f))
    return terms


def _chroma_l1(f, v) -> float:
    from .image import rgb_ycbcr

    def chroma(img):
        if not isinstance(img, Image) or img.channels != 3:
            return None
        ycc = img if img.space == "ycbcr" else rgb_ycbcr(img, "forward")
        return ycc.pixels[:, :, 1:]

    cf, cv = chroma(f), chroma(v)
    if cf is None or cv is None:
        return 0.0
    return float(np.mean(np.abs(cf - cv)))


def fusion_loss(f, i, v, w: LossWeights, weight_maps: WeightMaps | None = None):
    """Weighted fusion objective against the two sources.

    Terms (each a per-pixel mean): intensity L1 to max(i, v), SSIM deficit to
    both sources, L1 between absolute Sobel responses and their source-wise
    max, chroma L1 between f and v (color inputs only), and the L1 saliency
    mask term. Returns (total, components dict with raw term values).
    """
    f2, i2, v2 = _loss_gray(f), _loss_gray(i), _loss_gray(v)
    if not (f2.shape == i2.shape == v2.shape):
        raise ValueError("fused and source images must share a shape")
    terms = _fusion_loss_nodes(ad.constant(f2[None, None]), i2[None], v2[None], w,
                               weight_maps)
    comps = {k: float(n.value) for k, n in terms.items()}
    comps.setdefault("intensity", 0.0)
    comps.setdefault("ssim", 0.0)
    comps.setdefault("grad", 0.0)
    comps.setdefault("mask", 0.0)
    comps["color"] = _chroma_l1(f, v) if w.color else 0.0
    total = (w.intensity * comps["intensity"] + w.ssim * comps["ssim"]
             + w.grad * comps["grad"] + w.color * comps["color"]
             + w.mask * comps["mask"])
    return total, comps


# -- training steps ---------------------------------------------------------------------


def _shape_groups(arrays) -> list:
    """Indices of the equal-shape arrays, one list per shape, in first-seen
    order."""
    groups = {}
    for k, a in enumerate(arrays):
        groups.setdefault(a.shape, []).append(k)
    return list(groups.values())


def _weighted_sum(parts):
    """Sum of node * weight over (node, weight) pairs."""
    out = None
    for node, weight in parts:
        term = node * weight
        out = term if out is None else out + term
    return out


def stage1_step(p: CodecParams, batch, w: LossWeights, lr=1e-3, beta1=0.9, beta2=0.999):
    """One Adam step of encoder + decoder on L1 reconstruction plus the
    spectral loss; returns (updated params, component means)."""
    if p.freeze != "none":
        raise ValueError("stage one trains encoder and decoder; freeze must be none")
    imgs = [_loss_gray(item) for item in batch]
    for a in imgs:
        _check_divisible(a)
    get_e, enc_leaves = _leaf_getter(p.encoder)
    get_d, dec_leaves = _leaf_getter(p.decoder)
    l1_parts, fre_parts = [], []
    for idx in _shape_groups(imgs):
        x = ad.constant(np.stack([imgs[k] for k in idx])[:, None])
        recon = _decode_nodes(get_d, p, _encode_nodes(get_e, p, x))
        share = len(idx) / len(imgs)
        l1_parts.append((ad.reduce_mean(ad.absolute(recon - x)), share))
        if w.fre:
            fre_parts.append((_freq_loss_node(recon, x), share))
    l1 = _weighted_sum(l1_parts)
    total = l1
    fre = None
    if fre_parts:
        fre = _weighted_sum(fre_parts)
        total = l1 + fre * w.fre
    losses = {
        "l1": float(l1.value),
        "fre": float(fre.value) if fre is not None else 0.0,
        "total": float(total.value),
    }
    if not np.isfinite(losses["total"]):
        raise FloatingPointError(f"non-finite stage-one loss: {losses}")
    leaves = {**{f"enc.{k}": nd for k, nd in enc_leaves.items()},
              **{f"dec.{k}": nd for k, nd in dec_leaves.items()}}
    grads = ad.backward(total, list(leaves.values()))
    enc_g = {k: grads[enc_leaves[k]] for k in enc_leaves}
    dec_g = {k: grads[dec_leaves[k]] for k in dec_leaves}
    new = CodecParams(
        adam_step(p.encoder, enc_g, lr, beta1, beta2),
        adam_step(p.decoder, dec_g, lr, beta1, beta2),
        p.in_channels, p.hidden, p.latent_channels, p.alpha, p.freeze,
    )
    return new, losses


def stage2_step(p: CodecParams, pairs, w: LossWeights, lr=1e-3, beta1=0.9, beta2=0.999,
                weight_maps: WeightMaps | None = None):
    """One decoder-only Adam step on the fusion loss over (i, v) pairs.

    The fused candidate is decode(encode(v)): sampling is bypassed during
    training and applied only at inference. The encoder must be frozen and is
    carried over bit-identically.
    """
    if p.freeze != "encoder":
        raise ValueError("stage two requires freeze='encoder'")
    srcs = [(_loss_gray(i_img), _loss_gray(v_img)) for i_img, v_img in pairs]
    if not srcs:
        raise ValueError("stage two needs at least one (i, v) pair")
    for k, (i2, v2) in enumerate(srcs):
        if i2.shape != v2.shape:
            raise ValueError(f"pair {k}: i is {i2.shape} but v is {v2.shape}")
        _check_divisible(v2)
    get_e = _const_getter(p.encoder)
    get_d, dec_leaves = _leaf_getter(p.decoder)
    losses = {"intensity": 0.0, "ssim": 0.0, "grad": 0.0, "mask": 0.0}
    total_parts = []
    for idx in _shape_groups([v2 for _, v2 in srcs]):
        i3 = np.stack([srcs[k][0] for k in idx])
        v3 = np.stack([srcs[k][1] for k in idx])
        f = _decode_nodes(get_d, p, _encode_nodes(get_e, p, ad.constant(v3[:, None])))
        terms = _fusion_loss_nodes(f, i3, v3, w, weight_maps)
        share = len(idx) / len(srcs)
        for name, node in terms.items():
            losses[name] += float(node.value) * share
        total_parts.append((_weighted_sum((node, getattr(w, name))
                                          for name, node in terms.items()), share))
    total_node = _weighted_sum(total_parts)
    losses["color"] = 0.0  # luma-only training path
    losses["total"] = float(total_node.value)
    if not np.isfinite(losses["total"]):
        raise FloatingPointError(f"non-finite stage-two loss: {losses}")
    grads = ad.backward(total_node, list(dec_leaves.values()))
    dec_g = {k: grads[dec_leaves[k]] for k in dec_leaves}
    new = CodecParams(
        p.encoder,  # same object: bit-identical by construction
        adam_step(p.decoder, dec_g, lr, beta1, beta2),
        p.in_channels, p.hidden, p.latent_channels, p.alpha, p.freeze,
    )
    return new, losses
