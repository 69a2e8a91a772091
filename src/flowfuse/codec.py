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
from .image import Image, as_gray
from .guidance import WeightMaps, saliency_weights, weighted_target
from .metrics import SSIM_WIN, SSIM_WINDOW, ssim_map
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
    mask: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"loss weight {f.name} must be finite and >= 0, got {v}")


def param_shapes(hidden, latent_channels):
    """(encoder, decoder) parameter shapes, name -> shape, in parameter order.
    The codec maps one channel, luma, to the latent and back."""
    c1, c2 = hidden
    k = (_K, _K)
    enc = {"w0": (c1, 1, *k), "b0": (c1, 1, 1),
           "w1": (c2, c1, *k), "b1": (c2, 1, 1),
           "w2": (latent_channels, c2, *k), "b2": (latent_channels, 1, 1)}
    dec = {"w0": (c2, latent_channels, *k), "b0": (c2, 1, 1),
           "w1": (c2, c1, *k), "b1": (c1, 1, 1),
           "w2": (c1, 1, *k), "b2": (1, 1, 1)}
    return enc, dec


class CodecParams:
    """Encoder/decoder parameter sets plus architecture and freeze state."""

    def __init__(self, encoder: ParamSet, decoder: ParamSet, hidden=(32, 64),
                 latent_channels=4, alpha=0.2, freeze="none"):
        if freeze not in ("none", "encoder"):
            raise ValueError(f"freeze must be none or encoder, got {freeze!r}")
        self.encoder = encoder
        self.decoder = decoder
        self.hidden = tuple(int(h) for h in hidden)
        self.latent_channels = int(latent_channels)
        self.alpha = ad.check_slope(alpha, "leaky slope alpha")
        self.freeze = freeze

    @staticmethod
    def initialize(hidden=(32, 64), latent_channels=4, alpha=0.2, seed=0) -> "CodecParams":
        rng = np.random.default_rng(seed)
        enc_shapes, dec_shapes = param_shapes(hidden, latent_channels)

        def he(shape, fan_in):
            return rng.standard_normal(shape) * np.sqrt(2.0 / (fan_in * _K * _K))

        # a conv weight is (C_out, C_in, k, k); the decoder's w1 and w2 are
        # transposed, (C_in, C_out, k, k)
        enc = {k: he(s, s[1]) if k[0] == "w" else np.zeros(s) for k, s in enc_shapes.items()}
        dec = {k: he(s, s[1] if k == "w0" else s[0]) if k[0] == "w" else np.zeros(s)
               for k, s in dec_shapes.items()}
        # mid-range output at init so the clamp does not start saturated
        dec["b2"] = np.full(dec_shapes["b2"], 0.5)
        return CodecParams(ParamSet(enc), ParamSet(dec), hidden, latent_channels, alpha)

    def with_freeze(self, freeze: str) -> "CodecParams":
        return CodecParams(self.encoder, self.decoder, self.hidden, self.latent_channels,
                           self.alpha, freeze)


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
    shift (see _freq_loss_node)."""
    return ad.minmax_normalize(ad.log1p(ad.complex_magnitude(ad.fft2(img_node))))


def _freq_loss_node(a: ad.Node, b: ad.Node) -> ad.Node:
    """Mean squared difference of the normalized log-magnitude spectra of
    the images in a and b, on the power-of-two padded grid.

    The value is that of center-shifted spectra: both spectra would be
    shifted by the same permutation before the pixelwise difference.
    """
    d = _log_spectrum_node(a) - _log_spectrum_node(b)
    return ad.reduce_mean(d * d)


# -- fusion loss -----------------------------------------------------------------------

def _ssim_filter(x: ad.Node) -> ad.Node:
    """The 11x11 SSIM window, valid mode: the bits of the metric's
    image.separable_filter(x, SSIM_WINDOW)."""
    return ad.band_filter(x, SSIM_WINDOW, SSIM_WINDOW)


def _ssim_moments(x: ad.Node):
    """The window means of x and of x·x: the statistics SSIM takes from one
    (n, 1, H, W) image node alone."""
    h, w = x.value.shape[-2:]
    if h < SSIM_WIN or w < SSIM_WIN:
        raise ValueError(f"SSIM needs at least {SSIM_WIN}x{SSIM_WIN} pixels, got {h}x{w}")
    return _ssim_filter(x), _ssim_filter(x * x)


def _ssim_node(a: ad.Node, b: ad.Node, a_moments) -> ad.Node:
    """Mean local SSIM (metrics.ssim_map's window and constants) between
    (n, 1, H, W) nodes, over all n images.

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
    return ad.reduce_mean(ssim_map(mu_a, mu_b, var_a, var_b, cov))


# Sobel x is outer([1, 2, 1], [-1, 0, 1]): smoothing down the rows, a central
# difference along them; Sobel y is its transpose.
_SMOOTH, _DIFF = np.array([1.0, 2.0, 1.0]), np.array([-1.0, 0.0, 1.0])


def _sobel_pair(x4: ad.Node):
    """|Sobel x| and |Sobel y| of an (n, 1, H, W) node, valid mode."""
    if x4.value.ndim != 4:
        raise ValueError(f"Sobel expects a 4-D input (n, 1, H, W), got shape {x4.shape}")
    if x4.shape[1] != 1:
        raise ValueError(f"Sobel channel mismatch: input {x4.shape[1]}, expected 1")
    return tuple(ad.absolute(ad.band_filter(x4, kr, kc))
                 for kr, kc in ((_SMOOTH, _DIFF), (_DIFF, _SMOOTH)))


def _fusion_loss_nodes(f: ad.Node, i3: np.ndarray, v3: np.ndarray, w: LossWeights,
                       weight_maps: WeightMaps | None) -> dict:
    """Per-term scalar nodes, each a mean over the n images, for one
    (n, 1, H, W) fused node against (n, H, W) stacks of gray sources.

    Terms: intensity L1 to max(i, v), SSIM deficit to both sources, L1
    between absolute Sobel responses and their source-wise max, and the L1
    saliency mask term. A term whose weight is 0 is not built.
    """
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
        # one Sobel over the sources stacked, i then v: the bits of one per source
        tx, ty = (ad.constant(np.maximum(*np.split(g.value, 2)))
                  for g in _sobel_pair(ad.constant(np.concatenate([i4, v4]))))
        gsum = ad.reduce_mean(ad.absolute(gxf - tx)) + ad.reduce_mean(ad.absolute(gyf - ty))
        terms["grad"] = gsum * 0.5
    if w.mask:
        blend = np.stack([
            weighted_target(i, v, weight_maps if weight_maps is not None
                            else saliency_weights(i, v))
            for i, v in zip(i3, v3)])
        terms["mask"] = ad.reduce_mean(ad.absolute(ad.constant(blend[:, None]) - f))
    return terms


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


def _update(p: CodecParams, total: ad.Node, losses: dict, stage: str, enc_leaves: dict,
            dec_leaves: dict, lr, beta1, beta2):
    """The end of a training step: record total in losses, raise
    FloatingPointError if it is non-finite, else run one backward into the
    leaves and one Adam step per parameter set that has leaves; a set without
    them is carried over as the same object. Returns (new params, losses)."""
    losses["total"] = float(total.value)
    if not np.isfinite(losses["total"]):
        raise FloatingPointError(f"non-finite {stage} loss: {losses}")
    grads = ad.backward(total, [*enc_leaves.values(), *dec_leaves.values()])

    def adam(pset, leaves):
        if not leaves:
            return pset
        return adam_step(pset, {k: grads[nd] for k, nd in leaves.items()}, lr, beta1, beta2)

    return CodecParams(adam(p.encoder, enc_leaves), adam(p.decoder, dec_leaves), p.hidden,
                       p.latent_channels, p.alpha, p.freeze), losses


def stage1_step(p: CodecParams, batch, w: LossWeights, lr=1e-3, beta1=0.9, beta2=0.999):
    """One Adam step of encoder + decoder on L1 reconstruction plus the
    spectral loss; returns (updated params, component means). The batch holds
    gray images: a colour image is rejected, so take its image.luma first."""
    if p.freeze != "none":
        raise ValueError("stage one trains encoder and decoder; freeze must be none")
    imgs = [as_gray(item) for item in batch]
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
    losses = {"l1": float(l1.value), "fre": float(fre.value) if fre is not None else 0.0}
    return _update(p, total, losses, "stage-one", enc_leaves, dec_leaves, lr, beta1, beta2)


def stage2_step(p: CodecParams, pairs, w: LossWeights, lr=1e-3, beta1=0.9, beta2=0.999,
                weight_maps: WeightMaps | None = None):
    """One decoder-only Adam step on the fusion loss over (i, v) pairs.

    The fused candidate is decode(encode(v)): sampling is bypassed during
    training and applied only at inference. The encoder must be frozen and is
    carried over bit-identically. Sources are gray, as in stage one.
    """
    if p.freeze != "encoder":
        raise ValueError("stage two requires freeze='encoder'")
    srcs = [(as_gray(i_img), as_gray(v_img)) for i_img, v_img in pairs]
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
    # no encoder leaves: the frozen encoder is carried over, bit-identical
    return _update(p, _weighted_sum(total_parts), losses, "stage-two", {}, dec_leaves,
                   lr, beta1, beta2)
