"""The ten fusion evaluation metrics with fixed conventions.

Inputs are gray images in [0, 1]. Conventions (chosen once, documented here,
and locked by tests so numbers are comparable run-to-run):

  EN      256-bin histogram entropy, bits.
  MI      joint 256 x 256 histogram; report value is MI(f, a) + MI(f, b).
  SF      sqrt(RF^2 + CF^2); RF/CF are RMS horizontal/vertical first
          differences of the 255-scaled image.
  AG      mean over the (H-1) x (W-1) grid of sqrt((dx^2 + dy^2) / 2),
          255-scaled first differences.
  SSIM    11 x 11 Gaussian window, sigma 1.5, K1 = 0.01, K2 = 0.03, L = 1,
          valid-mode windows; averaged over the two sources.
  PSNR    10 log10(1 / MSE) on the [0, 1] domain, capped at 99 dB when
          MSE < 1e-10; averaged over the two sources.
  VIF     pixel-domain, 4 scales, Gaussian windows 2^(4-s+1)+1 with sigma
          N/5, same-mode convolutions, GSM noise variance 2 on the 255
          scale; averaged over the two sources.
  SCD     corr(f - b, a) + corr(f - a, b); zero-variance correlations are 0.
  CC      mean of corr(f, a) and corr(f, b).
  Qcb     contrast-sensitivity weighted preservation: DoG CSF in the
          frequency domain (the real-input DFT on the power-of-two padded
          grid, 30 pixels per degree), band-pass contrast (sigma 2 over
          sigma 32 local means), saturation masking t|C|^p / (h|C|^q + Z) with
          t = h = 1, p = 3, q = 2, Z = 1e-4, saliency weights from squared
          masked contrast, preservation = min/max contrast ratio.

Every window above is a Gaussian, which is separable: SSIM and VIF filter
with the normalized 1-D window through image.separable_filter: one
band-matrix product down the rows and one along them, in row tiles of 32
outputs (see the image module for the geometry rule), and the Qcb local
means use the image module's blur, the same product with replicate padding.
VIF's downsample keeps the even rows of its same-mode band. The conventions
listed (sizes, sigmas, valid or same mode, zero padding) hold as stated; only
the order of the sums differs from a 2-D window.

report filters each image once. The fused image's SSIM moments (ssim_moments)
and VIF pyramid (vif_scales) do not depend on the source it is compared with,
so report builds them once and passes them to both sources' calls through
ssim_psnr's f_moments and vif_pair's dist_scales; a call only reads them.
Called without them, each function computes its own, with the same bits.
Variances are E[x^2] - mu^2, formed in place.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .fft import _fft2_raw, _pad_pow2, next_pow2
from .image import (as_gray, bins256, check_unit_range, gaussian_blur, gaussian_window1d,
                    histogram256, separable_filter)

_COLUMNS = ("en", "mi", "sf", "vif", "ssim", "ag", "scd", "psnr", "cc", "qcb")


# -- histogram metrics ---------------------------------------------------------------


def entropy(x) -> float:
    """Shannon entropy of the 256-bin intensity histogram, in bits."""
    p = histogram256(as_gray(x))
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def mutual_information(f, s) -> float:
    """MI between two gray images over the shared 256-bin quantization."""
    a, b = as_gray(f), as_gray(s)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    check_unit_range(a, "first image")
    check_unit_range(b, "second image")
    joint = np.bincount(
        (bins256(a) * 256 + bins256(b)).ravel(), minlength=256 * 256
    ).reshape(256, 256).astype(np.float64)
    joint /= joint.sum()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = np.flatnonzero(joint > 0)  # the occupied (i, j) bins, in C order
    pj = joint.ravel()[nz]
    return float((pj * np.log2(pj / (pa[nz >> 8] * pb[nz & 255]))).sum())


# -- gradient statistics -----------------------------------------------------------------


def sf_ag(x) -> tuple:
    """(spatial frequency, average gradient) on the 255-scaled domain."""
    a = as_gray(x) * 255.0
    h, w = a.shape
    if h < 2 or w < 2:
        raise ValueError("sf_ag needs at least 2x2 pixels")
    dh = a[:, 1:] - a[:, :-1]
    dv = a[1:, :] - a[:-1, :]
    rf = np.sqrt(np.mean(dh * dh))
    cf = np.sqrt(np.mean(dv * dv))
    sf = float(np.sqrt(rf * rf + cf * cf))
    dx = dh[:-1, :]
    dy = dv[:, :-1]
    ag = float(np.mean(np.sqrt((dx * dx + dy * dy) / 2.0)))
    return sf, ag


# -- SSIM / PSNR -----------------------------------------------------------------------


def _variance(a: np.ndarray, mu: np.ndarray, k: np.ndarray, pad: str) -> np.ndarray:
    """separable_filter(a^2, k, pad) - mu^2 clamped at 0, formed in place:
    rounding can leave E[x^2] - mu^2 just below 0."""
    var = separable_filter(a * a, k, pad)
    var -= mu * mu
    return np.maximum(var, 0.0, out=var)


SSIM_WIN = 11
SSIM_WINDOW = gaussian_window1d(SSIM_WIN, 1.5)
_SSIM_C1 = 0.01**2  # (K1 L)^2 with L = 1
_SSIM_C2 = 0.03**2  # (K2 L)^2


def ssim_map(mu_a, mu_b, var_a, var_b, cov):
    """Local SSIM from two images' window statistics, on numpy arrays or on
    autodiff nodes alike:

        (2 mu_a mu_b + C1)(2 cov + C2) / ((mu_a^2 + mu_b^2 + C1)(var_a + var_b + C2))

    The metric (ssim_psnr) clamps its variances at 0 before the call, as
    rounding can leave E[x^2] - mu^2 just below 0; the training loss
    (codec._ssim_node) passes them unclamped. x * 2.0 and x * x give the
    bits of 2 * x and x**2, so the metric's values are those of the textbook
    form.
    """
    return ((mu_a * mu_b * 2.0 + _SSIM_C1) * (cov * 2.0 + _SSIM_C2)
            / ((mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)))


def ssim_moments(x) -> tuple:
    """(mu, var) of a gray image under the SSIM window, valid mode, with var
    clamped at 0: the statistics ssim_psnr takes as f_moments."""
    a = as_gray(x)
    if min(a.shape) < SSIM_WIN:
        raise ValueError(f"SSIM needs at least {SSIM_WIN}x{SSIM_WIN} pixels")
    mu = separable_filter(a, SSIM_WINDOW)
    return mu, _variance(a, mu, SSIM_WINDOW, "valid")


def ssim_psnr(f, s, f_moments=None) -> tuple:
    """(mean local SSIM, PSNR in dB) for two gray images.

    f_moments is ssim_moments(f), passed in so that comparisons of one image
    with several others filter it once; it is only read.
    """
    a, b = as_gray(f), as_gray(s)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    mu_a, var_a = ssim_moments(a) if f_moments is None else f_moments
    mu_b, var_b = ssim_moments(b)
    if mu_a.shape != mu_b.shape:
        raise ValueError(f"f_moments have shape {mu_a.shape}, expected {mu_b.shape}")
    cov = separable_filter(a * b, SSIM_WINDOW)
    cov -= mu_a * mu_b
    ssim = float(ssim_map(mu_a, mu_b, var_a, var_b, cov).mean())
    mse = float(np.mean((a - b) ** 2))
    psnr = 99.0 if mse < 1e-10 else float(10.0 * np.log10(1.0 / mse))
    return ssim, min(psnr, 99.0)


# -- VIF --------------------------------------------------------------------------------


_VIF_SIGMA_NSQ = 2.0  # GSM noise variance on the 255 scale


def _vif_pyramid(x):
    """Yield VIF's four scales of a gray image, each (window, image, mu, var)
    on the 255 scale with var clamped at 0."""
    a = as_gray(x) * 255.0
    for scale in range(1, 5):
        n = 2 ** (4 - scale + 1) + 1
        win = gaussian_window1d(n, n / 5.0)
        if scale > 1:
            a = separable_filter(a, win, "zeros", step=2)  # the even rows and columns
            if a.size == 0:
                return  # degenerate scale for tiny images
        mu = separable_filter(a, win, "zeros")
        yield win, a, mu, _variance(a, mu, win, "zeros")


def vif_scales(x) -> list:
    """VIF's per-scale (window, image, mu, var) of one gray image: the
    statistics vif_pair takes as dist_scales."""
    return list(_vif_pyramid(x))


def vif_pair(ref, dist, dist_scales=None) -> float:
    """Pixel-domain visual information fidelity of dist against ref.

    dist_scales is vif_scales(dist), passed in so that several references
    share one distorted image's pyramid (its statistics do not depend on the
    reference); it is only read. The reference's own statistics are built
    scale by scale and take the < 1e-10 masks in place.
    """
    a, b = as_gray(ref), as_gray(dist)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if dist_scales is None:
        dist_scales = vif_scales(b)
    elif dist_scales[0][1].shape != a.shape:
        raise ValueError(f"dist_scales have shape {dist_scales[0][1].shape}, expected {a.shape}")
    num = den = 0.0
    for (win, a, mu_a, s_a), (_, b, mu_b, s_b) in zip(_vif_pyramid(a), dist_scales):
        s_ab = separable_filter(a * b, win, "zeros")
        s_ab -= mu_a * mu_b
        g = s_a + 1e-10
        np.divide(s_ab, g, out=g)  # g = s_ab / (s_a + 1e-10)
        sv = g * s_ab
        np.subtract(s_b, sv, out=sv)  # sv = s_b - g s_ab
        flat_a = s_a < 1e-10
        flat_b = s_b < 1e-10
        np.copyto(g, 0.0, where=flat_a)
        np.copyto(sv, s_b, where=flat_a)
        np.copyto(s_a, 0.0, where=flat_a)
        np.copyto(g, 0.0, where=flat_b)
        np.copyto(sv, 0.0, where=flat_b)
        neg = g < 0
        np.copyto(sv, s_b, where=neg)
        np.copyto(g, 0.0, where=neg)
        np.copyto(sv, 1e-10, where=sv <= 1e-10)
        # num: log10(1 + g^2 s_a / (sv + sigma_nsq)), den: log10(1 + s_a / sigma_nsq)
        g *= g
        g *= s_a
        sv += _VIF_SIGMA_NSQ
        g /= sv
        g += 1.0
        num += float(np.sum(np.log10(g, out=g)))
        s_a /= _VIF_SIGMA_NSQ
        s_a += 1.0
        den += float(np.sum(np.log10(s_a, out=s_a)))
    return num / den if den > 0 else 0.0


# -- correlation metrics -------------------------------------------------------------------


def _corr(x: np.ndarray, y: np.ndarray) -> float:
    xd = x - x.mean()
    yd = y - y.mean()
    den = np.sqrt((xd * xd).sum() * (yd * yd).sum())
    if den == 0.0:
        return 0.0  # zero-variance convention
    return float((xd * yd).sum() / den)


def scd_cc(f, a, b) -> tuple:
    """(sum of correlations of differences, mean correlation coefficient)."""
    fa, aa, ba = as_gray(f), as_gray(a), as_gray(b)
    if not (fa.shape == aa.shape == ba.shape):
        raise ValueError("aligned triple required")
    scd = _corr(fa - ba, aa) + _corr(fa - aa, ba)
    cc = 0.5 * (_corr(fa, aa) + _corr(fa, ba))
    return float(scd), float(cc)


# -- Qcb --------------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _csf_response(shape: tuple) -> np.ndarray:
    """Difference-of-Gaussians contrast sensitivity on the half-spectrum grid
    of the real-input DFT (columns 0 .. wp // 2 of the padded hp x wp grid)
    of an image of this shape; built once per shape and read-only."""
    hp, wp = next_pow2(shape[0]), next_pow2(shape[1])
    fy = np.fft.fftfreq(hp) * hp / 30.0  # 30 pixels per degree
    fx = np.fft.rfftfreq(wp) * wp / 30.0
    r = np.sqrt(fy[:, None] ** 2 + fx[None, :] ** 2)
    f0, f1, aa = 15.3870, 1.3456, 0.7622
    sd = np.exp(-((r / f0) ** 2)) - aa * np.exp(-((r / f1) ** 2))
    sd.flags.writeable = False
    return sd


def _csf_filter(a: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """a filtered by the frequency response sd (_csf_response(a.shape)) on
    the real-input DFT: sd depends on |frequency| alone, so it keeps the
    spectrum Hermitian and the filtered image is real."""
    h, w = a.shape
    padded = _pad_pow2(a)
    hp, wp = padded.shape
    spec = _fft2_raw(padded, inverse=False, real_width=wp)
    spec *= sd
    out = _fft2_raw(spec, inverse=True, real_width=wp)[:h, :w]
    out /= hp * wp
    return out


def _masked_contrast(a: np.ndarray, sd: np.ndarray) -> np.ndarray:
    filtered = _csf_filter(a, sd)
    num = gaussian_blur(filtered, 2.0)
    den = gaussian_blur(filtered, 32.0)
    ok = np.abs(den) > 1e-6
    c = np.divide(num, den, out=np.zeros_like(a), where=ok)
    np.subtract(c, 1.0, out=c, where=ok)
    np.abs(c, out=c)
    sq = c**2
    sq += 1e-4
    out = c**3
    out /= sq
    return out


def qcb(f, a, b) -> float:
    """Contrast-preservation quality in [0, 1] (Chen-Blum style)."""
    ff, aa, bb = as_gray(f) * 255.0, as_gray(a) * 255.0, as_gray(b) * 255.0
    if not (ff.shape == aa.shape == bb.shape):
        raise ValueError("aligned triple required")
    sd = _csf_response(ff.shape)
    cf = _masked_contrast(ff, sd)
    ca = _masked_contrast(aa, sd)
    cb = _masked_contrast(bb, sd)

    def preserve(cs, cd):
        hi = np.maximum(cs, cd)
        # both zero: nothing to lose, full preservation
        return np.divide(np.minimum(cs, cd), hi, out=np.ones_like(hi), where=hi > 0)

    sq_a = ca**2
    tot = sq_a + cb**2
    lam_a = np.divide(sq_a, tot, out=np.full_like(ca, 0.5), where=tot > 0)
    q = preserve(ca, cf)
    q *= lam_a
    lam_b = np.subtract(1.0, lam_a, out=lam_a)
    lam_b *= preserve(cb, cf)
    q += lam_b
    return float(np.clip(q.mean(), 0.0, 1.0))


# -- assembled report ------------------------------------------------------------------------


@dataclass
class MetricsReport:
    """All ten metrics for one (fused, source_a, source_b) triple.

    Pairwise metrics carry per-source breakdowns; mi is the summed
    two-source information, ssim/psnr/cc/vif are source averages.
    """

    en: float
    mi: float
    sf: float
    ag: float
    ssim: float
    psnr: float
    vif: float
    scd: float
    cc: float
    qcb: float
    per_source: dict

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in _COLUMNS}
        d["per_source"] = self.per_source
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def csv_header() -> str:
        return ",".join(["name"] + [c.upper() if c != "qcb" else "Qcb" for c in _COLUMNS])

    def csv_row(self, name: str) -> str:
        return ",".join([name] + [f"{getattr(self, c):.6f}" for c in _COLUMNS])


def report(f, a, b) -> MetricsReport:
    """Evaluate every metric on an aligned (fused, source_a, source_b) triple.

    The fused image's SSIM moments and VIF scales are computed once and
    shared by both sources' calls.
    """
    fa, aa, ba = as_gray(f), as_gray(a), as_gray(b)
    if not (fa.shape == aa.shape == ba.shape):
        raise ValueError("aligned triple required")
    for img, what in ((fa, "fused image"), (aa, "source a"), (ba, "source b")):
        check_unit_range(img, what)
    mi_a = mutual_information(fa, aa)
    mi_b = mutual_information(fa, ba)
    f_moments = ssim_moments(fa)
    ssim_a, psnr_a = ssim_psnr(fa, aa, f_moments)
    ssim_b, psnr_b = ssim_psnr(fa, ba, f_moments)
    f_scales = vif_scales(fa)
    vif_a = vif_pair(aa, fa, f_scales)
    vif_b = vif_pair(ba, fa, f_scales)
    sf, ag = sf_ag(fa)
    scd, cc = scd_cc(fa, aa, ba)
    return MetricsReport(
        en=entropy(fa),
        mi=mi_a + mi_b,
        sf=sf,
        ag=ag,
        ssim=0.5 * (ssim_a + ssim_b),
        psnr=0.5 * (psnr_a + psnr_b),
        vif=0.5 * (vif_a + vif_b),
        scd=scd,
        cc=cc,
        qcb=qcb(fa, aa, ba),
        per_source={
            "mi": [mi_a, mi_b],
            "ssim": [ssim_a, ssim_b],
            "psnr": [psnr_a, psnr_b],
            "vif": [vif_a, vif_b],
            "cc": [
                _corr(fa, aa),
                _corr(fa, ba),
            ],
        },
    )
