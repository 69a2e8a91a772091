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
          frequency domain, band-pass contrast (sigma 2 over sigma 32 local
          means), saturation masking t|C|^p / (h|C|^q + Z) with
          t = h = 1, p = 3, q = 2, Z = 1e-4, saliency weights from squared
          masked contrast, preservation = min/max contrast ratio.

Every window above is a Gaussian, which is separable: SSIM and VIF filter
with the normalized 1-D window once along rows and once along columns, and
the Qcb local means use the image module's separable blur. The conventions
listed (sizes, sigmas, valid or same mode, zero padding) hold as stated; only
the order of the sums differs from a 2-D window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fft import _fft2_raw, _pad_pow2
from .image import (as_gray, bins256, correlate1d_valid, gaussian_blur, gaussian_window1d,
                    histogram256)

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
    joint = np.bincount(
        (bins256(a) * 256 + bins256(b)).ravel(), minlength=256 * 256
    ).reshape(256, 256).astype(np.float64)
    joint /= joint.sum()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mask = joint > 0
    denom = np.outer(pa, pb)[mask]
    return float((joint[mask] * np.log2(joint[mask] / denom)).sum())


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


def _filter_valid(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Valid-mode 2-D filtering with the separable window outer(k, k)."""
    return correlate1d_valid(correlate1d_valid(a, k, axis=0), k, axis=1)


def _conv_same(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    lo = (len(k) - 1) // 2
    return _filter_valid(np.pad(a, (lo, len(k) - 1 - lo)), k)


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


def ssim_psnr(f, s) -> tuple:
    """(mean local SSIM, PSNR in dB) for two gray images."""
    a, b = as_gray(f), as_gray(s)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if min(a.shape) < SSIM_WIN:
        raise ValueError(f"SSIM needs at least {SSIM_WIN}x{SSIM_WIN} pixels")
    win = SSIM_WINDOW
    mu_a = _filter_valid(a, win)
    mu_b = _filter_valid(b, win)
    var_a = np.maximum(_filter_valid(a * a, win) - mu_a * mu_a, 0.0)
    var_b = np.maximum(_filter_valid(b * b, win) - mu_b * mu_b, 0.0)
    cov = _filter_valid(a * b, win) - mu_a * mu_b
    ssim = float(ssim_map(mu_a, mu_b, var_a, var_b, cov).mean())
    mse = float(np.mean((a - b) ** 2))
    psnr = 99.0 if mse < 1e-10 else float(10.0 * np.log10(1.0 / mse))
    return ssim, min(psnr, 99.0)


# -- VIF --------------------------------------------------------------------------------


def vif_pair(ref, dist) -> float:
    """Pixel-domain visual information fidelity of dist against ref."""
    a = as_gray(ref) * 255.0
    b = as_gray(dist) * 255.0
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    sigma_nsq = 2.0
    num = den = 0.0
    for scale in range(1, 5):
        n = 2 ** (4 - scale + 1) + 1
        win = gaussian_window1d(n, n / 5.0)
        if scale > 1:
            a = _conv_same(a, win)[::2, ::2]
            b = _conv_same(b, win)[::2, ::2]
            if a.size == 0:
                break  # degenerate scale for tiny images
        mu_a = _conv_same(a, win)
        mu_b = _conv_same(b, win)
        s_a = np.maximum(_conv_same(a * a, win) - mu_a * mu_a, 0.0)
        s_b = np.maximum(_conv_same(b * b, win) - mu_b * mu_b, 0.0)
        s_ab = _conv_same(a * b, win) - mu_a * mu_b
        g = s_ab / (s_a + 1e-10)
        sv = s_b - g * s_ab
        g[s_a < 1e-10] = 0.0
        sv[s_a < 1e-10] = s_b[s_a < 1e-10]
        s_a[s_a < 1e-10] = 0.0
        g[s_b < 1e-10] = 0.0
        sv[s_b < 1e-10] = 0.0
        sv[g < 0] = s_b[g < 0]
        g[g < 0] = 0.0
        sv[sv <= 1e-10] = 1e-10
        num += float(np.sum(np.log10(1.0 + g * g * s_a / (sv + sigma_nsq))))
        den += float(np.sum(np.log10(1.0 + s_a / sigma_nsq)))
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


def _csf_filter(a: np.ndarray) -> np.ndarray:
    """Difference-of-Gaussians contrast sensitivity filter, frequency domain."""
    h, w = a.shape
    spec = _fft2_raw(_pad_pow2(a.astype(np.complex128)), inverse=False)
    hp, wp = spec.shape
    fy = np.fft.fftfreq(hp) * hp / 30.0  # 30 pixels per degree
    fx = np.fft.fftfreq(wp) * wp / 30.0
    r = np.sqrt(fy[:, None] ** 2 + fx[None, :] ** 2)
    f0, f1, aa = 15.3870, 1.3456, 0.7622
    sd = np.exp(-((r / f0) ** 2)) - aa * np.exp(-((r / f1) ** 2))
    out = _fft2_raw(spec * sd, inverse=True) / (hp * wp)
    return out.real[:h, :w]


def _masked_contrast(a: np.ndarray) -> np.ndarray:
    filtered = _csf_filter(a)
    num = gaussian_blur(filtered, 2.0)
    den = gaussian_blur(filtered, 32.0)
    c = np.zeros_like(a)
    ok = np.abs(den) > 1e-6
    c[ok] = num[ok] / den[ok] - 1.0
    c = np.abs(c)
    return c**3 / (c**2 + 1e-4)


def qcb(f, a, b) -> float:
    """Contrast-preservation quality in [0, 1] (Chen-Blum style)."""
    ff, aa, bb = as_gray(f) * 255.0, as_gray(a) * 255.0, as_gray(b) * 255.0
    if not (ff.shape == aa.shape == bb.shape):
        raise ValueError("aligned triple required")
    cf = _masked_contrast(ff)
    ca = _masked_contrast(aa)
    cb = _masked_contrast(bb)

    def preserve(cs, cd):
        hi = np.maximum(cs, cd)
        lo = np.minimum(cs, cd)
        out = np.ones_like(hi)  # both zero: nothing to lose, full preservation
        nz = hi > 0
        out[nz] = lo[nz] / hi[nz]
        return out

    lam_a = np.zeros_like(ca)
    tot = ca**2 + cb**2
    nz = tot > 0
    lam_a[nz] = ca[nz] ** 2 / tot[nz]
    lam_a[~nz] = 0.5
    q = lam_a * preserve(ca, cf) + (1.0 - lam_a) * preserve(cb, cf)
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
    """Evaluate every metric on an aligned (fused, source_a, source_b) triple."""
    fa, aa, ba = as_gray(f), as_gray(a), as_gray(b)
    if not (fa.shape == aa.shape == ba.shape):
        raise ValueError("aligned triple required")
    mi_a = mutual_information(fa, aa)
    mi_b = mutual_information(fa, ba)
    ssim_a, psnr_a = ssim_psnr(fa, aa)
    ssim_b, psnr_b = ssim_psnr(fa, ba)
    vif_a = vif_pair(aa, fa)
    vif_b = vif_pair(ba, fa)
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
