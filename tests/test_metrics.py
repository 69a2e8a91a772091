import tracemalloc
import warnings

import numpy as np
import pytest

from flowfuse.image import gaussian_blur, histogram256
from flowfuse.metrics import (
    entropy,
    mutual_information,
    qcb,
    report,
    scd_cc,
    sf_ag,
    ssim_moments,
    ssim_psnr,
    vif_pair,
    vif_scales,
)


def textured(size, seed, contrast=0.35):
    """A size x size test image, or h x w for size = (h, w)."""
    h, w = (size, size) if np.ndim(size) == 0 else size
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:h, 0:w] / max(h, w)
    img = 0.5 + contrast * np.sin(2 * np.pi * (3 * x + 2 * y))
    img += 0.1 * rng.random((h, w))
    return np.clip(img, 0.0, 1.0)


class TestEntropy:
    def test_constant_image_zero_bits(self):
        assert entropy(np.full((8, 8), 0.25)) == 0.0

    def test_half_and_half_one_bit(self):
        a = np.zeros((4, 4))
        a[:2] = 1.0
        assert abs(entropy(a) - 1.0) < 1e-12

    def test_uniform_all_levels_eight_bits(self):
        a = (np.arange(256.0) / 255.0).reshape(16, 16)
        assert abs(entropy(a) - 8.0) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(0)
        e = entropy(rng.random((32, 32)))
        assert 0.0 <= e <= 8.0


class TestMutualInformation:
    def test_self_information_equals_entropy(self):
        rng = np.random.default_rng(1)
        x = rng.random((16, 16))
        assert mutual_information(x, x) == pytest.approx(entropy(x), abs=1e-12)

    def test_constant_partner_gives_zero(self):
        rng = np.random.default_rng(2)
        x = rng.random((8, 8))
        assert mutual_information(x, np.full((8, 8), 0.5)) == 0.0

    def test_matches_brute_force_joint_histogram(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((4, 4)), rng.random((4, 4))
        got = mutual_information(a, b)

        # brute force: count joint bins with explicit loops
        def bin256(v):
            return 255 if v >= 255 / 256 else int(v * 256)

        joint = {}
        for i in range(4):
            for j in range(4):
                key = (bin256(a[i, j]), bin256(b[i, j]))
                joint[key] = joint.get(key, 0) + 1
        n = 16
        pa, pb = {}, {}
        for (ka, kb), c in joint.items():
            pa[ka] = pa.get(ka, 0) + c / n
            pb[kb] = pb.get(kb, 0) + c / n
        want = sum(
            (c / n) * np.log2((c / n) / (pa[ka] * pb[kb])) for (ka, kb), c in joint.items()
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mutual_information(np.zeros((4, 4)), np.zeros((4, 5)))


class TestSfAg:
    def test_constant_image_zero(self):
        assert sf_ag(np.full((6, 6), 0.7)) == (0.0, 0.0)

    def test_checkerboard_closed_form(self):
        board = np.indices((2, 2)).sum(axis=0) % 2
        sf, _ = sf_ag(board.astype(np.float64))
        assert abs(sf - 255.0 * np.sqrt(2.0)) < 1e-9

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.random((5, 5))
        sf, ag = sf_ag(x)
        d = x * 255.0
        rf2 = cf2 = 0.0
        for i in range(5):
            for j in range(1, 5):
                rf2 += (d[i, j] - d[i, j - 1]) ** 2
        for i in range(1, 5):
            for j in range(5):
                cf2 += (d[i, j] - d[i - 1, j]) ** 2
        want_sf = np.sqrt(rf2 / 20.0 + cf2 / 20.0)
        ag_acc = 0.0
        for i in range(4):
            for j in range(4):
                dx = d[i, j + 1] - d[i, j]
                dy = d[i + 1, j] - d[i, j]
                ag_acc += np.sqrt((dx * dx + dy * dy) / 2.0)
        want_ag = ag_acc / 16.0
        assert abs(sf - want_sf) < 1e-12
        assert abs(ag - want_ag) < 1e-12


class TestSsimPsnr:
    def test_identical_images(self):
        x = textured(16, 5)
        s, p = ssim_psnr(x, x)
        assert s == 1.0
        assert p == 99.0

    def test_psnr_uniform_offset_closed_form(self):
        x = np.full((16, 16), 0.25)
        y = x + 1.0 / 255.0
        _, p = ssim_psnr(x, y)
        assert abs(p - 20.0 * np.log10(255.0)) < 0.01

    def test_ssim_symmetric(self):
        a, b = textured(16, 6), textured(16, 7)
        assert ssim_psnr(a, b)[0] == pytest.approx(ssim_psnr(b, a)[0], abs=1e-12)

    def test_matches_the_2d_window_oracle(self):
        # SSIM as documented: one 11 x 11 Gaussian window (sigma 1.5) summed
        # tap by tap over the valid positions
        def window_means(x):
            r = np.arange(11) - 5.0
            g = np.exp(-0.5 * (r / 1.5) ** 2)
            w = np.outer(g, g) / np.outer(g, g).sum()
            h, v = x.shape[0] - 10, x.shape[1] - 10
            out = np.zeros((h, v))
            for i in range(11):
                for j in range(11):
                    out += w[i, j] * x[i : i + h, j : j + v]
            return out

        def oracle(a, b):
            mu_a, mu_b = window_means(a), window_means(b)
            var_a = np.maximum(window_means(a * a) - mu_a**2, 0.0)
            var_b = np.maximum(window_means(b * b) - mu_b**2, 0.0)
            cov = window_means(a * b) - mu_a * mu_b
            c1, c2 = 0.01**2, 0.03**2
            return np.mean((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                           / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)))

        rng = np.random.default_rng(15)
        for a, b in ((textured(16, 6), textured(16, 7)),
                     (textured(40, 8), np.clip(textured(40, 8) + 0.1 * rng.random((40, 40)), 0, 1)),
                     (rng.random((23, 17)), rng.random((23, 17)))):
            assert ssim_psnr(a, b)[0] == pytest.approx(oracle(a, b), abs=1e-12)

    def test_ssim_degrades_with_noise(self):
        rng = np.random.default_rng(8)
        x = textured(32, 8)
        noisy = np.clip(x + 0.2 * rng.standard_normal(x.shape), 0, 1)
        assert ssim_psnr(x, noisy)[0] < ssim_psnr(x, x)[0]


class TestVif:
    def test_self_fidelity_is_one(self):
        x = textured(32, 9)
        assert vif_pair(x, x) == pytest.approx(1.0, abs=1e-6)

    def test_blur_loses_information(self):
        x = textured(32, 10)
        assert vif_pair(x, gaussian_blur(x, 1.5)) < 1.0

    def test_fixture_matches_straight_line_oracle(self):
        # independent re-implementation of the documented convention, kept in
        # plain loops over scales with scipy-free helpers
        def gauss(n, sigma):
            r = (n - 1) / 2.0
            g = np.exp(-0.5 * ((np.arange(n) - r) / sigma) ** 2)
            k = np.outer(g, g)
            return k / k.sum()

        def conv_same(a, k):
            kh, kw = k.shape
            pt, pl = (kh - 1) // 2, (kw - 1) // 2
            p = np.pad(a, ((pt, kh - 1 - pt), (pl, kw - 1 - pl)))
            out = np.zeros_like(a)
            for i in range(kh):
                for j in range(kw):
                    out += k[i, j] * p[i : i + a.shape[0], j : j + a.shape[1]]
            return out

        def oracle(ref, dist):
            ref, dist = ref * 255.0, dist * 255.0
            num = den = 0.0
            for scale in range(1, 5):
                n = 2 ** (4 - scale + 1) + 1
                win = gauss(n, n / 5.0)
                if scale > 1:
                    ref = conv_same(ref, win)[::2, ::2]
                    dist = conv_same(dist, win)[::2, ::2]
                mu1, mu2 = conv_same(ref, win), conv_same(dist, win)
                s1 = np.maximum(conv_same(ref * ref, win) - mu1 * mu1, 0.0)
                s2 = np.maximum(conv_same(dist * dist, win) - mu2 * mu2, 0.0)
                s12 = conv_same(ref * dist, win) - mu1 * mu2
                g = s12 / (s1 + 1e-10)
                sv = s2 - g * s12
                g[s1 < 1e-10] = 0
                sv[s1 < 1e-10] = s2[s1 < 1e-10]
                s1[s1 < 1e-10] = 0
                g[s2 < 1e-10] = 0
                sv[s2 < 1e-10] = 0
                sv[g < 0] = s2[g < 0]
                g[g < 0] = 0
                sv[sv <= 1e-10] = 1e-10
                num += np.sum(np.log10(1 + g * g * s1 / (sv + 2.0)))
                den += np.sum(np.log10(1 + s1 / 2.0))
            return num / den if den > 0 else 0.0

        ref, dist = textured(16, 11), textured(16, 12)
        assert vif_pair(ref, dist) == pytest.approx(oracle(ref, dist), abs=1e-10)

    def test_report_average_over_sources(self):
        f, a, b = textured(16, 13), textured(16, 14), textured(16, 15)
        want = 0.5 * (vif_pair(a, f) + vif_pair(b, f))
        assert report(f, a, b).vif == pytest.approx(want, abs=1e-12)


class TestScdCc:
    def test_identical_triple(self):
        x = textured(16, 16)
        scd, cc = scd_cc(x, x, x)
        assert cc == pytest.approx(1.0, abs=1e-12)
        assert scd == 0.0  # difference images are constant -> zero-variance rule

    def test_average_blend_has_positive_scd(self):
        rng = np.random.default_rng(17)
        i, v = rng.random((16, 16)), rng.random((16, 16))
        scd, _ = scd_cc((i + v) / 2.0, i, v)
        assert scd > 0.0

    def test_cc_scale_invariance(self):
        rng = np.random.default_rng(18)
        f, i, v = rng.random((12, 12)), rng.random((12, 12)), rng.random((12, 12))
        _, cc1 = scd_cc(f, i, v)
        _, cc2 = scd_cc(np.clip(0.6 * f + 0.2, 0, 1), i, v)
        assert cc1 == pytest.approx(cc2, abs=1e-9)


class TestQcb:
    def test_self_fusion_is_maximal(self):
        x = textured(32, 19)
        base = qcb(x, x, x)
        rng = np.random.default_rng(19)
        for distort in (
            gaussian_blur(x, 2.0),
            np.clip(x + 0.3 * rng.standard_normal(x.shape), 0, 1),
            np.full_like(x, 0.5),
        ):
            assert qcb(distort, x, x) <= base + 1e-12

    def test_constant_fused_near_zero(self):
        a, b = textured(32, 20), textured(32, 21)
        assert qcb(np.full((32, 32), 0.5), a, b) < 0.1

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(22)
        for _ in range(3):
            f, a, b = rng.random((16, 16)), rng.random((16, 16)), rng.random((16, 16))
            q = qcb(f, a, b)
            assert 0.0 <= q <= 1.0


def _complex_csf_filter(a):
    """Qcb's CSF on the complex DFT of the padded image, over the full
    frequency grid: the oracle of the real-input filter."""
    h, w = a.shape
    hp, wp = (1 << (n - 1).bit_length() for n in (h, w))
    fy, fx = np.fft.fftfreq(hp) * hp / 30.0, np.fft.fftfreq(wp) * wp / 30.0
    r = np.sqrt(fy[:, None] ** 2 + fx[None, :] ** 2)
    sd = np.exp(-((r / 15.3870) ** 2)) - 0.7622 * np.exp(-((r / 1.3456) ** 2))
    padded = np.zeros((hp, wp), dtype=np.complex128)
    padded[:h, :w] = a
    return (np.fft.ifft2(np.fft.fft2(padded) * sd).real)[:h, :w]


@pytest.mark.parametrize("shape", [(128, 128), (37, 52), (52, 37), (1, 9), (9, 1), (200, 300)])
def test_real_input_csf_filter_matches_the_complex_formula(shape):
    from flowfuse.metrics import _csf_filter, _csf_response

    a = textured(shape, sum(shape)) * 255.0
    sd = _csf_response(shape)
    want = _complex_csf_filter(a)
    got = _csf_filter(a, sd)
    assert got.shape == shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(ValueError, match="read-only"):
        sd[0, 0] = 0.0


class TestReport:
    def test_identical_triple_closed_relations(self):
        x = textured(16, 23)
        r = report(x, x, x)
        assert np.isfinite(r.en)
        assert r.mi == pytest.approx(2.0 * r.en, abs=1e-12)
        assert r.ssim == 1.0
        assert r.psnr == 99.0
        const = report(np.full((16, 16), 0.5), x, x)
        assert const.sf == 0.0 and const.ag == 0.0

    def test_composition_matches_individual_ops(self):
        # report shares the fused image's statistics between the sources; each
        # field and per-source value has the bits of the lone calls without them
        for seed, shape in enumerate([(16, 16), (37, 52), (53, 29), (100, 100), (128, 128)]):
            f, a, b = (textured(shape, 24 + 3 * seed + k) for k in range(3))
            r = report(f, a, b)
            assert r.en == entropy(f)
            mi = [mutual_information(f, a), mutual_information(f, b)]
            assert r.mi == mi[0] + mi[1]
            assert (r.sf, r.ag) == sf_ag(f)
            (sa, pa), (sb, pb) = ssim_psnr(f, a), ssim_psnr(f, b)
            assert r.ssim == 0.5 * (sa + sb)
            assert r.psnr == 0.5 * (pa + pb)
            vif = [vif_pair(a, f), vif_pair(b, f)]
            assert r.vif == 0.5 * (vif[0] + vif[1])
            scd, cc = scd_cc(f, a, b)
            assert (r.scd, r.cc) == (scd, cc)
            assert r.qcb == qcb(f, a, b)
            cc_a, cc_b = r.per_source["cc"]
            assert 0.5 * (cc_a + cc_b) == cc
            assert r.per_source == {"mi": mi, "ssim": [sa, sb], "psnr": [pa, pb], "vif": vif,
                                    "cc": [cc_a, cc_b]}, shape

    def test_each_cc_correlation_is_formed_once(self, monkeypatch):
        # report passes its correlation of f with each source to scd_cc and to
        # per_source: four _corr calls, two for SCD and two for CC, with the
        # bits of scd_cc called alone
        import flowfuse.metrics as m

        f, a, b = (textured((37, 52), 50 + k) for k in range(3))
        calls, real = [], m._corr
        monkeypatch.setattr(m, "_corr", lambda x, y: calls.append(1) or real(x, y))
        r = report(f, a, b)
        monkeypatch.undo()
        assert len(calls) == 4
        assert (r.scd, r.cc) == scd_cc(f, a, b)
        assert r.per_source["cc"] == [m._corr(f, a), m._corr(f, b)]

    def test_shared_statistics_are_read_only_and_give_the_same_bits(self):
        f, a, b = textured((37, 52), 40), textured((37, 52), 41), textured((37, 52), 42)
        moments, scales = ssim_moments(f), vif_scales(f)
        assert len(scales) == 4
        before = [x.copy() for x in moments] + [x.copy() for s in scales for x in s]
        for _ in range(2):
            assert ssim_psnr(f, a, moments) == ssim_psnr(f, a)
            assert ssim_psnr(f, b, moments) == ssim_psnr(f, b)
            assert vif_pair(a, f, scales) == vif_pair(a, f)
            assert vif_pair(b, f, scales) == vif_pair(b, f)
        after = list(moments) + [x for s in scales for x in s]
        assert all(np.array_equal(x, y) for x, y in zip(before, after, strict=True))

    def test_shared_statistics_of_another_shape_rejected(self):
        f, a = textured(16, 43), textured(16, 44)
        with pytest.raises(ValueError, match="f_moments have shape"):
            ssim_psnr(f, a, ssim_moments(textured(20, 45)))
        with pytest.raises(ValueError, match="dist_scales have shape"):
            vif_pair(a, f, vif_scales(textured(20, 45)))

    def test_peak_memory_at_128_px(self):
        # the fused image's SSIM moments and VIF pyramid (0.85 MiB) are held for
        # the whole call; everything else is built in place or freed as it goes
        f, a, b = textured(128, 46), textured(128, 47), textured(128, 48)
        report(f, a, b)
        tracemalloc.start()
        try:
            report(f, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * 2**20, peak / 2**20

    def test_source_swap_invariance_of_symmetric_fields(self):
        f, a, b = textured(16, 27), textured(16, 28), textured(16, 29)
        r1, r2 = report(f, a, b), report(f, b, a)
        for field in ("en", "mi", "sf", "ag", "ssim", "psnr", "vif", "cc"):
            assert getattr(r1, field) == pytest.approx(getattr(r2, field), abs=1e-12)

    def test_json_and_csv_shapes(self):
        r = report(textured(16, 30), textured(16, 31), textured(16, 32))
        d = r.to_dict()
        assert set(d) == {"en", "mi", "sf", "vif", "ssim", "ag", "scd", "psnr", "cc",
                          "qcb", "per_source"}
        header = r.csv_header()
        row = r.csv_row("pair0")
        assert header.startswith("name,EN,MI,SF,VIF,SSIM,AG,SCD,PSNR,CC,Qcb")
        assert len(row.split(",")) == len(header.split(","))

    def test_determinism(self):
        f, a, b = textured(16, 33), textured(16, 34), textured(16, 35)
        assert report(f, a, b).to_json() == report(f, a, b).to_json()

    def test_field_range_invariants_on_random_triples(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            f, a, b = rng.random((16, 16)), rng.random((16, 16)), rng.random((16, 16))
            r = report(f, a, b)
            assert 0.0 <= r.en <= 8.0
            assert -1.0 <= r.ssim <= 1.0
            assert -1.0 <= r.cc <= 1.0
            assert r.sf >= 0.0 and r.ag >= 0.0
            assert 0.0 <= r.qcb <= 1.0
            assert all(np.isfinite(getattr(r, c))
                       for c in ("en", "mi", "sf", "ag", "ssim", "psnr", "vif",
                                 "scd", "cc", "qcb"))


class TestPixelRange:
    @pytest.mark.parametrize("value, what", [
        (-0.1, "outside"), (1.5, "outside"), (np.nan, "non-finite"), (np.inf, "non-finite"),
        (-np.inf, "non-finite")])
    @pytest.mark.parametrize("side, name", [(0, "fused image"), (1, "source a"),
                                            (2, "source b")])
    def test_report_names_the_image_at_fault(self, value, what, side, name):
        triple = [textured(16, 50), textured(16, 51), textured(16, 52)]
        triple[side][3, 5] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} has (non-finite )?pixel values"
                                                 + ("" if what == "non-finite" else " outside")):
                report(*triple)

    @pytest.mark.parametrize("value", [-0.1, 1.5, np.nan, np.inf])
    def test_histograms_reject_a_bad_value(self, value):
        x = textured(8, 53)
        x[0, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^image has"):
                histogram256(x)
            with pytest.raises(ValueError, match="^image has"):
                entropy(x)
            with pytest.raises(ValueError, match="^first image has"):
                mutual_information(x, textured(8, 54))
            with pytest.raises(ValueError, match="^second image has"):
                mutual_information(textured(8, 54), x)

    def test_an_empty_image_is_named(self):
        with pytest.raises(ValueError, match="^image is empty"):
            histogram256(np.zeros((0, 4)))
        with pytest.raises(ValueError, match="^fused image is empty"):
            report(np.zeros((0, 4)), np.zeros((0, 4)), np.zeros((0, 4)))

    def test_the_range_ends_are_accepted(self):
        x = textured(16, 55)
        x[0, 0], x[0, 1] = 0.0, 1.0
        assert np.isfinite(report(x, x, x).en)
