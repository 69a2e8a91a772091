import numpy as np
import pytest

from flowfuse.image import (
    Image,
    correlate1d,
    gaussian_blur,
    gaussian_kernel1d,
    gaussian_window1d,
    histogram256,
    luma,
    rgb_to_ycbcr,
    separable_filter,
    ycbcr_to_rgb,
)
from flowfuse.metrics import SSIM_WINDOW

class TestImageType:
    def test_values_clamped_on_entry(self):
        img = Image(np.array([[-0.5, 0.5], [1.5, 1.0]]))
        assert img.pixels.min() == 0.0 and img.pixels.max() == 1.0

    def test_gray_or_rgb_by_shape_alone(self):
        assert Image(np.zeros((2, 2))).channels == 1
        assert Image(np.zeros((2, 2, 3))).channels == 3
        for shape in ((2, 2, 1), (2, 2, 4), (2,), (2, 2, 3, 1)):
            with pytest.raises(ValueError, match="bad pixel array shape"):
                Image(np.zeros(shape))

    def test_shapes(self):
        img = Image(np.zeros((3, 5, 3)))
        assert (img.height, img.width, img.channels) == (3, 5, 3)
        with pytest.raises(ValueError):
            Image(np.zeros((2, 2, 4)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Image(np.array([[np.inf, 0.0], [0.0, 0.0]]))


class TestCorrelate1d:
    """The one 1-D pass every Gaussian filter runs on, against nested loops."""

    @staticmethod
    def oracle(a, k, axis):
        n = len(k)
        if axis == 1:
            return TestCorrelate1d.oracle(a.T, k, 0).T
        out = np.zeros((a.shape[0] - n + 1, a.shape[1]))
        for i in range(out.shape[0]):
            for j in range(out.shape[1]):
                acc = 0.0
                for d in range(n):
                    acc += k[d] * a[i + d, j]
                out[i, j] = acc
        return out

    def test_matches_nested_loop_oracle_on_both_axes(self):
        rng = np.random.default_rng(11)
        a = rng.random((19, 23))
        for n in range(3, 18):
            k = rng.standard_normal(n)
            for axis in (0, 1):
                got = correlate1d(a, k, axis)
                want = self.oracle(a, k, axis)
                assert got.shape == want.shape, (n, axis)
                assert np.abs(got - want).max() < 1e-12, (n, axis)

    def test_returns_without_copying_the_windows(self):
        # a view in, one output-sized array out: a copy of the windows of a
        # 256 x 256 array against 65 taps would allocate 65 times the input
        import tracemalloc

        a = np.random.default_rng(13).random((256, 256))
        k = np.ones(65) / 65
        for axis in (0, 1):
            tracemalloc.start()
            correlate1d(a, k, axis)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 2 * a.nbytes, (axis, peak)


class TestBandProduct:
    """correlate1d and separable_filter, one band-matrix product per axis,
    against one sequential sum per tap over shifted copies."""

    @staticmethod
    def tap_sum(a, k, axis, pad, step=1):
        m = len(k)
        a = np.moveaxis(a, axis, 0)
        if pad != "valid":
            lo = (m - 1) // 2
            widths = [(lo, m - 1 - lo)] + [(0, 0)] * (a.ndim - 1)
            a = np.pad(a, widths, mode="edge" if pad == "replicate" else "constant")
        n_out = a.shape[0] - m + 1
        out = sum(k[d] * a[d : d + n_out] for d in range(m))
        return np.moveaxis(out[::step], 0, axis)

    @pytest.mark.parametrize("pad", ["valid", "zeros", "replicate"])
    @pytest.mark.parametrize("step", [1, 2])
    def test_matches_the_tap_sum(self, pad, step):
        rng = np.random.default_rng(17)
        # odd sizes, one-row and one-column images, and axes of about 200
        # samples, several row tiles long (32 outputs, 16 at stride 2, or 65
        # for 65 taps)
        for shape in ((13, 9), (1, 17), (17, 1), (200, 21), (21, 203)):
            a = rng.random(shape)
            for m in (1, 3, 4, 11, 15, 65):
                k = rng.standard_normal(m)
                for axis in (0, 1):
                    if pad == "valid" and m > shape[axis]:
                        continue
                    got = correlate1d(a, k, axis, pad, step)
                    want = self.tap_sum(a, k, axis, pad, step)
                    assert got.shape == want.shape, (shape, m, axis)
                    assert np.abs(got - want).max() < 1e-12, (shape, m, axis)

    @pytest.mark.parametrize("pad", ["valid", "zeros", "replicate"])
    def test_a_cold_build_on_a_long_axis_holds_no_dense_band(self, pad):
        # fresh taps miss the cache; a dense 4096 x 4096 band would be 128 MiB,
        # the row tiles of 11 taps a few blocks of 32 x 42
        import tracemalloc

        rng = np.random.default_rng(22)
        a, k = rng.random((2, 4096)), rng.standard_normal(11)
        tracemalloc.start()
        got = correlate1d(a, k, -1, pad)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert np.abs(got - self.tap_sum(a, k, 1, pad)).max() < 1e-12

    @pytest.mark.parametrize("pad", ["zeros", "replicate"])
    def test_a_window_longer_than_the_axis(self, pad):
        rng = np.random.default_rng(18)
        a, k = rng.random((5, 7)), rng.random(193)  # 193 taps: Qcb's sigma-32 blur
        for axis in (0, 1):
            got = correlate1d(a, k, axis, pad)
            assert np.abs(got - self.tap_sum(a, k, axis, pad)).max() < 1e-12, axis
        with pytest.raises(ValueError, match="15-tap window is longer than the axis of 7"):
            correlate1d(a, k[:15], 1)

    def test_either_of_the_last_two_axes_of_a_stack(self):
        a, k = np.random.default_rng(19).random((6, 5, 4)), np.array([0.25, 0.5, 0.25])
        for axis in (1, 2, -1):
            for pad in ("valid", "zeros", "replicate"):
                want = self.tap_sum(a, k, axis, pad)
                assert np.abs(correlate1d(a, k, axis, pad) - want).max() < 1e-15, (axis, pad)
        with pytest.raises(ValueError, match="axis 0 of a 3-D array"):
            correlate1d(a, k, 0)

    def test_separable_filter_is_one_pass_per_axis(self):
        rng = np.random.default_rng(20)
        a, k = rng.random((23, 170)), rng.random(9)
        for pad in ("valid", "zeros", "replicate"):
            want = self.tap_sum(self.tap_sum(a, k, 0, pad, 2), k, 1, pad, 2)
            assert np.abs(separable_filter(a, k, pad, step=2) - want).max() < 1e-12, pad

    @pytest.mark.parametrize("pad,step,k", [
        ("valid", 1, SSIM_WINDOW),  # SSIM
        ("zeros", 1, gaussian_window1d(17, 17 / 5.0)),  # VIF's first scale
        ("zeros", 2, gaussian_window1d(9, 9 / 5.0)),  # VIF's downsample
        ("replicate", 1, gaussian_kernel1d(32.0)),  # Qcb's local mean
    ])
    def test_a_stack_gets_the_bits_of_per_image_filters(self, pad, step, k):
        rng = np.random.default_rng(21)
        for shape in ((11, 11), (16, 16), (17, 17), (12, 31), (33, 13), (128, 128), (170, 41)):
            imgs = rng.random((3, *shape))
            got = separable_filter(imgs, k, pad, step)
            for img, out in zip(imgs, got):
                assert np.array_equal(out, separable_filter(img, k, pad, step)), shape


class TestHistogram:
    def test_constant_zero_image(self):
        p = histogram256(np.zeros((4, 4)))
        assert p[0] == 1.0 and p[1:].sum() == 0.0

    def test_half_zero_half_one(self):
        a = np.zeros((2, 4))
        a[:, 2:] = 1.0
        p = histogram256(a)
        assert p[0] == 0.5 and p[255] == 0.5

    def test_matches_direct_counting_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.random((9, 13))
        p = histogram256(a)
        counts = np.zeros(256)
        for v in a.ravel():
            k = 255 if v >= 255 / 256 else int(v * 256)
            counts[k] += 1
        assert np.array_equal(p, counts / a.size)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(9)
        p = histogram256(rng.random((17, 5)))
        assert abs(p.sum() - 1.0) < 1e-12


class TestColorConversion:
    def test_white_and_black(self):
        y = rgb_to_ycbcr(np.ones((1, 1, 3)))[0, 0]
        assert np.abs(y - [1.0, 0.5, 0.5]).max() < 1e-12
        y = rgb_to_ycbcr(np.zeros((1, 1, 3)))[0, 0]
        assert np.abs(y - [0.0, 0.5, 0.5]).max() < 1e-12

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(10)
        rgb = rng.random((6, 7, 3))
        back = ycbcr_to_rgb(rgb_to_ycbcr(rgb))
        assert np.abs(back - rgb).max() < 1e-9

    def test_gray_input_rejected(self):
        with pytest.raises(ValueError):
            rgb_to_ycbcr(np.zeros((4, 4)))

    def test_both_directions_clamp_to_the_unit_range(self):
        # as Image does; Y = 0.5 with Cb = Cr = 1 lies outside the RGB cube
        assert rgb_to_ycbcr(np.array([[[2.0, 0.0, 0.0]]])).max() == 1.0  # Cr = 1.5
        rgb = ycbcr_to_rgb(np.array([[[0.5, 1.0, 1.0]]]))
        assert rgb.min() == 0.0 and rgb.max() == 1.0

    def test_luma_helper(self):
        img = Image(np.full((2, 2, 3), 0.5))
        assert np.abs(luma(img) - 0.5).max() < 1e-12
        assert np.array_equal(luma(np.full((2, 2), 0.3)), np.full((2, 2), 0.3))


class TestBlur:
    def test_windows_share_one_gaussian(self):
        k = gaussian_kernel1d(1.5)
        assert len(k) == 11 and abs(k.sum() - 1.0) < 1e-15
        win = gaussian_window1d(11, 1.5)
        assert abs(win.sum() - 1.0) < 1e-15
        assert np.array_equal(win, k)  # the SSIM window is the sigma-1.5 blur kernel
        taps = np.exp(-0.5 * ((np.arange(11) - 5.0) / 1.5) ** 2)
        assert np.abs(win - taps / taps.sum()).max() < 1e-16
        with pytest.raises(ValueError):
            gaussian_kernel1d(0.0)

    def test_preserves_constants(self):
        out = gaussian_blur(np.full((8, 8), 0.6), sigma=2.0)
        assert np.abs(out - 0.6).max() < 1e-12

    @staticmethod
    def tap_sum_oracle(a, sigma):
        """The blur as one sequential sum per tap over edge-padded shifts."""
        k = gaussian_kernel1d(sigma)
        r = (len(k) - 1) // 2
        p = np.pad(a, ((r, r), (0, 0)), mode="edge")
        rows = sum(k[i] * p[i : i + a.shape[0], :] for i in range(len(k)))
        p = np.pad(rows, ((0, 0), (r, r)), mode="edge")
        return sum(k[j] * p[:, j : j + a.shape[1]] for j in range(len(k)))

    def test_matches_the_per_tap_sum(self):
        rng = np.random.default_rng(14)
        # sigma 32 on 48 x 48: the 193-tap kernel is longer than the image
        for shape, sigma in (((48, 48), 32.0), ((20, 31), 3.0), ((9, 5), 1.0), ((64, 64), 2.0)):
            a = rng.random(shape)
            got = gaussian_blur(a, sigma)
            assert got.shape == a.shape
            assert np.abs(got - self.tap_sum_oracle(a, sigma)).max() < 1e-12, (shape, sigma)

    @pytest.mark.parametrize("sigma", [0.7, 2.0, 3.0, 32.0])
    def test_a_stack_gets_the_bits_of_per_image_blurs(self, sigma):
        rng = np.random.default_rng(15)
        for shape in ((8, 8), (9, 9), (16, 16), (17, 17), (12, 31), (33, 8), (3, 5)):
            imgs = [rng.random(shape) for _ in range(3)]
            for stack in (imgs, tuple(imgs[:2])):
                got = gaussian_blur(stack, sigma)
                assert got.shape == (len(stack), *shape)
                for img, out in zip(stack, got):
                    assert np.array_equal(out, gaussian_blur(img, sigma)), (shape, sigma)

    def test_color_and_3d_arrays_rejected(self):
        rng = np.random.default_rng(16)
        color = rng.random((8, 8, 3))
        with pytest.raises(ValueError, match="gray image required"):
            gaussian_blur(color, 1.0)
        with pytest.raises(ValueError, match="gray image required"):
            gaussian_blur(Image(color), 1.0)
        with pytest.raises(ValueError, match="gray image required"):  # a stack goes in a list
            gaussian_blur(rng.random((2, 8, 8)), 1.0)
        with pytest.raises(ValueError, match="gray image required"):
            gaussian_blur([color, color], 1.0)

    def test_smooths_a_spike(self):
        a = np.zeros((9, 9))
        a[4, 4] = 1.0
        out = gaussian_blur(a, sigma=1.0)
        assert out.max() < 1.0 and out[4, 4] == out.max()
        assert abs(out.sum() - 1.0) < 1e-6  # mass approximately preserved away from borders
