import numpy as np
import pytest

from flowfuse.codec import _sobel
from flowfuse.image import (
    Image,
    correlate1d_valid,
    gaussian_blur,
    gaussian_kernel1d,
    gaussian_window1d,
    histogram256,
    luma,
    rgb_ycbcr,
)

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


class TestImageType:
    def test_values_clamped_on_entry(self):
        img = Image(np.array([[-0.5, 0.5], [1.5, 1.0]]))
        assert img.pixels.min() == 0.0 and img.pixels.max() == 1.0

    def test_color_space_tag_required(self):
        with pytest.raises(ValueError, match="space tag"):
            Image(np.zeros((2, 2, 3)))

    def test_shapes(self):
        img = Image(np.zeros((3, 5, 3)), "rgb")
        assert (img.height, img.width, img.channels) == (3, 5, 3)
        with pytest.raises(ValueError):
            Image(np.zeros((2, 2, 4)), "rgb")

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Image(np.array([[np.inf, 0.0], [0.0, 0.0]]))


class TestSobel:
    """The valid-mode Sobel of the codec's gradient loss: [1, 2, 1] down the
    rows and [-1, 0, 1] along them (and the transpose), as 1-D passes over an
    (n, H, W) stack."""

    def test_constant_image_gives_zero_everywhere(self):
        a = np.full((2, 5, 5), 0.4)
        for g in _sobel(a):
            assert g.shape == (2, 3, 3) and np.all(g == 0)

    def test_vertical_step_edge(self):
        a = np.zeros((1, 5, 6))
        a[:, :, 3:] = 1.0
        gx, gy = _sobel(a)
        assert gx.shape == gy.shape == (1, 3, 4)
        assert np.all(gy == 0)
        assert np.all(gx[:, :, 1:3] == 4.0)  # windows centred on the edge columns
        assert np.all(gx[:, :, [0, 3]] == 0)

    def test_matches_direct_convolution_oracle(self):
        rng = np.random.default_rng(7)
        for shape in ((3, 5, 5), (2, 16, 13)):
            a = rng.random(shape)
            for g, k in zip(_sobel(a), (SOBEL_X, SOBEL_Y)):
                for img, got in zip(a, g):
                    assert np.abs(got - correlation_oracle(img, k)).max() < 1e-12

    def test_rejects_color_and_tiny_images(self):
        with pytest.raises(ValueError, match="stack"):
            _sobel(np.zeros((1, 4, 4, 3)))
        with pytest.raises(ValueError):
            _sobel(np.zeros((1, 2, 5)))


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
                got = correlate1d_valid(a, k, axis)
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
            correlate1d_valid(a, k, axis)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 2 * a.nbytes, (axis, peak)


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
        white = Image(np.ones((1, 1, 3)), "rgb")
        y = rgb_ycbcr(white, "forward").pixels[0, 0]
        assert np.abs(y - [1.0, 0.5, 0.5]).max() < 1e-12
        black = Image(np.zeros((1, 1, 3)), "rgb")
        y = rgb_ycbcr(black, "forward").pixels[0, 0]
        assert np.abs(y - [0.0, 0.5, 0.5]).max() < 1e-12

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(10)
        img = Image(rng.random((6, 7, 3)), "rgb")
        back = rgb_ycbcr(rgb_ycbcr(img, "forward"), "inverse")
        assert np.abs(back.pixels - img.pixels).max() < 1e-9
        assert back.space == "rgb"

    def test_gray_input_rejected(self):
        with pytest.raises(ValueError):
            rgb_ycbcr(Image(np.zeros((4, 4))), "forward")

    def test_luma_helper(self):
        img = Image(np.full((2, 2, 3), 0.5), "rgb")
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
            gaussian_blur(Image(color, "rgb"), 1.0)
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
