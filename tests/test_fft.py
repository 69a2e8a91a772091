import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowfuse import autodiff as ad
from flowfuse.fft import _fft2_raw, _pad_pow2, fft2_adjoint, next_pow2


def fft2(a):
    """The forward transform as the tape and metrics call it: pad, then DFT."""
    return _fft2_raw(_pad_pow2(np.asarray(a, dtype=np.complex128)), inverse=False)


def naive_dft2(a):
    """O(n^2) double-loop DFT oracle, straight from the transform definition."""
    a = np.asarray(a, dtype=np.complex128)
    h, w = a.shape
    out = np.zeros((h, w), dtype=np.complex128)
    for u in range(h):
        for v in range(w):
            acc = 0.0 + 0.0j
            for x in range(h):
                for y in range(w):
                    acc += a[x, y] * np.exp(-2j * np.pi * u * x / h) * np.exp(
                        -2j * np.pi * v * y / w
                    )
            out[u, v] = acc
    return out


def test_zero_image_gives_zero_spectrum():
    spec = fft2(np.zeros((4, 4)))
    assert np.all(spec == 0)


def test_constant_image_concentrates_in_dc_bin():
    c = 0.73
    spec = fft2(np.full((4, 4), c))
    assert abs(spec[0, 0] - 16 * c) < 1e-12
    off_dc = spec.copy()
    off_dc[0, 0] = 0
    assert np.abs(off_dc).max() < 1e-12


def test_matches_naive_dft_oracle_8x8():
    rng = np.random.default_rng(1)
    a = rng.random((8, 8))
    got = fft2(a)
    want = naive_dft2(a)
    assert np.abs(got - want).max() < 1e-9


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_matches_naive_dft_all_pow2_sizes(n):
    rng = np.random.default_rng(n)
    a = rng.random((n, n))
    assert np.abs(fft2(a) - naive_dft2(a)).max() < 1e-9


def test_nonpow2_input_is_zero_padded():
    rng = np.random.default_rng(2)
    a = rng.random((3, 5))
    spec = fft2(a)
    assert spec.shape == (4, 8)
    padded = np.zeros((4, 8))
    padded[:3, :5] = a
    assert np.abs(spec - naive_dft2(padded)).max() < 1e-9


def test_roundtrip_identity():
    rng = np.random.default_rng(3)
    for shape in [(4, 4), (8, 16), (5, 7), (1, 1), (6, 3)]:
        a = rng.random(shape)
        spec = fft2(a)
        back = _fft2_raw(spec, inverse=True)[: shape[0], : shape[1]] / spec.size
        assert np.abs(back - a).max() < 1e-10


def test_nonfinite_input_rejected():
    a = np.ones((4, 4))
    a[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ad.fft2(a)


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=64),
    w=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_parseval_identity(h, w, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((h, w))
    spec = fft2(a)
    lhs = np.sum(np.abs(a) ** 2)
    rhs = np.sum(np.abs(spec) ** 2) / spec.size  # padded grid element count
    assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1.0)


def test_purity_bit_identical_outputs():
    rng = np.random.default_rng(5)
    a = rng.random((8, 8))
    assert np.array_equal(fft2(a), fft2(a))


def test_adjoint_matches_conjugate_transpose_of_dft_matrix():
    # <F x, g> == <x, F^H g> for the unnormalized DFT
    rng = np.random.default_rng(6)
    x = rng.random((4, 4))
    g = rng.random((4, 4)) + 1j * rng.random((4, 4))
    lhs = np.vdot(g, fft2(x))  # conj(g) . Fx
    rhs = np.vdot(fft2_adjoint(g), x.astype(np.complex128))
    assert abs(lhs - rhs) < 1e-9


def test_next_pow2():
    assert [next_pow2(n) for n in (1, 2, 3, 5, 8, 9)] == [1, 2, 4, 8, 8, 16]
    with pytest.raises(ValueError):
        next_pow2(0)


def test_tape_fft2_batched_nonpow2_matches_per_slice_dft_and_gradients():
    # leading batch axes on the tape: (2, 1, 12, 20) pads to the 16 x 32 grid
    rng = np.random.default_rng(7)
    x = rng.random((2, 1, 12, 20))
    spec = ad.fft2(x).value
    assert spec.shape == (2, 1, 16, 32)
    fh, fw = (np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) for n in (16, 32))
    for k in range(2):
        padded = np.zeros((16, 32))
        padded[:12, :20] = x[k, 0]
        assert np.abs(spec[k, 0] - fh @ padded @ fw.T).max() < 1e-9
    weights = rng.random((2, 1, 16, 32))
    report = ad.check_gradients(
        lambda n: ad.reduce_sum(ad.complex_magnitude(ad.fft2(n["x"])) * weights), {"x": x})
    assert report.ok, str(report)
    assert report.inputs["x"]["checked"] > 0
