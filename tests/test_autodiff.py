import numpy as np
import pytest

from flowfuse import autodiff as ad


def fd_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for idx in range(x.size):
        orig = x.flat[idx]
        x.flat[idx] = orig + h
        fp = fn(x)
        x.flat[idx] = orig - h
        fm = fn(x)
        x.flat[idx] = orig
        g.flat[idx] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.ones_like(a)])


def test_square_gradient():
    x = ad.leaf(np.array(3.0))
    y = x * x
    g = ad.backward(y, [x])[x]
    assert abs(g - 6.0) < 1e-12


def test_scalar_output_required():
    x = ad.leaf(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(x * x, [x])


def test_node_not_in_graph_rejected():
    x = ad.leaf(np.array(1.0))
    z = ad.leaf(np.array(1.0))
    with pytest.raises(ValueError, match="not part"):
        ad.backward(x * x, [z])


@pytest.mark.parametrize(
    "name,builder",
    [
        ("add", lambda x: ad.reduce_sum(x + x * 0.5)),
        ("sub", lambda x: ad.reduce_sum(2.0 - x)),
        ("mul", lambda x: ad.reduce_sum(x * x)),
        ("div", lambda x: ad.reduce_sum(1.0 / (x + 2.0))),
        ("tanh", lambda x: ad.reduce_sum(ad.tanh(x))),
        ("exp", lambda x: ad.reduce_sum(ad.exp(x))),
        ("log1p", lambda x: ad.reduce_sum(ad.log1p(x + 2.0))),
        ("leaky_relu", lambda x: ad.reduce_sum(ad.leaky_relu(x + 0.3, 0.2))),
        ("abs", lambda x: ad.reduce_sum(ad.absolute(x + 0.3))),
        ("mean", lambda x: ad.reduce_mean(x * x * x)),
        ("clamp", lambda x: ad.reduce_sum(ad.clamp(x, -0.5, 0.5) * x)),
        ("minmax", lambda x: ad.reduce_sum(ad.minmax_normalize(x) * x)),
    ],
)
def test_primitive_matches_finite_differences(name, builder):
    rng = np.random.default_rng(abs(hash(name)) % 2**31)
    x0 = rng.standard_normal((3, 4)) * 0.7

    def f(x):
        return float(builder(ad.leaf(x)).value)

    xn = ad.leaf(x0)
    out = builder(xn)
    g = ad.backward(out, [xn])[xn]
    num = fd_grad(f, x0.copy())
    # skip coordinates that sit on a kink of abs/clamp
    mask = np.ones_like(x0, dtype=bool)
    if name == "abs":
        mask = np.abs(x0 + 0.3) > 1e-3
    if name in ("clamp", "leaky_relu"):
        mask = (np.abs(np.abs(x0) - 0.5) > 1e-3) & (np.abs(x0 + 0.3) > 1e-3)
    assert rel_err(g, num)[mask].max() < 1e-6


def test_matmul_gradients():
    rng = np.random.default_rng(1)
    a0, b0 = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    an, bn = ad.leaf(a0), ad.leaf(b0)
    out = ad.reduce_sum(ad.matmul(an, bn) * ad.matmul(an, bn))
    g = ad.backward(out, [an, bn])
    na = fd_grad(lambda a: float(ad.reduce_sum(
        ad.matmul(ad.leaf(a), ad.leaf(b0)) * ad.matmul(ad.leaf(a), ad.leaf(b0))).value), a0.copy())
    nb = fd_grad(lambda b: float(ad.reduce_sum(
        ad.matmul(ad.leaf(a0), ad.leaf(b)) * ad.matmul(ad.leaf(a0), ad.leaf(b))).value), b0.copy())
    assert rel_err(g[an], na).max() < 1e-6
    assert rel_err(g[bn], nb).max() < 1e-6


def test_matmul_skips_the_gradient_of_a_constant_operand():
    rng = np.random.default_rng(12)
    a0, b0 = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    g = rng.standard_normal((3, 2))
    ga, gb = ad.matmul(ad.leaf(a0), ad.constant(b0)).vjp(g)
    assert gb is None and np.array_equal(ga, g @ b0.T)
    ga, gb = ad.matmul(ad.constant(a0), ad.leaf(b0)).vjp(g)
    assert ga is None and np.array_equal(gb, a0.T @ g)
    # through backward the leaf's gradient is the same product, bit for bit
    an = ad.leaf(a0)
    out = ad.reduce_sum(ad.matmul(an, ad.constant(b0)))
    assert np.array_equal(ad.backward(out, [an])[an], np.ones((3, 2)) @ b0.T)


def test_concat_cols_gradients():
    rng = np.random.default_rng(10)
    w = rng.standard_normal((5, 2))  # mixes every column, so each slice is exercised
    rep = ad.check_gradients(
        lambda ns: ad.reduce_sum(ad.tanh(ad.matmul(ad.concat_cols(ns["a"], ns["b"]), w))),
        {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 1))},
    )
    assert rep.ok and rep.worst < 1e-8, str(rep)
    assert np.array_equal(ad.concat_cols(np.ones((2, 3)), np.zeros((2, 1))).value,
                          np.concatenate([np.ones((2, 3)), np.zeros((2, 1))], axis=1))
    with pytest.raises(ValueError, match="row mismatch"):
        ad.concat_cols(np.ones((2, 3)), np.ones((3, 1)))


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
def test_conv2d_gradients(stride, pad):
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((2, 3, 6, 6))
    w0 = rng.standard_normal((4, 3, 3, 3)) * 0.4

    def f_x(x):
        return float(ad.reduce_sum(
            ad.tanh(ad.conv2d(ad.leaf(x), ad.leaf(w0), stride, pad))).value)

    def f_w(w):
        return float(ad.reduce_sum(
            ad.tanh(ad.conv2d(ad.leaf(x0), ad.leaf(w), stride, pad))).value)

    xn, wn = ad.leaf(x0), ad.leaf(w0)
    out = ad.reduce_sum(ad.tanh(ad.conv2d(xn, wn, stride, pad)))
    g = ad.backward(out, [xn, wn])
    assert rel_err(g[xn], fd_grad(f_x, x0.copy())).max() < 1e-6
    assert rel_err(g[wn], fd_grad(f_w, w0.copy())).max() < 1e-6


def test_conv2d_skips_the_gradient_of_a_constant_input():
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal((2, 1, 8, 8))
    w0 = rng.standard_normal((5, 1, 3, 3))
    g = rng.standard_normal((2, 5, 4, 4))
    dx, dw = ad.conv2d(ad.constant(x0), ad.leaf(w0), 2, 1).vjp(g)
    dx_leaf, dw_leaf = ad.conv2d(ad.leaf(x0), ad.leaf(w0), 2, 1).vjp(g)
    assert dx is None and dx_leaf.shape == x0.shape
    assert np.array_equal(dw, dw_leaf)
    # through backward the weight gradient is the same, bit for bit

    def weight_grad(x_node):
        wn = ad.leaf(w0)
        out = ad.reduce_sum(ad.tanh(ad.conv2d(x_node, wn, 2, 1)))
        return ad.backward(out, [wn])[wn]

    assert np.array_equal(weight_grad(ad.constant(x0)), weight_grad(ad.leaf(x0)))


def test_conv2d_skips_the_gradient_of_a_constant_weight():
    rng = np.random.default_rng(14)
    x0 = rng.standard_normal((2, 1, 8, 8))
    w0 = rng.standard_normal((5, 1, 3, 3))
    g = rng.standard_normal((2, 5, 4, 4))
    dx, dw = ad.conv2d(ad.leaf(x0), ad.constant(w0), 2, 1).vjp(g)
    dx_leaf, dw_leaf = ad.conv2d(ad.leaf(x0), ad.leaf(w0), 2, 1).vjp(g)
    assert dw is None and dw_leaf.shape == w0.shape
    assert np.array_equal(dx, dx_leaf)
    # through backward the input gradient is the same, bit for bit

    def input_grad(w_node):
        xn = ad.leaf(x0)
        out = ad.reduce_sum(ad.tanh(ad.conv2d(xn, w_node, 2, 1)))
        return ad.backward(out, [xn])[xn]

    assert np.array_equal(input_grad(ad.constant(w0)), input_grad(ad.leaf(w0)))


def test_conv2d_keeps_no_windows_for_a_constant_weight():
    # only dw reads the im2col windows: with a constant 11 x 11 weight the
    # graph would otherwise hold 121 copies of the output's pixels
    import tracemalloc

    xn = ad.leaf(np.random.default_rng(17).random((1, 1, 64, 64)))
    w0 = np.ones((1, 1, 11, 11)) / 121
    windows = 121 * 54 * 54 * 8
    for w_node, held in ((ad.constant(w0), False), (ad.leaf(w0), True)):
        tracemalloc.start()
        try:
            y = ad.conv2d(xn, w_node)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (kept > windows) == held, (held, kept)
        del y


def test_minmax_normalize_is_per_slice_over_the_trailing_two_axes():
    rng = np.random.default_rng(15)
    x0 = rng.standard_normal((3, 1, 8, 8))
    x0[1] = 0.7  # a constant slice between two varying ones
    g = rng.standard_normal(x0.shape)
    batch = ad.minmax_normalize(ad.leaf(x0))
    (dx,) = batch.vjp(g)
    for k in range(3):
        one = ad.minmax_normalize(ad.leaf(x0[k, 0]))
        assert np.array_equal(batch.value[k, 0], one.value), k
        assert np.array_equal(dx[k, 0], one.vjp(g[k, 0])[0]), k
    assert np.all(batch.value[1] == 0) and np.all(dx[1] == 0)
    for k in (0, 2):
        assert batch.value[k].min() == 0 and batch.value[k].max() == 1
        assert np.any(dx[k] != 0)


def test_minmax_normalize_batch_gradients():
    rng = np.random.default_rng(16)
    c = rng.standard_normal((2, 1, 4, 4))
    rep = ad.check_gradients(
        lambda ns: ad.reduce_sum(ad.minmax_normalize(ns["x"]) * c),
        {"x": rng.standard_normal((2, 1, 4, 4))},
    )
    assert rep.ok, str(rep)
    assert rep.inputs["x"]["checked"] == 32


@pytest.mark.parametrize("stride,pad,in_hw,out_hw", [(2, 1, (3, 3), (6, 6)), (1, 0, (4, 4), (6, 6))])
def test_transposed_conv2d_gradients(stride, pad, in_hw, out_hw):
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((2, 3) + in_hw)
    w0 = rng.standard_normal((3, 2, 3, 3)) * 0.4

    def build(x, w):
        return ad.reduce_sum(ad.tanh(ad.transposed_conv2d(x, w, stride, pad, out_hw)))

    xn, wn = ad.leaf(x0), ad.leaf(w0)
    g = ad.backward(build(xn, wn), [xn, wn])
    nx = fd_grad(lambda x: float(build(ad.leaf(x), ad.leaf(w0)).value), x0.copy())
    nw = fd_grad(lambda w: float(build(ad.leaf(x0), ad.leaf(w)).value), w0.copy())
    assert rel_err(g[xn], nx).max() < 1e-6
    assert rel_err(g[wn], nw).max() < 1e-6


def test_transposed_conv_is_adjoint_of_conv():
    # <conv(x), y> == <x, tconv(y)> with shared weights
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 2, 8, 8))
    w = rng.standard_normal((3, 2, 3, 3))
    y = rng.standard_normal((1, 3, 4, 4))
    cx = ad.conv2d(ad.constant(x), ad.constant(w), 2, 1).value
    # conv weights (C_out, C_in, kh, kw) already sit in tconv's (C_in_t, C_out_t) layout
    ty = ad.transposed_conv2d(ad.constant(y), ad.constant(w), 2, 1, (8, 8)).value
    assert abs(np.vdot(cx, y) - np.vdot(x, ty)) < 1e-9


def test_fft_magnitude_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    x0 = rng.random((4, 4))

    def build(x):
        return ad.reduce_sum(ad.complex_magnitude(ad.fft2(x)))

    xn = ad.leaf(x0)
    g = ad.backward(build(xn), [xn])[xn]
    num = fd_grad(lambda x: float(build(ad.leaf(x)).value), x0.copy())
    assert rel_err(g, num).max() < 1e-4


def test_fft_gradient_with_padding():
    rng = np.random.default_rng(6)
    x0 = rng.random((3, 5))  # pads to 4 x 8 internally

    def build(x):
        return ad.reduce_sum(ad.complex_magnitude(ad.fft2(x)))

    xn = ad.leaf(x0)
    g = ad.backward(build(xn), [xn])[xn]
    num = fd_grad(lambda x: float(build(ad.leaf(x)).value), x0.copy())
    assert g.shape == (3, 5)
    assert rel_err(g, num).max() < 1e-4


def test_gradient_linearity_over_graph_sum():
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((3, 3))
    xn = ad.leaf(x0)
    g_sum = ad.backward(ad.reduce_sum(ad.tanh(xn)) + ad.reduce_mean(xn * xn), [xn])[xn]
    g_a = ad.backward(ad.reduce_sum(ad.tanh(xn)), [xn])[xn]
    g_b = ad.backward(ad.reduce_mean(xn * xn), [xn])[xn]
    assert np.abs(g_sum - (g_a + g_b)).max() < 1e-12


def test_backward_leaves_forward_values_unchanged():
    x = ad.leaf(np.array([1.0, -2.0, 3.0]))
    y = ad.reduce_sum(ad.absolute(x) * x)
    before = y.value.copy()
    ad.backward(y, [x])
    assert np.array_equal(y.value, before)
    assert np.array_equal(x.value, np.array([1.0, -2.0, 3.0]))


def test_broadcast_bias_add_gradient():
    rng = np.random.default_rng(8)
    x0 = rng.standard_normal((2, 3))
    b0 = rng.standard_normal(3)
    bn = ad.leaf(b0)
    out = ad.reduce_sum(ad.tanh(ad.leaf(x0) + bn))
    g = ad.backward(out, [bn])[bn]
    num = fd_grad(lambda b: float(ad.reduce_sum(ad.tanh(ad.leaf(x0) + ad.leaf(b))).value), b0.copy())
    assert g.shape == (3,)
    assert rel_err(g, num).max() < 1e-6


class TestCheckGradients:
    def test_linear_graph_near_machine_precision(self):
        rep = ad.check_gradients(
            lambda ns: ad.reduce_sum(ns["x"] * 3.0 - 1.0),
            {"x": np.array([0.3, -0.7, 1.1])},
        )
        assert rep.ok and rep.worst < 1e-9

    def test_kink_points_excluded_and_reported(self):
        rep = ad.check_gradients(
            lambda ns: ad.reduce_sum(ad.absolute(ns["x"])),
            {"x": np.array([0.5, 0.0, -0.8])},  # exact kink at index 1
        )
        assert rep.ok
        assert rep.inputs["x"]["kinks"] == [1]
        assert rep.inputs["x"]["checked"] == 2

    def test_detects_a_wrong_gradient(self):
        def bad(ns):
            x = ns["x"]
            # silently corrupt the vjp of an otherwise fine node
            n = ad.reduce_sum(x * x)
            n.vjp = lambda g: (np.full(x.shape, 0.123),)
            return n

        rep = ad.check_gradients(bad, {"x": np.array([1.0, 2.0])})
        assert not rep.ok

    def test_sampled_coordinates(self):
        rng = np.random.default_rng(9)
        rep = ad.check_gradients(
            lambda ns: ad.reduce_mean(ad.tanh(ns["x"])),
            {"x": rng.standard_normal(100)},
            sample=10,
        )
        assert rep.ok
        assert rep.inputs["x"]["checked"] <= 10


# x holds signed zeros, NaN, infinities, subnormals and the float extremes
_LEAKY_X = np.array([0.0, -0.0, 1.5, -1.5, np.nan, -np.nan, np.inf, -np.inf,
                     5e-324, -5e-324, 1.7e308, -1.7e308])
_LEAKY_G = np.array([1.0, -2.0, 3.0, np.nan, np.inf, -np.inf, 0.5, -0.0, 2.0, -0.0, 1.0, -1.0])


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0, 1e-300])
def test_leaky_relu_matches_the_select_bit_for_bit(alpha):
    node = ad.leaky_relu(ad.leaf(_LEAKY_X), alpha)
    select = np.where(_LEAKY_X > 0, _LEAKY_X, alpha * _LEAKY_X)
    assert np.array_equal(_bits(node.value), _bits(select))
    (dx,) = node.vjp(_LEAKY_G)
    assert np.array_equal(_bits(dx), _bits(_LEAKY_G * np.where(_LEAKY_X > 0, 1.0, alpha)))


@pytest.mark.filterwarnings("ignore:invalid value")
def test_leaky_relu_at_slope_zero_differs_from_the_select_only_at_plus_inf():
    node = ad.leaky_relu(ad.leaf(_LEAKY_X), 0.0)
    select = np.where(_LEAKY_X > 0, _LEAKY_X, 0.0 * _LEAKY_X)
    differ = _bits(node.value) != _bits(select)
    assert list(_LEAKY_X[differ]) == [np.inf] and np.isnan(node.value[differ]).all()
    (dx,) = node.vjp(_LEAKY_G)
    assert np.array_equal(_bits(dx), _bits(_LEAKY_G * np.where(_LEAKY_X > 0, 1.0, 0.0)))


@pytest.mark.parametrize("alpha", [-0.2, 1.5, np.nan])
def test_leaky_relu_rejects_a_slope_outside_zero_one(alpha):
    with pytest.raises(ValueError, match=r"slope must be in \[0, 1\]"):
        ad.leaky_relu(ad.leaf(np.ones(3)), alpha)


@pytest.mark.parametrize("stride, pad", [(1, 1), (2, 1), (1, 2), (2, 0)])
def test_conv2d_padding_matches_np_pad(stride, pad):
    rng = np.random.default_rng(23)
    x, w = rng.standard_normal((2, 3, 7, 6)), rng.standard_normal((4, 3, 3, 3))
    ref = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    got = ad.conv2d(ad.leaf(x), ad.leaf(w), stride, pad)
    want = ad.conv2d(ad.leaf(ref), ad.leaf(w), stride, 0)
    assert np.array_equal(got.value, want.value)
