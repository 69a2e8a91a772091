import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        ("sub", lambda x: ad.reduce_sum(ad.sub(2.0, x))),
        ("mul", lambda x: ad.reduce_sum(x * x)),
        ("div", lambda x: ad.reduce_sum(ad.div(1.0, x + 2.0))),
        ("tanh", lambda x: ad.reduce_sum(ad.tanh(x))),
        ("log1p", lambda x: ad.reduce_sum(ad.log1p(x + 2.0))),
        ("leaky_relu", lambda x: ad.reduce_sum(ad.leaky_relu(x + 0.3, 0.2))),
        ("abs", lambda x: ad.reduce_sum(ad.absolute(x + 0.3))),
        ("mean", lambda x: ad.reduce_mean(x * x * x)),
        ("clamp", lambda x: ad.reduce_sum(ad.clamp(x, -0.5, 0.5) * x)),
        ("minmax", lambda x: ad.reduce_sum(ad.minmax_normalize(x) * x)),
        ("reshape", lambda x: ad.reduce_sum(ad.reshape(x, (2, -1)) * ad.reshape(x * x, (2, 6)))),
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


def test_reshape_of_the_same_shape_adds_no_node():
    x = ad.leaf(np.ones((3, 4)))
    assert ad.reshape(x, (3, 4)) is x and ad.reshape(x, (-1, 4)) is x
    y = ad.reshape(x, (4, 3))
    assert y.op == "reshape" and y.parents == (x,) and y.shape == (4, 3)
    with pytest.raises(ValueError):
        ad.reshape(x, (5, 2))


def test_array_times_node_is_a_node():
    # numpy defers to Node's reflected operators instead of building an
    # object array of per-element products
    x0 = np.array([[1.0, -2.0, 3.0], [0.5, 4.0, -1.0]])
    col = np.full((2, 1), 2.0)
    x = ad.leaf(x0)
    out = col * x
    assert isinstance(out, ad.Node), type(out)
    assert out.value.dtype == np.float64 and np.array_equal(out.value, col * x0)
    g = ad.backward(ad.reduce_sum(out), [x])[x]
    assert np.array_equal(g, np.broadcast_to(col, x0.shape))
    for op in (np.add, np.subtract, np.true_divide):  # no reflected form: a TypeError
        with pytest.raises(TypeError):
            op(col, x)


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


# (stride, pad, C_in, C_out, kh, kw): 3 -> 4 channels takes the scatter input
# gradient; C_out <= C_in at stride 1 takes the correlation
@pytest.mark.parametrize("stride,pad,cin,cout,kh,kw", [
    pytest.param(1, 0, 3, 4, 3, 3, id="1-0"),
    pytest.param(1, 1, 3, 4, 3, 3, id="1-1"),
    pytest.param(2, 1, 3, 4, 3, 3, id="2-1"),
    pytest.param(1, 1, 4, 2, 3, 3, id="1-1-cout<cin"),
    pytest.param(1, 2, 3, 3, 3, 3, id="1-2-cout=cin"),
    pytest.param(2, 1, 4, 2, 3, 3, id="2-1-cout<cin"),
    pytest.param(1, 0, 2, 1, 1, 5, id="1-0-row-kernel"),
    pytest.param(1, 0, 1, 1, 5, 1, id="1-0-column-kernel"),
    # weights-first forward: dw reads windows the vjp builds from the input
    pytest.param(1, 0, 4, 2, 3, 3, id="1-0-cout<cin"),
    pytest.param(1, 0, 3, 2, 1, 5, id="1-0-row-kernel-cout<cin"),
])
def test_conv2d_gradients(stride, pad, cin, cout, kh, kw):
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((2, cin, 6, 6))
    w0 = rng.standard_normal((cout, cin, kh, kw)) * 0.4

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


# -- which nodes take a gradient ---------------------------------------------------------


def test_ops_on_constants_take_no_gradient():
    c = ad.constant(np.ones((1, 1, 5, 5)))
    k = ad.constant(np.ones((1, 1, 3, 3)))
    x = ad.leaf(np.ones((1, 1, 5, 5)))
    for node in (c + 1.0, c * c, ad.conv2d(c, k), ad.tanh(c), ad.reduce_mean(c - c),
                 ad.minmax_normalize(c / 2.0)):
        assert not node.requires_grad, node
    for node in (x + c, c * x, ad.conv2d(x, k), ad.conv2d(c, ad.leaf(k.value)), x - 1.0):
        assert node.requires_grad, node


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
def test_elementwise_vjps_skip_an_operand_that_takes_no_gradient(op):
    rng = np.random.default_rng(24)
    a0, b0 = rng.standard_normal((3, 4)) + 3.0, rng.standard_normal(4) + 3.0
    g = rng.standard_normal((3, 4))
    ga_leaf, gb_leaf = op(ad.leaf(a0), ad.leaf(b0)).vjp(g)
    ga, gb = op(ad.leaf(a0), ad.constant(b0)).vjp(g)
    assert gb is None and np.array_equal(ga, ga_leaf)
    ga, gb = op(ad.constant(a0), ad.leaf(b0)).vjp(g)
    assert ga is None and np.array_equal(gb, gb_leaf)


def test_backward_rejects_a_node_that_takes_no_gradient():
    x = ad.leaf(np.ones(3))
    c = ad.constant(np.ones(3))
    with pytest.raises(ValueError, match="takes no gradient"):
        ad.backward(ad.reduce_sum(x * c), [x, c])


# -- the weights-first forward of a stride-1 conv2d with C_out < C_in ------------------------


def _window_conv(x, w, pad):
    """Stride-1 conv2d from an explicit (n, C_in, kh, kw, oh, ow) window array."""
    cout, cin, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    win = np.empty((x.shape[0], cin, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            win[:, :, i, j] = xp[:, :, i : i + oh, j : j + ow]
    return np.einsum("ocij,ncijyx->noyx", w, win)


# (C_in, C_out, kh, kw, pad), all with C_out < C_in
WEIGHTS_FIRST_CASES = {
    "3x3 pad 0": (5, 2, 3, 3, 0),
    "3x3 pad 1": (5, 2, 3, 3, 1),
    "1x5 pad 0": (3, 1, 1, 5, 0),
    "5x1 pad 0": (3, 2, 5, 1, 0),
    "encoder layer 3": (64, 4, 3, 3, 1),
}


@pytest.mark.parametrize("case", WEIGHTS_FIRST_CASES.values(), ids=WEIGHTS_FIRST_CASES.keys())
def test_conv2d_weights_first_forward_matches_the_windows(case):
    cin, cout, kh, kw, pad = case
    rng = np.random.default_rng(31)
    x0 = rng.standard_normal((2, cin, 7, 9))
    w0 = rng.standard_normal((cout, cin, kh, kw))
    got = ad.conv2d(ad.constant(x0), ad.constant(w0), 1, pad).value
    want = _window_conv(x0, w0, pad)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # one forward formula, whichever operands take a gradient
    assert np.array_equal(ad.conv2d(ad.leaf(x0), ad.leaf(w0), 1, pad).value, got)


@pytest.mark.parametrize("case", WEIGHTS_FIRST_CASES.values(), ids=WEIGHTS_FIRST_CASES.keys())
def test_conv2d_weights_first_batch_equals_each_image(case):
    cin, cout, kh, kw, pad = case
    rng = np.random.default_rng(32)
    x0 = rng.standard_normal((3, cin, 8, 6))
    w_node = ad.constant(rng.standard_normal((cout, cin, kh, kw)))
    batch = ad.conv2d(ad.constant(x0), w_node, 1, pad).value
    for k in range(len(x0)):
        assert np.array_equal(batch[k], ad.conv2d(ad.constant(x0[k : k + 1]), w_node, 1,
                                                  pad).value[0])


def test_conv2d_weights_first_builds_no_windows():
    # the encoder's last layer: im2col would build 576 window rows of 32 x 32
    # pixels; weights-first builds 36 tap planes of 34 x 34 and the padded input
    import tracemalloc

    rng = np.random.default_rng(33)
    x0 = rng.standard_normal((1, 64, 32, 32))
    w0 = rng.standard_normal((4, 64, 3, 3))
    windows = 64 * 9 * 32 * 32 * 8
    for w_node in (ad.constant(w0), ad.leaf(w0)):
        tracemalloc.start()
        try:
            y = ad.conv2d(ad.constant(x0), w_node, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < windows / 2, (w_node.op, peak)
        del y


# -- the two input-gradient formulas of conv2d ---------------------------------------------


def _scatter_dx(g, w, xshape, stride, pad):
    """conv2d's input gradient as one GEMM into window rows, scattered back
    onto the padded input by kh·kw strided adds."""
    n, c, h, wd = xshape
    cout, cin, kh, kw = w.shape
    oh, ow = g.shape[-2:]
    rows = np.matmul(w.reshape(cout, -1).T, g.reshape(n, cout, oh * ow))
    d6 = rows.reshape(n, c, kh, kw, oh, ow)
    out = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += d6[:, :, i, j]
    return out[:, :, pad : pad + h, pad : pad + wd]


# (n, C_in, C_out, H, W, kh, kw, pad), all at stride 1 with C_out <= C_in
CORRELATION_CASES = {
    "3x3 pad 0": (1, 5, 2, 7, 9, 3, 3, 0),
    "3x3 pad 1": (4, 5, 2, 9, 6, 3, 3, 1),
    "3x3 pad 2": (1, 3, 3, 5, 8, 3, 3, 2),
    "1x11 pad 0": (4, 1, 1, 13, 17, 1, 11, 0),
    "11x1 pad 0": (1, 1, 1, 15, 12, 11, 1, 0),
    "1x11 cout<cin": (2, 3, 2, 11, 14, 1, 11, 0),
    "3x3 one channel": (4, 1, 1, 9, 5, 3, 3, 1),
    "encoder layer 3": (8, 48, 4, 8, 8, 3, 3, 1),
}


@pytest.mark.parametrize("case", CORRELATION_CASES.values(), ids=CORRELATION_CASES.keys())
def test_conv2d_correlation_dx_matches_the_scatter(case):
    n, cin, cout, h, wd, kh, kw, pad = case
    rng = np.random.default_rng(25)
    x0 = rng.standard_normal((n, cin, h, wd))
    w0 = rng.standard_normal((cout, cin, kh, kw))
    node = ad.conv2d(ad.leaf(x0), ad.constant(w0), 1, pad)
    g = rng.standard_normal(node.shape)
    dx, _ = node.vjp(g)
    want = _scatter_dx(g, w0, x0.shape, 1, pad)
    assert dx.shape == x0.shape
    assert np.abs(dx - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("stride, cin, cout", [(2, 4, 2), (2, 2, 4), (1, 2, 4)])
def test_conv2d_keeps_the_scatter_for_stride_2_or_more_outputs(stride, cin, cout):
    rng = np.random.default_rng(26)
    x0 = rng.standard_normal((2, cin, 8, 7))
    w0 = rng.standard_normal((cout, cin, 3, 3))
    node = ad.conv2d(ad.leaf(x0), ad.constant(w0), stride, 1)
    g = rng.standard_normal(node.shape)
    assert np.array_equal(node.vjp(g)[0], _scatter_dx(g, w0, x0.shape, stride, 1))


@st.composite
def _conv_geometry(draw):
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pad = draw(st.integers(0, min(kh, kw) - 1))
    h = draw(st.integers(max(1, kh - 2 * pad), 9))
    w = draw(st.integers(max(1, kw - 2 * pad), 9))
    return (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4)),
            h, w, kh, kw, draw(st.sampled_from((1, 2))), pad)


@settings(max_examples=60, deadline=None)
@given(geometry=_conv_geometry(), seed=st.integers(0, 2**32 - 1))
def test_conv2d_vjp_is_the_adjoint(geometry, seed):
    # conv2d is bilinear, so <conv2d(x, w), g> = <x, dx> = <w, dw>
    n, cin, cout, h, wd, kh, kw, stride, pad = geometry
    rng = np.random.default_rng(seed)
    x0, w0 = rng.standard_normal((n, cin, h, wd)), rng.standard_normal((cout, cin, kh, kw))
    node = ad.conv2d(ad.leaf(x0), ad.leaf(w0), stride, pad)
    g = rng.standard_normal(node.shape)
    dx, dw = node.vjp(g)
    lhs = np.vdot(node.value, g)
    scale = np.abs(node.value).sum() * np.abs(g).max() + 1e-300
    assert abs(lhs - np.vdot(x0, dx)) <= 1e-12 * scale
    assert abs(lhs - np.vdot(w0, dw)) <= 1e-12 * scale


# -- transposed_conv2d is conv2d's adjoint on the same kernels -------------------------------


def _tconv_geometry(geometry):
    """conv2d operands of a geometry drawn by _conv_geometry, and the output
    shape; transposed_conv2d maps that output shape back to the input's."""
    n, cin, cout, h, wd, kh, kw, stride, pad = geometry
    oh, ow = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
    return (n, cin, h, wd), (cout, cin, kh, kw), (n, cout, oh, ow), stride, pad


@settings(max_examples=60, deadline=None)
@given(geometry=_conv_geometry(), seed=st.integers(0, 2**32 - 1))
def test_transposed_conv2d_forward_is_the_conv2d_input_gradient(geometry, seed):
    xshape, wshape, yshape, stride, pad = _tconv_geometry(geometry)
    rng = np.random.default_rng(seed)
    x0, w0, y0 = (rng.standard_normal(s) for s in (xshape, wshape, yshape))
    dx, _ = ad.conv2d(ad.leaf(x0), ad.constant(w0), stride, pad).vjp(y0)
    t = ad.transposed_conv2d(ad.constant(y0), ad.constant(w0), stride, pad, xshape[2:])
    assert np.array_equal(t.value, dx)


@settings(max_examples=60, deadline=None)
@given(geometry=_conv_geometry(), seed=st.integers(0, 2**32 - 1))
def test_transposed_conv2d_input_gradient_is_the_conv2d_forward(geometry, seed):
    xshape, wshape, yshape, stride, pad = _tconv_geometry(geometry)
    rng = np.random.default_rng(seed)
    w0, y0, g = (rng.standard_normal(s) for s in (wshape, yshape, xshape))
    dy, _ = ad.transposed_conv2d(ad.leaf(y0), ad.constant(w0), stride, pad, xshape[2:]).vjp(g)
    assert np.array_equal(dy, ad.conv2d(ad.constant(g), ad.constant(w0), stride, pad).value)


@settings(max_examples=60, deadline=None)
@given(geometry=_conv_geometry(), seed=st.integers(0, 2**32 - 1))
def test_transposed_conv2d_vjp_is_the_adjoint(geometry, seed):
    # transposed_conv2d is bilinear, so <tconv(y, w), g> = <y, dy> = <w, dw>
    xshape, wshape, yshape, stride, pad = _tconv_geometry(geometry)
    rng = np.random.default_rng(seed)
    w0, y0, g = (rng.standard_normal(s) for s in (wshape, yshape, xshape))
    node = ad.transposed_conv2d(ad.leaf(y0), ad.leaf(w0), stride, pad, xshape[2:])
    dy, dw = node.vjp(g)
    lhs = np.vdot(node.value, g)
    scale = np.abs(node.value).sum() * np.abs(g).max() + 1e-300
    assert abs(lhs - np.vdot(y0, dy)) <= 1e-12 * scale
    assert abs(lhs - np.vdot(w0, dw)) <= 1e-12 * scale


# -- rejected geometries -------------------------------------------------------------------


def _conv(x, w, pad):
    return ad.conv2d(x, w, 1, pad)


def _tconv(x, w, pad):
    return ad.transposed_conv2d(x, w, 2, pad, (4, 4))


# conv2d and transposed_conv2d share one geometry check; its messages name the op
@pytest.mark.parametrize("op, xshape, wshape, pad, match", [
    (_conv, (1, 1, 8, 8), (1, 1, 3, 3), -1, r"pad must be in \[0, 3\) for a 3x3 kernel, got -1"),
    (_conv, (1, 1, 8, 8), (1, 1, 3, 3), 3, r"pad must be in \[0, 3\) for a 3x3 kernel, got 3"),
    (_conv, (1, 1, 8, 16), (1, 1, 1, 11), 1,
     r"pad must be in \[0, 1\) for a 1x11 kernel, got 1"),
    (_conv, (1, 1, 2, 2), (1, 1, 3, 3), 0, r"input \(1, 1, 2, 2\) padded by 0 is smaller than "
                                           r"the kernel \(1, 1, 3, 3\)"),
    (_conv, (1, 8, 8), (1, 1, 3, 3), 0, r"4-D input and weight, got shapes \(1, 8, 8\) and "
                                        r"\(1, 1, 3, 3\)"),
    (_conv, (1, 1, 8, 8), (3, 3), 0,
     r"4-D input and weight, got shapes \(1, 1, 8, 8\) and \(3, 3\)"),
    (_tconv, (1, 1, 2, 2), (1, 1, 3, 3), -1,
     r"^transposed_conv2d pad must be in \[0, 3\) for a 3x3 kernel, got -1$"),
    (_tconv, (1, 1, 2, 2), (1, 1, 3, 3), 3,
     r"^transposed_conv2d pad must be in \[0, 3\) for a 3x3 kernel, got 3$"),
    (_tconv, (1, 2, 2), (1, 1, 3, 3), 1, r"^transposed_conv2d expects a 4-D input and weight, "
                                         r"got shapes \(1, 2, 2\) and \(1, 1, 3, 3\)$"),
], ids=["negative pad", "pad at kernel size", "pad past a 1-D kernel", "input below kernel",
        "3-D input", "2-D weight", "tconv negative pad", "tconv pad at kernel size",
        "tconv 3-D input"])
def test_conv2d_rejects_a_bad_geometry(op, xshape, wshape, pad, match):
    with pytest.raises(ValueError, match=match):
        op(ad.leaf(np.ones(xshape)), ad.leaf(np.ones(wshape)), pad)


def test_transposed_conv2d_rejects_a_negative_pad():
    with pytest.raises(ValueError, match=r"pad must be in \[0, 3\) for a 3x3 kernel, got -1"):
        ad.transposed_conv2d(ad.leaf(np.ones((1, 1, 2, 2))), ad.leaf(np.ones((1, 1, 3, 3))),
                             2, -1, (8, 8))


def test_transposed_conv2d_rejects_a_3d_operand():
    with pytest.raises(ValueError, match=r"transposed_conv2d expects a 4-D input and weight, "
                                         r"got shapes \(1, 2, 2\) and \(1, 1, 3, 3\)"):
        ad.transposed_conv2d(ad.leaf(np.ones((1, 2, 2))), ad.leaf(np.ones((1, 1, 3, 3))),
                             2, 1, (4, 4))
