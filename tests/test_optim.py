import numpy as np
import pytest

from flowfuse.optim import ParamSet, adam_step


def test_zero_gradients_leave_fresh_params_unchanged():
    ps = ParamSet({"w": np.array([1.0, 2.0]), "b": np.array(0.5)})
    out = adam_step(ps, {"w": np.zeros(2), "b": np.array(0.0)}, lr=0.1)
    assert np.array_equal(out["w"], ps["w"])
    assert np.array_equal(out["b"], ps["b"])
    assert out.step == 1


def test_first_step_closed_form():
    # g = 1 on a scalar: mhat = 1, vhat = 1 -> delta = lr / (1 + eps)
    ps = ParamSet({"w": np.array(3.0)})
    out = adam_step(ps, {"w": np.array(1.0)}, lr=0.1)
    expected = 3.0 - 0.1 * 1.0 / (1.0 + 1e-8)
    assert abs(out["w"] - expected) < 1e-15
    assert abs(out["w"] - 2.9) < 1e-8


def test_two_runs_bit_identical():
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal((4, 3))

    def run():
        ps = ParamSet({"w": w0.copy()})
        g_rng = np.random.default_rng(42)
        for _ in range(25):
            ps = adam_step(ps, {"w": g_rng.standard_normal((4, 3))}, lr=1e-2)
        return ps["w"]

    assert np.array_equal(run(), run())


def test_nonfinite_gradient_names_the_parameter():
    ps = ParamSet({"good": np.zeros(2), "bad": np.zeros(2)})
    g = {"good": np.zeros(2), "bad": np.array([1.0, np.nan])}
    with pytest.raises(ValueError, match="bad"):
        adam_step(ps, g, lr=0.1)


def test_gradient_shape_and_name_mismatches_rejected():
    ps = ParamSet({"w": np.zeros((2, 2))})
    with pytest.raises(ValueError, match="shape"):
        adam_step(ps, {"w": np.zeros(3)}, lr=0.1)
    with pytest.raises(ValueError, match="names"):
        adam_step(ps, {"w2": np.zeros((2, 2))}, lr=0.1)


def test_step_is_pure():
    ps = ParamSet({"w": np.array([1.0])})
    before = ps["w"].copy()
    adam_step(ps, {"w": np.array([5.0])}, lr=0.5)
    assert np.array_equal(ps["w"], before)
    assert ps.step == 0


def _textbook_adam(ps, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The update written as one expression per quantity, the reference."""
    t = ps.step + 1
    new_p, new_m, new_v = {}, {}, {}
    for k, p in ps.params.items():
        g = grads[k]
        m = beta1 * ps.m[k] + (1.0 - beta1) * g
        v = beta2 * ps.v[k] + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1**t)
        vhat = v / (1.0 - beta2**t)
        new_p[k] = p - lr * mhat / (np.sqrt(vhat) + eps)
        new_m[k], new_v[k] = m, v
    return ParamSet(new_p, new_m, new_v, t)


def test_update_equals_the_textbook_expressions_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = {"w": (4, 3), "b": (3, 1, 1), "s": ()}
    got = want = ParamSet({k: rng.standard_normal(s) for k, s in shapes.items()})
    for _ in range(6):
        grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for k, s in shapes.items()}
        got = adam_step(got, grads, lr=3e-3, beta1=0.8, beta2=0.99)
        want = _textbook_adam(want, grads, lr=3e-3, beta1=0.8, beta2=0.99)
        assert got.step == want.step
        for k in shapes:
            for a, b in ((got.params, want.params), (got.m, want.m), (got.v, want.v)):
                assert np.asarray(a[k]).tobytes() == np.asarray(b[k]).tobytes(), k
