import numpy as np
import pytest

from flowfuse.flow import (
    SampleSchedule,
    VelocityModel,
    euler_sample,
    rf_loss,
)
from flowfuse.guidance import GuidanceSpec, WeightMaps, likelihood_grad


def mlp_rf_loss(x0, eps, t):
    """rf_loss of a small MLP, and the MLP itself for direct evaluation."""
    model = VelocityModel.mlp(dim=x0.shape[1], hidden=(8,), seed=11)
    return rf_loss(model, x0, eps, np.asarray(t, dtype=np.float64))[0], model


def estimate_f0(f_t, vhat, t):
    """The clean-endpoint estimate f_t - t * vhat as likelihood_grad forms it:
    with y = 0 and rho = 0.5 the stop-grad gradient 2 rho (f0_hat - y) is
    f0_hat itself."""
    f = np.atleast_2d(np.asarray(f_t, dtype=np.float64))
    zeros = np.zeros_like(f)
    spec = GuidanceSpec(rho=0.5, grad_mode="stop-grad",
                        weight_maps=WeightMaps(np.ones_like(f), zeros))
    vhat = np.atleast_2d(np.asarray(vhat, dtype=np.float64))
    return likelihood_grad(f, t, VelocityModel.constant(0.0), zeros, zeros, spec,
                           vhat=vhat).ravel()


class TestSchedule:
    def test_uniform_grid(self):
        s = SampleSchedule.uniform(4)
        assert s.steps == 4
        assert s.times == (1.0, 0.75, 0.5, 0.25, 0.0)

    def test_endpoints_and_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            SampleSchedule([1.0, 0.5, 0.5, 0.0])
        with pytest.raises(ValueError):
            SampleSchedule([0.9, 0.0])
        with pytest.raises(ValueError):
            SampleSchedule([1.0, 0.1])


class TestInterpolate:
    """rf_loss evaluates the field on x_t = (1 - t) x0 + t eps."""

    def test_endpoints(self):
        rng = np.random.default_rng(0)
        x0, eps = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        loss, model = mlp_rf_loss(x0, eps, np.zeros(3))
        want = np.mean((model.evaluate(x0, 0.0) - (eps - x0)) ** 2)
        assert abs(loss - want) <= 1e-12 * want

    def test_midpoint(self):
        rng = np.random.default_rng(1)
        x0, eps = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        loss, model = mlp_rf_loss(x0, eps, np.full(3, 0.5))
        want = np.mean((model.evaluate(0.5 * (x0 + eps), 0.5) - (eps - x0)) ** 2)
        assert abs(loss - want) <= 1e-12 * want

    def test_t_out_of_range_rejected(self):
        for t in (1.5, -0.5):
            with pytest.raises(ValueError):
                mlp_rf_loss(np.zeros((1, 2)), np.zeros((1, 2)), [t])


class TestVelocityTarget:
    """rf_loss regresses onto the path velocity eps - x0, constant in t."""

    def test_basic_and_degenerate(self):
        one = rf_loss(VelocityModel.constant(1.0), np.zeros((1, 1)), np.ones((1, 1)), [0.3])
        assert one == (0.0, {})
        x = np.array([[0.3, -0.2]])
        assert rf_loss(VelocityModel.constant(0.0), x, x, [0.7]) == (0.0, {})

    def test_consistent_with_interpolation_algebra(self):
        # the target equals (eps - x_t) / (1 - t) at every t
        rng = np.random.default_rng(0)
        x0, eps = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
        t = np.array([0.0, 0.3, 0.6, 0.9])
        model = VelocityModel.analytic_gaussian(0.2, 0.7)
        xt = (1.0 - t)[:, None] * x0 + t[:, None] * eps
        v = np.stack([model.evaluate(xt[k], float(t[k])) for k in range(4)])
        want = np.mean((v - (eps - xt) / (1.0 - t)[:, None]) ** 2)
        assert abs(rf_loss(model, x0, eps, t)[0] - want) <= 1e-12 * want


class TestEstimateF0:
    """likelihood_grad's clean-endpoint estimate f0_hat = f_t - t * v."""

    def test_t_zero_identity(self):
        f = np.array([0.4, 0.6])
        assert np.array_equal(estimate_f0(f, np.ones(2), 0.0), f)

    def test_worked_example(self):
        # x0 = 3, eps = 1, t = 0.5 -> f_t = 2, v = -2 -> estimate 3
        assert estimate_f0(np.array([2.0]), np.array([-2.0]), 0.5)[0] == 3.0

    def test_recovers_x0_with_exact_velocity(self):
        rng = np.random.default_rng(1)
        x0, eps = rng.standard_normal(8), rng.standard_normal(8)
        v = eps - x0
        for t in np.arange(0.1, 0.95, 0.1):
            ft = (1.0 - t) * x0 + t * eps
            assert np.abs(estimate_f0(ft, v, float(t)) - x0).max() < 1e-12


class TestRfLoss:
    def test_exact_fit_gives_zero(self):
        c = 1.7
        model = VelocityModel.constant(c)
        rng = np.random.default_rng(2)
        eps = rng.standard_normal((4, 3))
        x0 = eps - c
        loss, grads = rf_loss(model, x0, eps, np.full(4, 0.25))
        assert loss < 1e-28
        assert grads == {}

    def test_zero_model_unit_loss(self):
        model = VelocityModel.constant(0.0)
        x0 = np.zeros((5, 2))
        eps = np.ones((5, 2))
        loss, _ = rf_loss(model, x0, eps, np.linspace(0.0, 0.9, 5))
        assert abs(loss - 1.0) < 1e-12

    def test_t_equal_one_rejected(self):
        model = VelocityModel.constant(0.0)
        with pytest.raises(ValueError, match="pole|\\[0, 1\\)"):
            rf_loss(model, np.zeros((2, 2)), np.ones((2, 2)), np.array([0.5, 1.0]))

    def test_mlp_loss_and_grads_finite(self):
        model = VelocityModel.mlp(dim=2, hidden=(8,), seed=3)
        rng = np.random.default_rng(3)
        loss, grads = rf_loss(
            model, rng.standard_normal((6, 2)), rng.standard_normal((6, 2)),
            rng.uniform(0.0, 0.99, 6))
        assert np.isfinite(loss) and loss > 0
        assert set(grads) == set(model.params.names())
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_mlp_loss_and_grads_match_identity_matmul_feature(self):
        # reference: the [x | t] feature built as x @ [I | 0] + t @ [0 | 1], the
        # form the column concat replaced; both must give the same bits
        import flowfuse.autodiff as ad

        def identity_trace(model, x_node, t, param_nodes):
            b, dim = x_node.value.shape
            tcol = ad.constant(np.asarray(t, dtype=np.float64).reshape(b, 1))
            eye_x = ad.constant(np.concatenate([np.eye(dim), np.zeros((dim, 1))], axis=1))
            pad_t = ad.constant(np.concatenate([np.zeros((1, dim)), np.eye(1)], axis=1))
            h = ad.matmul(x_node, eye_x) + ad.matmul(tcol, pad_t)
            n_layers = len(model.meta["hidden"]) + 1
            for i in range(n_layers):
                h = ad.matmul(h, param_nodes[f"w{i}"]) + param_nodes[f"b{i}"]
                if i < n_layers - 1:
                    h = ad.leaky_relu(h, model.meta["alpha"])
            return h

        model = VelocityModel.mlp(dim=48, hidden=(32, 32), seed=6)
        rng = np.random.default_rng(6)
        x0, eps = rng.standard_normal((16, 48)), rng.standard_normal((16, 48))
        t = rng.uniform(0.0, 0.99, 16)
        loss, grads = rf_loss(model, x0, eps, t)

        param_nodes = {k: ad.leaf(model.params[k]) for k in model.params.names()}
        xt = (1.0 - t)[:, None] * x0 + t[:, None] * eps
        diff = identity_trace(model, ad.constant(xt), t, param_nodes) - ad.constant(eps - x0)
        ref = ad.reduce_mean(diff * diff)
        ref_grads = ad.backward(ref, list(param_nodes.values()))
        assert loss == float(ref.value)
        for k, n in param_nodes.items():
            assert np.array_equal(grads[k], ref_grads[n]), k


class TestEulerSample:
    def test_constant_field_invariant_to_step_count(self):
        model = VelocityModel.constant(2.0)
        f1 = np.array([1.0])
        outs = [euler_sample(model, f1, SampleSchedule.uniform(n))[-1].data[0]
                for n in (1, 10, 100)]
        assert all(abs(o - (-1.0)) < 1e-12 for o in outs)
        spread = max(outs) - min(outs)
        assert spread < 1e-12

    def test_trajectory_length_and_endpoints(self):
        model = VelocityModel.constant(0.5)
        f1 = np.array([0.0, 1.0])
        traj = euler_sample(model, f1, SampleSchedule.uniform(7))
        assert len(traj) == 8
        assert np.array_equal(traj[0].data, f1)
        assert np.abs(traj[-1].data - (f1 - 0.5)).max() < 1e-12

    def test_translation_equivariance_for_constant_model(self):
        model = VelocityModel.constant(-0.3)
        rng = np.random.default_rng(5)
        f = rng.standard_normal(6)
        delta = 1.234
        sched = SampleSchedule.uniform(13)
        a = euler_sample(model, f, sched)[-1].data
        b = euler_sample(model, f + delta, sched)[-1].data
        assert np.abs(b - (a + delta)).max() < 1e-12

    def test_returned_states_share_no_memory(self):
        f1 = np.array([0.0, 1.0])
        traj = euler_sample(VelocityModel.constant(0.5), f1, SampleSchedule.uniform(4))
        before = [s.data.copy() for s in traj]
        traj[2].data[:] = 99.0
        assert np.array_equal(f1, [0.0, 1.0])
        for k, s in enumerate(traj):
            if k != 2:
                assert np.array_equal(s.data, before[k]), k

    def test_nonfinite_state_reports_step_index(self):
        bad = VelocityModel.constant(np.inf)
        with pytest.raises(FloatingPointError, match="step 0"):
            euler_sample(bad, np.zeros(2), SampleSchedule.uniform(3))


class TestAnalyticGaussianVelocity:
    def test_at_marginal_mean_velocity_is_minus_mu0(self):
        mu0, s0 = 2.0, 0.5
        for t in (0.0, 0.3, 0.7, 0.99):
            x = np.array([(1.0 - t) * mu0])
            v = VelocityModel.analytic_gaussian(mu0, s0).evaluate(x, t)
            assert abs(v[0] + mu0) < 1e-12

    def test_sigma_to_zero_limit(self):
        mu0, t = 1.0, 0.4
        x = np.array([0.9])
        v = VelocityModel.analytic_gaussian(mu0, 1e-9).evaluate(x, t)
        expected = (x - (1.0 - t) * mu0) / t - mu0
        assert abs(v[0] - expected[0]) < 1e-6

    def test_trace_matches_the_closed_form_bitwise(self):
        import flowfuse.autodiff as ad

        mu0, s0 = 0.8, 0.6
        model = VelocityModel.analytic_gaussian(mu0, s0)
        x = np.random.default_rng(5).standard_normal((4, 3))
        for t in (0.0, 0.37, 0.99, 1.0):
            xn = ad.leaf(x)
            node = model.trace(xn, t)
            slope = (t - (1.0 - t) * s0 * s0) / ((1.0 - t) ** 2 * s0 * s0 + t * t)
            assert np.array_equal(node.value, slope * (x - (1.0 - t) * mu0) - mu0), t
            # the state gradient is the field's slope, bit for bit
            grad = ad.backward(ad.reduce_sum(node), [xn])[xn]
            assert np.array_equal(grad, np.full(x.shape, slope)), t

    def test_matches_monte_carlo_conditional_expectation(self):
        # E[eps - x0 | x_t in a 0.01 window around x] from 1e6 draws
        mu0, s0, t, x_query = 1.0, 0.5, 0.4, 0.7
        rng = np.random.default_rng(123)
        n = 1_000_000
        x0 = rng.normal(mu0, s0, n)
        eps = rng.normal(0.0, 1.0, n)
        xt = (1.0 - t) * x0 + t * eps
        sel = np.abs(xt - x_query) < 0.005
        sample = (eps - x0)[sel]
        mc = sample.mean()
        se = sample.std(ddof=1) / np.sqrt(sel.sum())
        v = VelocityModel.analytic_gaussian(mu0, s0).evaluate(np.array([x_query]), t)[0]
        assert abs(v - mc) < 3.0 * se

    def test_sampling_transports_standard_normal_to_target(self):
        # terminal moments of the flow from N(0,1): mean mu0, std sigma0
        mu0, s0 = 2.0, 0.5
        model = VelocityModel.analytic_gaussian(mu0, s0)
        rng = np.random.default_rng(7)
        starts = rng.standard_normal(10_000)
        out = euler_sample(model, starts, SampleSchedule.uniform(200))[-1].data
        assert abs(out.mean() - mu0) < 0.02 * mu0
        assert abs(out.std() - s0) < 0.03 * s0


@pytest.mark.parametrize("alpha", [-0.2, 1.5])
def test_mlp_rejects_a_leaky_slope_outside_zero_one(alpha):
    with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\]"):
        VelocityModel.mlp(dim=4, hidden=(3,), alpha=alpha)


# -- one forward: evaluate is trace on a constant --------------------------------------


def numpy_mlp_forward(model, x, t):
    """Plain-numpy oracle of the mlp field: rows of dim with t appended, then
    affine layers with leaky ReLU as max(h, alpha h) between them."""
    dim = model.meta["dim"]
    x = np.asarray(x, dtype=np.float64)
    rows = x.reshape(-1, dim)
    tcol = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1, 1), (rows.shape[0], 1))
    h = np.concatenate([rows, tcol], axis=1)
    n_layers = len(model.meta["hidden"]) + 1
    for i in range(n_layers):
        h = h @ model.params[f"w{i}"]
        h += model.params[f"b{i}"]
        if i < n_layers - 1:
            np.maximum(h, model.meta["alpha"] * h, out=h)
    return h.reshape(x.shape)


@pytest.mark.parametrize("shape, t", [
    ((5, 48), 0.37), ((5, 48), np.linspace(0.0, 0.9, 5)), ((48,), 1.0),
    ((4, 3, 4), 0.5), ((1, 48), 0.0),
], ids=["batch", "per-row t", "flat", "latent", "one row"])
def test_mlp_evaluate_matches_a_numpy_forward_bit_for_bit(shape, t):
    model = VelocityModel.mlp(dim=48, hidden=(32, 16), seed=12)
    x = np.random.default_rng(12).standard_normal(shape)
    out = model.evaluate(x, t)
    assert out.shape == shape
    assert np.array_equal(out, numpy_mlp_forward(model, x, t))


def test_mlp_rejects_a_state_of_another_dim():
    model = VelocityModel.mlp(dim=6, hidden=(4,), seed=0)
    for x in (np.zeros((2, 5)), np.zeros((3, 3))):
        with pytest.raises(ValueError, match=r"does not match model dim 6"):
            model.evaluate(x, 0.5)


def test_mlp_state_gradient_is_the_same_for_a_latent_and_a_row_leaf():
    import flowfuse.autodiff as ad

    model = VelocityModel.mlp(dim=48, hidden=(32,), seed=13)
    f = np.random.default_rng(13).standard_normal((4, 3, 4))
    grads = []
    for state in (f, f.reshape(1, 48)):
        x = ad.leaf(state)
        v = model.trace(x, 0.6)
        assert v.shape == state.shape
        loss = ad.reduce_sum((x - v * 0.6) * (x - v * 0.6))
        grads.append(ad.backward(loss, [x])[x])
    assert grads[0].shape == (4, 3, 4)
    assert np.array_equal(grads[0].reshape(1, 48), grads[1])


def test_gaussian_trace_takes_one_t_per_row():
    import flowfuse.autodiff as ad

    model = VelocityModel.analytic_gaussian(0.8, 0.6)
    x = np.random.default_rng(14).standard_normal((4, 2, 3))
    t = np.array([0.0, 0.3, 0.7, 1.0])
    v = model.trace(ad.constant(x), t)
    assert isinstance(v, ad.Node) and v.shape == x.shape
    for k in range(4):
        assert np.array_equal(v.value[k], model.evaluate(x[k], float(t[k]))), k


def test_mlp_parameters_follow_param_shapes():
    from flowfuse.flow import param_shapes

    model = VelocityModel.mlp(dim=6, hidden=(5, 4), seed=2)
    shapes = param_shapes(6, (5, 4))
    assert list(shapes) == ["w0", "b0", "w1", "b1", "w2", "b2"]
    assert shapes["w0"] == (7, 5) and shapes["w2"] == (4, 6) and shapes["b2"] == (6,)
    assert {k: model.params[k].shape for k in model.params.names()} == shapes
    # He-normal weights drawn layer by layer from one generator; zero biases
    rng = np.random.default_rng(2)
    for i, (fan_in, fan_out) in enumerate([(7, 5), (5, 4), (4, 6)]):
        want = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        assert np.array_equal(model.params[f"w{i}"], want), i
        assert not model.params[f"b{i}"].any(), i
