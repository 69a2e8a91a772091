import numpy as np
import pytest

from flowfuse.flow import SampleSchedule, VelocityModel, euler_sample
from flowfuse.image import gaussian_blur
from flowfuse.guidance import (
    GuidanceSpec,
    WeightMaps,
    em_fusion_prior,
    guided_velocity,
    likelihood_grad,
    measurement_target,
    saliency_weights,
    weighted_target,
)


def old_saliency(i, v):
    """saliency_weights as it was: one blur per source; returns (w_v, w_ir)."""
    s_ir = gaussian_blur(np.abs(i - i.mean()), 3.0)
    s_v = gaussian_blur(np.abs(v - v.mean()), 3.0)
    w_ir = (s_ir + 1e-8 / 2) / (s_ir + s_v + 1e-8)
    return 1.0 - w_ir, w_ir


def old_weighted_measurement(i, v):
    """measurement_target's weighted target as it was: latent maps copied to
    the full (C, H, W) shape."""
    if i.ndim == 3:
        w_v, w_ir = (np.broadcast_to(w, i.shape).copy()
                     for w in old_saliency(i.mean(axis=0), v.mean(axis=0)))
        return w_v * v + w_ir * i
    w_v, w_ir = old_saliency(i, v)
    return np.clip(w_v * v + w_ir * i, 0.0, 1.0)


def blob_image(size=24, cx=12, cy=12, sigma=3.0, amp=0.8):
    y, x = np.mgrid[0:size, 0:size]
    return amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma**2))


class TestWeightMaps:
    def test_sum_to_one_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            WeightMaps(np.full((2, 2), 0.7), np.full((2, 2), 0.7))
        with pytest.raises(ValueError, match="non-negative"):
            WeightMaps(np.full((2, 2), -0.1), np.full((2, 2), 1.1))


class TestSaliencyWeights:
    def test_identical_inputs_give_half_everywhere(self):
        rng = np.random.default_rng(0)
        img = rng.random((16, 16))
        w = saliency_weights(img, img)
        assert np.abs(w.w_v - 0.5).max() < 1e-12
        assert np.abs(w.w_ir - 0.5).max() < 1e-12

    def test_bright_blob_wins_the_weights(self):
        flat = np.full((24, 24), 0.5)
        blob = blob_image()
        w = saliency_weights(flat, blob)  # i = flat, v = blob
        assert w.w_v[12, 12] > 0.95

    def test_weights_in_range_and_convex(self):
        rng = np.random.default_rng(1)
        w = saliency_weights(rng.random((12, 12)), rng.random((12, 12)))
        assert w.w_v.min() >= 0 and w.w_v.max() <= 1
        assert np.abs(w.w_v + w.w_ir - 1.0).max() < 1e-12

    def test_swap_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((10, 10)), rng.random((10, 10))
        w_ab = saliency_weights(a, b)
        w_ba = saliency_weights(b, a)
        assert np.abs(w_ab.w_ir - w_ba.w_v).max() < 1e-12
        assert np.abs(w_ab.w_v - w_ba.w_ir).max() < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            saliency_weights(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_matches_one_blur_per_source_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for shape in ((8, 8), (9, 9), (16, 16), (17, 17), (12, 31), (32, 32), (3, 5)):
            i, v = rng.random(shape), rng.random(shape)
            w = saliency_weights(i, v)
            w_v, w_ir = old_saliency(i, v)
            assert np.array_equal(w.w_v, w_v) and np.array_equal(w.w_ir, w_ir), shape


class TestWeightedTarget:
    def test_degenerate_weights(self):
        rng = np.random.default_rng(3)
        i, v = rng.random((6, 6)), rng.random((6, 6))
        all_v = WeightMaps(np.ones((6, 6)), np.zeros((6, 6)))
        assert np.array_equal(weighted_target(i, v, all_v), v)
        half = WeightMaps(np.full((6, 6), 0.5), np.full((6, 6), 0.5))
        assert np.abs(weighted_target(np.zeros((6, 6)), np.ones((6, 6)), half) - 0.5).max() == 0

    def test_output_between_sources(self):
        rng = np.random.default_rng(4)
        i, v = rng.random((8, 8)), rng.random((8, 8))
        y = weighted_target(i, v, saliency_weights(i, v))
        assert np.all(y >= np.minimum(i, v) - 1e-12)
        assert np.all(y <= np.maximum(i, v) + 1e-12)


class TestEmFusionPrior:
    def test_identical_sources_after_one_iteration(self):
        rng = np.random.default_rng(5)
        src = rng.random((7, 7))
        y = em_fusion_prior(rng.random((7, 7)), src, src, iters=1)
        assert np.abs(y - src).max() < 1e-12

    def test_midpoint_is_a_fixed_point(self):
        rng = np.random.default_rng(6)
        i = rng.random((6, 6)) * 0.4
        v = i + 0.4
        f0 = (i + v) / 2.0  # symmetric responsibilities keep the blend at f0
        y = em_fusion_prior(f0, i, v, iters=5)
        assert np.abs(y - f0).max() < 1e-9

    @pytest.mark.parametrize("iters", [1, 3])
    def test_far_estimate_stays_finite_and_in_bounds(self, iters):
        # |f0 - source| / scale beyond ~745 underflows both Laplace weights
        y = em_fusion_prior(np.array([[80.0]]), np.array([[0.0]]), np.array([[1.0]]), iters)
        assert np.isfinite(y).all() and 0.0 <= y[0, 0] <= 80.0
        f0 = np.array([[-1e4, 80.0, 1e4, 0.5]])
        i, v = np.array([[0.0, 0.0, 0.2, 0.3]]), np.array([[1.0, 1.0, 0.9, 0.7]])
        y = em_fusion_prior(f0, i, v, iters)
        assert np.isfinite(y).all()
        assert np.all(y >= np.minimum(np.minimum(i, v), f0))
        assert np.all(y <= np.maximum(np.maximum(i, v), f0))

    def test_output_within_convex_hull(self):
        rng = np.random.default_rng(7)
        i, v, f0 = rng.random((9, 9)), rng.random((9, 9)), rng.random((9, 9))
        y = em_fusion_prior(f0, i, v, iters=3)
        lo = np.minimum(np.minimum(i, v), f0)
        hi = np.maximum(np.maximum(i, v), f0)
        assert np.all(y >= lo - 1e-12) and np.all(y <= hi + 1e-12)


class TestLikelihoodGrad:
    def test_zero_at_the_residual_minimum(self):
        rng = np.random.default_rng(8)
        v = rng.random((8, 8))
        spec = GuidanceSpec(rho=1.0, grad_mode="stop-grad",
                            weight_maps=WeightMaps(np.ones((8, 8)), np.zeros((8, 8))))
        model = VelocityModel.constant(0.0)
        # f0_hat = f at t=0; choose f == y == v
        g = likelihood_grad(v, 0.0, model, np.zeros((8, 8)), v, spec)
        assert np.abs(g).max() < 1e-12

    def test_stop_grad_closed_form_at_t_zero(self):
        rng = np.random.default_rng(9)
        f = rng.random((5, 5))
        i, v = rng.random((5, 5)), rng.random((5, 5))
        rho = 0.7
        spec = GuidanceSpec(rho=rho, grad_mode="stop-grad")
        model = VelocityModel.constant(0.3)
        y = measurement_target(f, i, v, spec)
        g = likelihood_grad(f, 0.0, model, i, v, spec)
        assert np.abs(g - 2.0 * rho * (f - y)).max() < 1e-12

    def test_full_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        dim = 64
        model = VelocityModel.mlp(dim=dim, hidden=(16,), seed=11)
        f = rng.random(dim)
        i, v = rng.random(dim).reshape(8, 8), rng.random(dim).reshape(8, 8)
        t, rho = 0.6, 0.9
        spec = GuidanceSpec(rho=rho, grad_mode="full-vjp")
        y = measurement_target(
            (f - t * model.evaluate(f, t)).reshape(8, 8), i, v, spec).ravel()

        def scalar(fv):
            f0 = fv - t * model.evaluate(fv, t)
            return rho * float(np.sum((y - f0) ** 2))

        g = likelihood_grad(f.reshape(8, 8), t, model,
                            i, v,
                            GuidanceSpec(rho=rho, grad_mode="full-vjp",
                                         weight_maps=None)).ravel()
        # y above was computed from the same f0_hat/saliency path, so it matches
        num = np.zeros(dim)
        h = 1e-5
        for k in range(dim):
            fp, fm = f.copy(), f.copy()
            fp[k] += h
            fm[k] -= h
            num[k] = (scalar(fp) - scalar(fm)) / (2 * h)
        rel = np.abs(g - num) / np.maximum.reduce([np.abs(g), np.abs(num), np.ones(dim)])
        assert rel.max() < 1e-4

    def test_stop_grad_never_touches_network_jacobians(self):
        model = VelocityModel.mlp(dim=16, hidden=(8,), seed=12)
        rng = np.random.default_rng(12)
        spec = GuidanceSpec(rho=1.0, grad_mode="stop-grad")
        g = likelihood_grad(rng.random(16).reshape(4, 4), 0.5, model,
                            rng.random((4, 4)), rng.random((4, 4)), spec)
        assert np.all(np.isfinite(g))

    def test_full_vjp_memory_linear_in_latent_size(self):
        # 4x32x32 latent: a dim x (dim + 1) float64 matrix alone would be 128 MiB
        import tracemalloc

        rng = np.random.default_rng(21)
        model = VelocityModel.mlp(dim=4096, hidden=(128, 128), seed=21)
        f = rng.standard_normal((4, 32, 32))
        i, v = rng.standard_normal((4, 32, 32)), rng.standard_normal((4, 32, 32))
        spec = GuidanceSpec(rho=0.5, grad_mode="full-vjp")
        tracemalloc.start()
        try:
            g = likelihood_grad(f, 1.0, model, i, v, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.shape == f.shape
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestGuidedVelocity:
    @pytest.mark.parametrize("grad_mode", ["stop-grad", "full-vjp"])
    def test_evaluates_the_model_once_per_step(self, grad_mode, monkeypatch):
        rng = np.random.default_rng(22)
        model = VelocityModel.mlp(dim=64, hidden=(16,), seed=22)
        f1 = rng.standard_normal((4, 4, 4))
        i, v = rng.standard_normal((4, 4, 4)), rng.standard_normal((4, 4, 4))
        spec = GuidanceSpec(rho=0.5, grad_mode=grad_mode)
        t, dt = 0.75, 0.25
        want = model.evaluate(f1, t) + likelihood_grad(f1, t, model, i, v, spec) / (
            1.0 + 2.0 * spec.rho * dt)
        calls = []
        evaluate = VelocityModel.evaluate

        def counted(self, x, t):
            calls.append(t)
            return evaluate(self, x, t)

        monkeypatch.setattr(VelocityModel, "evaluate", counted)
        assert np.array_equal(guided_velocity(f1, t, model, i, v, spec, dt=dt), want)
        assert calls == [t]
        calls.clear()
        euler_sample(model, f1, SampleSchedule.uniform(3), spec, (i, v))
        assert len(calls) == 3
    def test_rho_zero_is_exactly_the_raw_field(self):
        model = VelocityModel.constant(1.5)
        rng = np.random.default_rng(13)
        f = rng.random((6, 6))
        spec = GuidanceSpec(rho=0.0)
        out = guided_velocity(f, 0.7, model, rng.random((6, 6)), rng.random((6, 6)), spec)
        assert np.array_equal(out, model.evaluate(f, 0.7))

    def test_one_large_rho_step_moves_toward_v(self):
        rng = np.random.default_rng(14)
        f1 = rng.random((8, 8))
        i, v = rng.random((8, 8)), rng.random((8, 8))
        model = VelocityModel.constant(0.0)
        wm = WeightMaps(np.ones((8, 8)), np.zeros((8, 8)))
        spec = GuidanceSpec(rho=50.0, grad_mode="stop-grad", weight_maps=wm)
        before = np.abs(f1 - v).mean()
        f0 = euler_sample(model, f1, SampleSchedule.uniform(1), spec, (i, v))[-1].data
        after = np.abs(f0 - v).mean()
        assert after < before

    def test_state_correction_descends_the_residual(self):
        # dot(guided step - unguided step, likelihood_grad) <= 0
        rng = np.random.default_rng(15)
        f = rng.random((8, 8))
        i, v = rng.random((8, 8)), rng.random((8, 8))
        model = VelocityModel.constant(0.2)
        spec = GuidanceSpec(rho=2.0, grad_mode="stop-grad")
        dt = 0.25
        t = 0.75
        lg = likelihood_grad(f, t, model, i, v, spec)
        guided_step = -dt * guided_velocity(f, t, model, i, v, spec, dt=dt)
        plain_step = -dt * model.evaluate(f, t)
        correction = guided_step - plain_step
        assert float(np.sum(correction * lg)) <= 0.0

    def test_guided_one_step_closed_form_for_constant_model(self):
        # stop-grad, constant c, one unit step:
        # f0 = f1 - c - 2 rho / (1 + 2 rho) * (f1 - c - y)
        rng = np.random.default_rng(16)
        f1 = rng.random((6, 6))
        i, v = rng.random((6, 6)), rng.random((6, 6))
        c, rho = 0.4, 3.0
        wm = WeightMaps(np.full((6, 6), 0.25), np.full((6, 6), 0.75))
        spec = GuidanceSpec(rho=rho, grad_mode="stop-grad", weight_maps=wm)
        y = weighted_target(i, v, wm)
        model = VelocityModel.constant(c)
        got = euler_sample(model, f1, SampleSchedule.uniform(1), spec, (i, v))[-1].data
        want = f1 - c - 2 * rho / (1 + 2 * rho) * (f1 - c - y)
        assert np.abs(got - want).max() < 1e-12

    def test_rho_zero_guided_sampling_is_bit_exact_end_to_end(self):
        model = VelocityModel.constant(0.7)
        rng = np.random.default_rng(17)
        f1 = rng.random((6, 6))
        i, v = rng.random((6, 6)), rng.random((6, 6))
        sched = SampleSchedule.uniform(9)
        unguided = euler_sample(model, f1, sched)
        guided = euler_sample(model, f1, sched, GuidanceSpec(rho=0.0), (i, v))
        for a, b in zip(unguided, guided):
            assert np.array_equal(a.data, b.data)

    def test_saturated_rho_lands_on_v(self):
        rng = np.random.default_rng(18)
        f1 = rng.random((8, 8))
        i, v = rng.random((8, 8)), rng.random((8, 8))
        wm = WeightMaps(np.ones((8, 8)), np.zeros((8, 8)))
        spec = GuidanceSpec(rho=1e3, grad_mode="stop-grad", weight_maps=wm)
        model = VelocityModel.constant(0.0)
        f0 = euler_sample(model, f1, SampleSchedule.uniform(1), spec, (i, v))[-1].data
        assert np.abs(f0 - v).mean() < 0.01


class TestMeasurementTarget:
    def test_latent_rank3_sources_supported(self):
        rng = np.random.default_rng(19)
        z_i, z_v = rng.standard_normal((4, 6, 6)), rng.standard_normal((4, 6, 6))
        spec = GuidanceSpec(rho=1.0)
        y = measurement_target(np.zeros((4, 6, 6)), z_i, z_v, spec)
        assert y.shape == (4, 6, 6)
        lo = np.minimum(z_i, z_v)
        hi = np.maximum(z_i, z_v)
        assert np.all(y >= lo - 1e-12) and np.all(y <= hi + 1e-12)

    def test_weighted_target_matches_the_old_code_bit_for_bit(self):
        rng = np.random.default_rng(22)
        spec = GuidanceSpec(rho=1.0)
        for shape in ((8, 8), (9, 13), (4, 8, 8), (4, 9, 9), (3, 16, 12)):
            i, v = rng.standard_normal(shape), rng.standard_normal(shape)
            if len(shape) == 2:  # pixel sources, with some outside [0, 1] for the clip
                i, v = i * 0.3 + 0.5, v * 0.3 + 0.5
            y = measurement_target(np.zeros(shape), i, v, spec)
            assert y.shape == shape
            assert np.array_equal(y, old_weighted_measurement(i, v)), shape

    def test_em_prior_measurement(self):
        rng = np.random.default_rng(20)
        i, v = rng.random((6, 6)), rng.random((6, 6))
        spec = GuidanceSpec(rho=1.0, measurement="em-prior", em_iters=2)
        f0 = (i + v) / 2
        y = measurement_target(f0, i, v, spec)
        assert y.shape == (6, 6)
        assert np.all(np.isfinite(y))
