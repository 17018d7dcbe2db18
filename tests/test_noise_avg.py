import numpy as np
import pytest

from kaczlab import (
    NoiseAveragedModel,
    avg_limiting_mse,
    avg_mse_curve,
    build_model,
    dense_lift_oracle,
    exact_mse_at,
    expected_v1,
    g_apply,
    gen_gaussian,
    row_norm_distribution,
    solve_v1,
    zf_avg_bound_curve,
)
from kaczlab.lifted import CURVE_BLOCK, dense_p, exact_mse_curve
from kaczlab.noise_avg import g_readout
from kaczlab.seeding import rng_from

from conftest import dense_avg_curve, random_instance


def navg_model(m, n, seed, sigma2):
    sys, dist, _, z0 = random_instance(m, n, seed)
    return NoiseAveragedModel(build_model(sys, dist), sigma2), sys, dist, z0


class TestModel:
    def test_noisy_base_ignored(self):
        # the base's eta~ enters none of the averaged quantities
        sys, dist, eta, z0 = random_instance(6, 3, 1)
        noisy = NoiseAveragedModel(build_model(sys, dist, eta), 0.1)
        clean = NoiseAveragedModel(build_model(sys, dist), 0.1)
        assert np.array_equal(expected_v1(noisy), expected_v1(clean))
        assert avg_limiting_mse(noisy) == avg_limiting_mse(clean)
        got, want = avg_mse_curve(noisy, z0, 200), avg_mse_curve(clean, z0, 200)
        assert np.array_equal(got.values, want.values) and got.floor == want.floor
        assert np.array_equal(zf_avg_bound_curve(noisy, z0, 200),
                              zf_avg_bound_curve(clean, z0, 200))

    def test_rejects_negative_sigma2(self):
        sys, dist, _, _ = random_instance(4, 3, 1)
        with pytest.raises(ValueError, match="sigma2"):
            NoiseAveragedModel(build_model(sys, dist), -1.0)


class TestGApply:
    def test_zero(self):
        model, _, _, _ = navg_model(4, 3, 2, 0.1)
        assert np.all(g_apply(model.base, np.zeros((3, 3))) == 0.0)

    def test_scalar_collapse(self):
        sys = gen_gaussian(3, 1, 1.0, 3)
        base = build_model(sys, row_norm_distribution(sys))
        assert abs(g_apply(base, np.array([[2.0]]))[0, 0]) <= 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_kron_oracle(self, seed):
        model, _, _, _ = navg_model(4, 3, seed, 0.1)
        base = model.base
        n = 3
        mmat = rng_from(seed, 1).standard_normal((n, n))
        want = (dense_lift_oracle(base).G @ mmat.ravel()).reshape(n, n)
        assert np.allclose(g_apply(base, mmat), want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_readout_is_dense_adjoint(self, seed):
        # <W, g(u_i u_i^T)> = vec(W)^T G vec(u_i u_i^T) for the eigenvectors of P
        model, _, _, _ = navg_model(5, 3, seed, 0.1)
        base = model.base
        g_mat = dense_lift_oracle(base).G
        _, u = np.linalg.eigh(dense_p(base))
        b = rng_from(seed, 5).standard_normal((3, 3))
        w = (b + b.T).ravel()
        want = np.array([w @ g_mat @ np.outer(ui, ui).ravel() for ui in u.T])
        got = g_readout(base, u) @ w
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_symmetric_output(self):
        model, _, _, _ = navg_model(8, 4, 4, 0.1)
        mmat = rng_from(4, 2).standard_normal((4, 4))
        out = g_apply(model.base, mmat)
        assert np.allclose(out, out.T, rtol=0, atol=1e-13)


class TestExpectedV1:
    def test_zero_sigma(self):
        model, _, _, _ = navg_model(4, 3, 5, 0.0)
        assert np.all(expected_v1(model) == 0.0)

    def test_scalar_collapse(self):
        sys = gen_gaussian(3, 1, 1.0, 6)
        dist = row_norm_distribution(sys)
        model = NoiseAveragedModel(build_model(sys, dist), 0.25)
        want = 0.25 * float(np.sum(dist.p / sys.row_norms**2))
        assert expected_v1(model)[0, 0] == pytest.approx(want, rel=1e-13)

    def test_monte_carlo_bridge(self):
        # E_eta v1 is the average of the fixed-noise v1 over noise draws
        sys, dist, _, _ = random_instance(5, 3, 7)
        sigma2 = 0.04
        model = NoiseAveragedModel(build_model(sys, dist), sigma2)
        want = np.trace(expected_v1(model))
        rng = rng_from(7, 3)
        traces = []
        for _ in range(2000):
            eta = np.sqrt(sigma2) * rng.standard_normal(5)
            traces.append(np.trace(solve_v1(build_model(sys, dist, eta))))
        traces = np.asarray(traces)
        stderr = traces.std(ddof=1) / np.sqrt(traces.size)
        assert abs(traces.mean() - want) <= 4 * stderr

    def test_linear_in_sigma2(self):
        model1, sys, dist, _ = navg_model(6, 3, 8, 1e-3)
        model2 = NoiseAveragedModel(build_model(sys, dist), 2e-3)
        v1 = expected_v1(model1)
        v2 = expected_v1(model2)
        assert np.allclose(v2, 2.0 * v1, rtol=1e-12)

    def test_symmetric_psd(self):
        model, _, _, _ = navg_model(10, 4, 9, 0.5)
        ev1 = expected_v1(model)
        assert np.array_equal(ev1, ev1.T)
        assert np.linalg.eigvalsh(ev1)[0] >= -1e-12


class TestAvgCurve:
    def test_sigma_zero_equals_noiseless_exact(self):
        model, sys, dist, z0 = navg_model(6, 3, 10, 0.0)
        avg = avg_mse_curve(model, z0, 40)
        exact = exact_mse_curve(build_model(sys, dist), z0, 40)
        assert np.array_equal(avg.values, exact.values)
        assert avg.floor == 0.0

    @pytest.mark.parametrize("m,n,seed", [(4, 2, 60), (6, 3, 61), (8, 4, 62), (5, 4, 63)])
    def test_dense_lift_stepping(self, m, n, seed):
        model, _, _, z0 = navg_model(m, n, seed, 0.05)
        k_max = 60
        want, floor = dense_avg_curve(model, z0, k_max)
        curve = avg_mse_curve(model, z0, k_max)
        assert np.allclose(curve.values, want, rtol=1e-10, atol=0)
        assert curve.floor == pytest.approx(floor, rel=1e-10)

    def test_prefix_of_longer_curve(self, apply_q_calls):
        # whole blocks are always stepped, and stepping stops after the same
        # block whatever k_max is, so a value never depends on k_max. Here W
        # stops after the 13th block (k = 12b .. 13b-1), the last stepped one:
        # every k_max from that block on makes as many apply_Q calls as the
        # longest curve, and every earlier one fewer.
        model, _, _, z0 = navg_model(7, 3, 19, 0.02)
        b = CURVE_BLOCK
        full = avg_mse_curve(model, z0, 20 * b).values
        full_calls = len(apply_q_calls)
        for k in (1, b - 1, b, b + 1, 3 * b + 5, 12 * b - 1, 12 * b + 5,
                  13 * b - 1, 13 * b, 13 * b + 1, 15 * b + 3):
            apply_q_calls.clear()
            assert np.array_equal(avg_mse_curve(model, z0, k).values, full[: k + 1])
            assert (len(apply_q_calls) == full_calls) == (k >= 12 * b)

    def test_scalar_collapse(self):
        sys = gen_gaussian(4, 1, 1.0, 11)
        dist = row_norm_distribution(sys)
        model = NoiseAveragedModel(build_model(sys, dist), 0.09)
        want = 0.09 * float(np.sum(dist.p / sys.row_norms**2))
        curve = avg_mse_curve(model, np.array([2.0]), 5)
        assert curve.values[0] == pytest.approx(4.0)
        assert np.allclose(curve.values[1:], want, rtol=1e-12)

    def test_index0_exact(self):
        model, _, _, z0 = navg_model(6, 3, 12, 0.01)
        curve = avg_mse_curve(model, z0, 3)
        assert curve.values[0] == float(np.dot(z0, z0))

    def test_sigma2_linearity(self):
        _, sys, dist, z0 = navg_model(8, 4, 13, 0.0)
        base = build_model(sys, dist)
        k_max = 60
        c0 = avg_mse_curve(NoiseAveragedModel(base, 0.0), z0, k_max).values
        s = 1e-4
        c1 = avg_mse_curve(NoiseAveragedModel(base, s), z0, k_max).values
        c2 = avg_mse_curve(NoiseAveragedModel(base, 2 * s), z0, k_max).values
        predicted = c0 + 2.0 * (c1 - c0)
        assert np.allclose(c2, predicted, rtol=1e-10)

    def test_unbiasedness_bridge(self):
        # averaging the fixed-noise MSE over eta draws converges to the
        # noise-averaged curve value
        sys, dist, _, z0 = random_instance(4, 2, 14)
        sigma2 = 0.09
        model = NoiseAveragedModel(build_model(sys, dist), sigma2)
        k = 5
        want = avg_mse_curve(model, z0, k).values[k]
        rng = rng_from(14, 4)
        vals = []
        for _ in range(2000):
            eta = np.sqrt(sigma2) * rng.standard_normal(4)
            vals.append(exact_mse_at(build_model(sys, dist, eta), z0, k))
        vals = np.asarray(vals)
        stderr = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - want) <= 4 * stderr

    def test_quadratic_noise_oracle(self):
        # MSE(k; eta) is exactly quadratic in eta, so the noise average is
        # MSE(k; 0) + sigma2 * tr(Hessian), and central differences along the
        # coordinate directions recover the Hessian diagonal with no
        # truncation error. Only the fixed-noise path is used.
        sys, dist, _, z0 = random_instance(5, 3, 18)
        sigma2 = 7e-3
        model = NoiseAveragedModel(build_model(sys, dist), sigma2)
        k = 6
        want = avg_mse_curve(model, z0, k).values[k]
        base_val = exact_mse_at(build_model(sys, dist, np.zeros(5)), z0, k)
        t = 0.5
        hess_trace = 0.0
        for i in range(5):
            eta = np.zeros(5)
            eta[i] = t
            plus = exact_mse_at(build_model(sys, dist, eta), z0, k)
            eta[i] = -t
            minus = exact_mse_at(build_model(sys, dist, eta), z0, k)
            hess_trace += (plus + minus - 2 * base_val) / (2 * t * t)
        oracle = base_val + sigma2 * hess_trace
        assert want == pytest.approx(oracle, rel=1e-10)

    def test_floor_long_horizon(self):
        model, _, _, z0 = navg_model(20, 5, 15, 2e-4)
        curve = avg_mse_curve(model, z0, 100_000)
        assert abs(curve.values[-1] - curve.floor) <= 1e-8 * curve.floor

    def test_limiting_matches_curve_floor(self):
        model, _, _, z0 = navg_model(7, 3, 16, 0.02)
        assert avg_limiting_mse(model) == avg_mse_curve(model, z0, 2).floor

    def test_zero_sigma_floor(self):
        model, _, _, _ = navg_model(5, 3, 17, 0.0)
        assert avg_limiting_mse(model) == 0.0
