"""The MSE averaged over i.i.d. noise: exact_mse_curve, limiting_mse and
solve_v1 with an IidNoise, and g, the contraction that drives it."""

import numpy as np
import pytest

from kaczlab import (
    FixedNoise,
    IidNoise,
    build_model,
    dense_lift_oracle,
    exact_mse_at,
    exact_mse_curve,
    g_apply,
    gen_gaussian,
    gen_tomography,
    limiting_mse,
    row_norm_distribution,
    solve_v1,
)
from kaczlab.lifted import CURVE_BLOCK
from kaczlab.seeding import rng_from

from conftest import dense_avg_curve, random_instance, traced_peak


def avg_instance(m, n, seed, sigma2):
    """(model, IidNoise(sigma2), sys, dist, z0) of a random instance."""
    sys, dist, _, z0 = random_instance(m, n, seed)
    return build_model(sys, dist), IidNoise(sigma2), sys, dist, z0


class TestModel:
    def test_rejects_negative_sigma2(self):
        # the spec every averaged quantity takes checks sigma2 itself
        with pytest.raises(ValueError, match="sigma2"):
            IidNoise(-1.0)

    @pytest.mark.parametrize("sigma2", [True, False, np.True_, "0.1"],
                             ids=["True", "False", "numpy_bool", "str"])
    def test_rejects_bool_and_string(self, sigma2):
        with pytest.raises(TypeError, match=f"^sigma2 must be a number, got {sigma2!r}$"):
            IidNoise(sigma2)

    @pytest.mark.parametrize("sigma2", [1, np.int64(2), np.float32(0.5), 0.25],
                             ids=["int", "numpy_int", "numpy_float", "float"])
    def test_accepts_numbers(self, sigma2):
        assert IidNoise(sigma2).sigma2 == float(sigma2)


class TestGApply:
    def test_zero(self):
        model, _, _, _, _ = avg_instance(4, 3, 2, 0.1)
        assert np.all(g_apply(model, np.zeros((3, 3))) == 0.0)

    def test_scalar_collapse(self):
        sys = gen_gaussian(3, 1, 1.0, 3)
        base = build_model(sys, row_norm_distribution(sys))
        assert abs(g_apply(base, np.array([[2.0]]))[0, 0]) <= 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_kron_oracle(self, seed):
        model, _, _, _, _ = avg_instance(4, 3, seed, 0.1)
        n = 3
        mmat = rng_from(seed, 1).standard_normal((n, n))
        g_mat = dense_lift_oracle(model, FixedNoise(np.zeros(4))).G
        want = (g_mat @ mmat.ravel()).reshape(n, n)
        assert np.allclose(g_apply(model, mmat), want, rtol=1e-12, atol=1e-15)

    def test_readout_peak_is_its_rows(self):
        # README config 2's system: the averaged curve holds the rows
        # vec(g(u_i u_i^T)) of 100 modes, 7.6 MiB, and no (modes x m x n)
        # temporary (11.4 MiB) beside them
        sys = gen_tomography(10, 15, 10)
        model = build_model(sys, row_norm_distribution(sys))
        _, peak = traced_peak(exact_mse_curve, model, IidNoise(2.25e-4), -sys.x_true, 100)
        assert peak <= 100 * (100 * 100) * 8 + 3 * 2**20

    def test_symmetric_output(self):
        model, _, _, _, _ = avg_instance(8, 4, 4, 0.1)
        mmat = rng_from(4, 2).standard_normal((4, 4))
        out = g_apply(model, mmat)
        assert np.allclose(out, out.T, rtol=0, atol=1e-13)


class TestExpectedV1:
    def test_zero_sigma(self):
        model, noise, _, _, _ = avg_instance(4, 3, 5, 0.0)
        assert np.all(solve_v1(model, noise) == 0.0)

    def test_scalar_collapse(self):
        sys = gen_gaussian(3, 1, 1.0, 6)
        dist = row_norm_distribution(sys)
        want = 0.25 * float(np.sum(dist.p / sys.row_norms**2))
        ev1 = solve_v1(build_model(sys, dist), IidNoise(0.25))
        assert ev1[0, 0] == pytest.approx(want, rel=1e-13)

    def test_monte_carlo_bridge(self):
        # E_eta v1 is the average of the fixed-noise v1 over noise draws
        sys, dist, _, _ = random_instance(5, 3, 7)
        sigma2 = 0.04
        model = build_model(sys, dist)
        want = np.trace(solve_v1(model, IidNoise(sigma2)))
        rng = rng_from(7, 3)
        traces = []
        for _ in range(2000):
            eta = np.sqrt(sigma2) * rng.standard_normal(5)
            traces.append(np.trace(solve_v1(model, FixedNoise(eta))))
        traces = np.asarray(traces)
        stderr = traces.std(ddof=1) / np.sqrt(traces.size)
        assert abs(traces.mean() - want) <= 4 * stderr

    def test_linear_in_sigma2(self):
        model, noise, _, _, _ = avg_instance(6, 3, 8, 1e-3)
        v1 = solve_v1(model, noise)
        v2 = solve_v1(model, IidNoise(2e-3))
        assert np.allclose(v2, 2.0 * v1, rtol=1e-12)

    def test_symmetric_psd(self):
        model, noise, _, _, _ = avg_instance(10, 4, 9, 0.5)
        ev1 = solve_v1(model, noise)
        assert np.array_equal(ev1, ev1.T)
        assert np.linalg.eigvalsh(ev1)[0] >= -1e-12


class TestAvgCurve:
    def test_sigma_zero_equals_noiseless_exact(self):
        model, noise, _, _, z0 = avg_instance(6, 3, 10, 0.0)
        avg = exact_mse_curve(model, noise, z0, 40)
        exact = exact_mse_curve(model, FixedNoise(np.zeros(6)), z0, 40)
        assert np.array_equal(avg.values, exact.values)
        assert avg.floor == 0.0

    @pytest.mark.parametrize("m,n,seed", [(4, 2, 60), (6, 3, 61), (8, 4, 62), (5, 4, 63)])
    def test_dense_lift_stepping(self, m, n, seed):
        model, noise, _, _, z0 = avg_instance(m, n, seed, 0.05)
        k_max = 60
        want, floor = dense_avg_curve(model, noise, z0, k_max)
        curve = exact_mse_curve(model, noise, z0, k_max)
        assert np.allclose(curve.values, want, rtol=1e-10, atol=0)
        assert curve.floor == pytest.approx(floor, rel=1e-10)

    def test_prefix_of_longer_curve(self, apply_q_calls):
        # whole blocks are always stepped, and stepping stops after the same
        # block whatever k_max is, so a value never depends on k_max. Here W
        # stops after the 13th block (k = 12b .. 13b-1), the last stepped one:
        # every k_max from that block on makes as many apply_Q calls as the
        # longest curve, and every earlier one fewer.
        model, noise, _, _, z0 = avg_instance(7, 3, 19, 0.02)
        b = CURVE_BLOCK
        full = exact_mse_curve(model, noise, z0, 20 * b).values
        full_calls = len(apply_q_calls)
        for k in (1, b - 1, b, b + 1, 3 * b + 5, 12 * b - 1, 12 * b + 5,
                  13 * b - 1, 13 * b, 13 * b + 1, 15 * b + 3):
            apply_q_calls.clear()
            assert np.array_equal(exact_mse_curve(model, noise, z0, k).values, full[: k + 1])
            assert (len(apply_q_calls) == full_calls) == (k >= 12 * b)

    def test_scalar_collapse(self):
        sys = gen_gaussian(4, 1, 1.0, 11)
        dist = row_norm_distribution(sys)
        want = 0.09 * float(np.sum(dist.p / sys.row_norms**2))
        curve = exact_mse_curve(build_model(sys, dist), IidNoise(0.09), np.array([2.0]), 5)
        assert curve.values[0] == pytest.approx(4.0)
        assert np.allclose(curve.values[1:], want, rtol=1e-12)

    def test_index0_exact(self):
        model, noise, _, _, z0 = avg_instance(6, 3, 12, 0.01)
        curve = exact_mse_curve(model, noise, z0, 3)
        assert curve.values[0] == float(np.dot(z0, z0))

    def test_sigma2_linearity(self):
        model, _, _, _, z0 = avg_instance(8, 4, 13, 0.0)
        k_max = 60
        c0 = exact_mse_curve(model, IidNoise(0.0), z0, k_max).values
        s = 1e-4
        c1 = exact_mse_curve(model, IidNoise(s), z0, k_max).values
        c2 = exact_mse_curve(model, IidNoise(2 * s), z0, k_max).values
        predicted = c0 + 2.0 * (c1 - c0)
        assert np.allclose(c2, predicted, rtol=1e-10)

    def test_unbiasedness_bridge(self):
        # averaging the fixed-noise MSE over eta draws converges to the
        # noise-averaged curve value
        sys, dist, _, z0 = random_instance(4, 2, 14)
        sigma2 = 0.09
        k = 5
        model = build_model(sys, dist)
        want = exact_mse_curve(model, IidNoise(sigma2), z0, k).values[k]
        rng = rng_from(14, 4)
        vals = []
        for _ in range(2000):
            eta = np.sqrt(sigma2) * rng.standard_normal(4)
            vals.append(exact_mse_at(model, FixedNoise(eta), z0, k))
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
        k = 6
        model = build_model(sys, dist)
        want = exact_mse_curve(model, IidNoise(sigma2), z0, k).values[k]
        base_val = exact_mse_at(model, FixedNoise(np.zeros(5)), z0, k)
        t = 0.5
        hess_trace = 0.0
        for i in range(5):
            plus = exact_mse_at(model, FixedNoise(t * np.eye(5)[i]), z0, k)
            minus = exact_mse_at(model, FixedNoise(-t * np.eye(5)[i]), z0, k)
            hess_trace += (plus + minus - 2 * base_val) / (2 * t * t)
        oracle = base_val + sigma2 * hess_trace
        assert want == pytest.approx(oracle, rel=1e-10)

    def test_floor_long_horizon(self):
        model, noise, _, _, z0 = avg_instance(20, 5, 15, 2e-4)
        curve = exact_mse_curve(model, noise, z0, 100_000)
        assert abs(curve.values[-1] - curve.floor) <= 1e-8 * curve.floor

    def test_limiting_matches_curve_floor(self):
        model, noise, _, _, z0 = avg_instance(7, 3, 16, 0.02)
        assert limiting_mse(model, noise) == exact_mse_curve(model, noise, z0, 2).floor

    def test_zero_sigma_floor(self):
        model, noise, _, _, _ = avg_instance(5, 3, 17, 0.0)
        assert limiting_mse(model, noise) == 0.0
