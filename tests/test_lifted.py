import numpy as np
import pytest

from kaczlab import (
    FixedNoise,
    NoiseAveragedModel,
    SolverError,
    apply_D,
    apply_Q,
    avg_mse_curve,
    build_model,
    dense_lift_oracle,
    enumerated_mse_curve,
    exact_mse_at,
    exact_mse_curve,
    gen_gaussian,
    gen_identity,
    gen_tomography,
    lambda_max_P,
    lambda_max_Q,
    limiting_mse,
    load_system,
    make_distribution,
    make_measurements,
    monte_carlo_mse,
    row_norm_distribution,
    save_system,
    solve_v1,
    solve_v2,
    uniform_distribution,
    vec_e,
    vec_f,
    zf_avg_bound_curve,
    zf_general_bound_curve,
)
from kaczlab.lifted import d_readout, dense_p, weighted_gram
from kaczlab.problems import LinearSystem
from kaczlab.seeding import rng_from

from conftest import dense_avg_curve, dense_exact_curve, random_instance, random_model


def mat_of(vec, n):
    return vec.reshape(n, n)


class TestBuildModel:
    def test_identity_rows(self):
        sys = gen_identity(3)
        model = build_model(sys, uniform_distribution(3), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(model.a_tilde, np.eye(3))
        assert np.array_equal(model.eta_tilde, [1.0, 2.0, 3.0])

    def test_row_normalization(self):
        sys = LinearSystem(np.array([[3.0, 4.0], [0.0, 1.0]]), np.zeros(2))
        model = build_model(sys, uniform_distribution(2), np.array([5.0, 0.0]))
        assert model.a_tilde[0] == pytest.approx([0.6, 0.8], rel=1e-15)
        assert model.eta_tilde[0] == pytest.approx(1.0, rel=1e-15)

    def test_unit_rows_and_noise_recovery(self):
        sys, dist, eta, _ = random_instance(8, 4, 2)
        model = build_model(sys, dist, eta)
        assert np.allclose(np.linalg.norm(model.a_tilde, axis=1), 1.0, rtol=0, atol=1e-14)
        assert np.allclose(model.eta_tilde * model.row_norms, eta, rtol=1e-14, atol=0)

    def test_round_trip_rebuild(self, tmp_path):
        sys, dist, eta, _ = random_instance(6, 3, 4)
        save_system(sys, tmp_path / "s.txt")
        reloaded = load_system(tmp_path / "s.txt")
        m1 = build_model(sys, dist, eta)
        m2 = build_model(reloaded, dist, eta)
        assert np.array_equal(m1.a_tilde, m2.a_tilde)
        assert np.array_equal(m1.eta_tilde, m2.eta_tilde)


class TestApplyP:
    def test_n1_annihilates(self):
        sys = gen_gaussian(3, 1, 1.0, 5)
        model = build_model(sys, row_norm_distribution(sys))
        # the dense P is 1 - sum p_i, so zero holds to eps*|v|
        assert abs((dense_p(model) @ np.array([2.5]))[0]) <= 1e-15 * 2.5

    def test_identity_scales(self):
        model = build_model(gen_identity(3), uniform_distribution(3))
        v = np.array([1.0, -2.0, 0.5])
        assert np.allclose(dense_p(model) @ v, (2 / 3) * v, rtol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_oracle(self, seed):
        model, _ = random_model(4, 3, seed)
        dense = dense_lift_oracle(model)
        v = np.random.default_rng(seed).standard_normal(3)
        assert np.allclose(dense_p(model) @ v, dense.P @ v, rtol=0, atol=1e-13)


class TestApplyQ:
    def test_zero(self):
        model, _ = random_model(4, 3, 3)
        assert np.all(apply_Q(model, np.zeros((3, 3))) == 0.0)

    def test_n1_annihilates(self):
        sys = gen_gaussian(2, 1, 1.0, 6)
        model = build_model(sys, row_norm_distribution(sys))
        assert abs(apply_Q(model, np.array([[3.0]]))[0, 0]) <= 1e-15 * 3.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dense_kron_oracle(self, seed):
        model, _ = random_model(4, 3, seed)
        dense = dense_lift_oracle(model)
        rng = np.random.default_rng(seed + 50)
        s = rng.standard_normal((3, 3))  # deliberately non-symmetric
        want = mat_of(dense.Q @ s.ravel(), 3)
        got = apply_Q(model, s)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
        sym = s + s.T
        want_sym = mat_of(dense.Q @ sym.ravel(), 3)
        assert np.allclose(apply_Q(model, sym), want_sym, rtol=1e-12, atol=1e-14)

    def test_preserves_symmetry_and_psd(self):
        model, _ = random_model(6, 4, 7)
        rng = np.random.default_rng(8)
        b = rng.standard_normal((4, 4))
        s = b @ b.T  # symmetric PSD
        out = apply_Q(model, s)
        assert np.array_equal(out, out.T)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_trace_identity(self):
        # vec(I)^T Q = vec(P)^T: trace(Q S) == trace(P S) for symmetric S
        model, _ = random_model(5, 3, 9)
        rng = np.random.default_rng(10)
        b = rng.standard_normal((3, 3))
        s = b + b.T
        lhs = np.trace(apply_Q(model, s))
        rhs = np.trace(dense_p(model) @ s)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestApplyD:
    def test_zero_noise(self):
        sys, dist, _, _ = random_instance(4, 3, 11)
        model = build_model(sys, dist, np.zeros(4))
        v = np.random.default_rng(0).standard_normal(3)
        assert np.all(apply_D(model, v) == 0.0)

    def test_zero_vector(self):
        model, _ = random_model(4, 3, 12)
        assert np.all(apply_D(model, np.zeros(3)) == 0.0)

    def test_requires_noise(self):
        # D no longer requires a noise vector: eta=None is the eta=0 model, whose D is 0
        sys, dist, _, _ = random_instance(4, 3, 13)
        v = np.random.default_rng(13).standard_normal(3)
        got = apply_D(build_model(sys, dist), v)
        assert np.array_equal(got, apply_D(build_model(sys, dist, np.zeros(4)), v))
        assert np.all(got == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_kron_oracle(self, seed):
        model, _ = random_model(4, 3, seed)
        dense = dense_lift_oracle(model)
        v = np.random.default_rng(seed + 60).standard_normal(3)
        want = mat_of(dense.D @ v, 3)
        got = apply_D(model, v)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
        assert np.allclose(got, got.T, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_readout_is_dense_adjoint(self, seed):
        # <W, D u_i> = u_i^T D^T vec(W) for the eigenvectors u_i of P
        model, _ = random_model(5, 3, seed)
        dense = dense_lift_oracle(model)
        _, u = np.linalg.eigh(dense_p(model))
        b = np.random.default_rng(seed + 70).standard_normal((3, 3))
        w = (b + b.T).ravel()
        want = u.T @ (dense.D.T @ w)
        got = d_readout(model, u) @ w
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_trace_annihilated(self):
        # D^T vec(I) = 0: trace(mat(D v)) == 0 for every v
        model, _ = random_model(6, 4, 14)
        for seed in range(5):
            v = np.random.default_rng(seed).standard_normal(4)
            assert abs(np.trace(apply_D(model, v))) <= 1e-12 * np.linalg.norm(v)


class TestMoments:
    def test_zero_noise(self):
        sys, dist, _, _ = random_instance(4, 3, 15)
        model = build_model(sys, dist, np.zeros(4))
        assert np.all(vec_e(model) == 0.0)
        assert np.all(vec_f(model) == 0.0)

    def test_requires_noise(self):
        # e and f no longer require a noise vector: eta=None is the eta=0 model, whose e and f are 0
        sys, dist, _, _ = random_instance(4, 3, 15)
        none_model, zero_model = build_model(sys, dist), build_model(sys, dist, np.zeros(4))
        for fn in (vec_e, vec_f):
            got = fn(none_model)
            assert np.array_equal(got, fn(zero_model)), fn.__name__
            assert np.all(got == 0.0), fn.__name__

    def test_scalar_formulas(self):
        sys = gen_gaussian(3, 1, 1.0, 16)
        rng = np.random.default_rng(17)
        eta = rng.standard_normal(3)
        model = build_model(sys, row_norm_distribution(sys), eta)
        assert np.trace(vec_e(model)) == pytest.approx(
            np.sum(model.p * model.eta_tilde**2), rel=1e-15
        )
        assert vec_f(model)[0] == pytest.approx(
            np.sum(model.p * model.a_tilde[:, 0] * model.eta_tilde), rel=1e-14
        )

    def test_trace_e(self):
        model, _ = random_model(10, 4, 18)
        want = float(np.sum(model.p * model.eta_tilde**2))
        assert np.trace(vec_e(model)) == pytest.approx(want, rel=1e-14)

    def test_e_psd(self):
        model, _ = random_model(8, 4, 19)
        assert np.linalg.eigvalsh(vec_e(model))[0] >= -1e-14


def noise_free_pairs():
    """(model built with eta=None, model built with eta=0, z0) on a regular
    instance and on one whose weights leave I - P singular to working precision."""
    sys, dist, _, z0 = random_instance(6, 3, 21)
    singular_sys = gen_gaussian(4, 2, 1.0, 2)
    singular = make_distribution(np.array([1e300, 1.0, 1.0, 1.0]))
    z0_singular = rng_from(2, 1).standard_normal(2)
    return [
        (build_model(s, d), build_model(s, d, np.zeros(s.a.shape[0])), z)
        for s, d, z in ((sys, dist, z0), (singular_sys, singular, z0_singular))
    ]


def outcome(fn, *args):
    """fn(*args) as a list of float arrays, or the type of the SolverError it raised."""
    try:
        got = fn(*args)
    except SolverError as exc:
        return type(exc)
    parts = (got.values, got.floor) if hasattr(got, "floor") else (got,)
    return [np.asarray(part, dtype=float) for part in parts]


def same_outcome(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class TestNoiseFree:
    """eta=None and eta=0 build the same model, with the same results bit for bit."""

    def test_eta_tilde_is_read_only_zeros(self):
        for none_model, zero_model, _ in noise_free_pairs():
            for model in (none_model, zero_model):
                assert not model.has_noise
                assert np.array_equal(model.eta_tilde, np.zeros(model.shape[0]))
                assert not model.eta_tilde.flags.writeable

    def test_operators_match_zero_noise(self):
        for none_model, zero_model, z0 in noise_free_pairs():
            v = np.arange(1.0, z0.size + 1)
            for fn, args in ((apply_D, (v,)), (vec_e, ()), (vec_f, ()),
                             (solve_v2, ()), (solve_v1, ())):
                got = outcome(fn, none_model, *args)
                assert same_outcome(got, outcome(fn, zero_model, *args)), fn.__name__
                if fn in (apply_D, vec_e, vec_f):
                    assert np.all(got[0] == 0.0)

    def test_curves_match_zero_noise(self):
        for none_model, zero_model, z0 in noise_free_pairs():
            for fn, args in ((limiting_mse, ()), (exact_mse_curve, (z0, 300)),
                             (zf_general_bound_curve, (z0, 300))):
                got = outcome(fn, none_model, *args)
                assert got is not SolverError, fn.__name__
                assert same_outcome(got, outcome(fn, zero_model, *args)), fn.__name__


class TestFixedPoints:
    def test_v2_zero_noise(self):
        sys, dist, _, _ = random_instance(4, 3, 20)
        model = build_model(sys, dist, np.zeros(4))
        assert np.allclose(solve_v2(model), 0.0, atol=1e-16)

    def test_v2_identity_closed_form(self):
        eta = np.array([0.3, -1.2, 2.0])
        model = build_model(gen_identity(3), uniform_distribution(3), eta)
        assert np.allclose(solve_v2(model), eta, rtol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_v2_dense_oracle(self, seed):
        model, _ = random_model(4, 3, seed)
        dense = dense_lift_oracle(model)
        want = np.linalg.solve(np.eye(3) - dense.P, dense.f)
        assert np.allclose(solve_v2(model), want, rtol=1e-10)

    def test_v2_residual(self):
        model, _ = random_model(20, 6, 21)
        v2 = solve_v2(model)
        g = weighted_gram(model)
        f = vec_f(model)
        assert np.linalg.norm(g @ v2 - f) <= 1e-10 * np.linalg.norm(f)

    def test_v1_zero_noise(self):
        sys, dist, _, _ = random_instance(4, 3, 22)
        model = build_model(sys, dist, np.zeros(4))
        assert np.all(solve_v1(model) == 0.0)

    def test_v1_scalar_collapse(self):
        sys = gen_gaussian(3, 1, 1.0, 23)
        eta = np.random.default_rng(24).standard_normal(3)
        model = build_model(sys, row_norm_distribution(sys), eta)
        want = float(np.sum(model.p * model.eta_tilde**2))
        assert solve_v1(model)[0, 0] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_v1_dense_oracle(self, seed):
        model, _ = random_model(4, 3, seed)
        dense = dense_lift_oracle(model)
        v2 = np.linalg.solve(np.eye(3) - dense.P, dense.f)
        want = mat_of(np.linalg.solve(np.eye(9) - dense.Q, dense.e + dense.D @ v2), 3)
        assert np.allclose(solve_v1(model), want, rtol=1e-9, atol=1e-12)

    def test_v1_symmetric_psd(self):
        model, _ = random_model(12, 5, 25)
        v1 = solve_v1(model)
        assert np.array_equal(v1, v1.T)
        assert np.linalg.eigvalsh(v1)[0] >= -1e-12


class TestExactCurves:
    def test_zero_everything(self):
        sys, dist, _, _ = random_instance(4, 3, 26)
        model = build_model(sys, dist, np.zeros(4))
        curve = exact_mse_curve(model, np.zeros(3), 10)
        assert np.all(curve.values == 0.0)
        assert curve.floor == 0.0

    def test_scalar_constant(self):
        sys = gen_gaussian(4, 1, 1.0, 27)
        eta = np.random.default_rng(28).standard_normal(4)
        model = build_model(sys, row_norm_distribution(sys), eta)
        want = float(np.sum(model.p * model.eta_tilde**2))
        curve = exact_mse_curve(model, np.array([3.0]), 6)
        assert curve.values[0] == pytest.approx(9.0)
        assert np.allclose(curve.values[1:], want, rtol=1e-13)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_enumeration_oracle(self, seed):
        sys, dist, eta, z0 = random_instance(3, 2, seed)
        model = build_model(sys, dist, eta)
        enum = enumerated_mse_curve(sys, eta, dist, z0, 4)
        curve = exact_mse_curve(model, z0, 4)
        assert np.allclose(curve.values, enum, rtol=1e-10)

    def test_closed_form_matches_recursion(self):
        model, z0 = random_model(6, 3, 29)
        curve = exact_mse_curve(model, z0, 50)
        for k in (1, 7, 50):
            assert exact_mse_at(model, z0, k) == pytest.approx(
                curve.values[k], rel=1e-12
            )

    def test_closed_form_k0(self):
        model, z0 = random_model(6, 3, 30)
        assert exact_mse_at(model, z0, 0) == float(np.dot(z0, z0))

    def test_closed_form_enumeration(self):
        sys, dist, eta, z0 = random_instance(2, 2, 31)
        model = build_model(sys, dist, eta)
        enum = enumerated_mse_curve(sys, eta, dist, z0, 3)
        assert exact_mse_at(model, z0, 3) == pytest.approx(enum[3], rel=1e-10)

    @pytest.mark.parametrize("m,n,seed", [(4, 2, 50), (6, 3, 51), (8, 4, 52), (5, 4, 53)])
    def test_dense_lift_stepping(self, m, n, seed):
        model, z0 = random_model(m, n, seed)
        k_max = 60
        want = dense_exact_curve(model, z0, k_max)
        curve = exact_mse_curve(model, z0, k_max)
        assert np.allclose(curve.values, want, rtol=1e-10, atol=0)
        for k in (0, 1, k_max):
            assert exact_mse_at(model, z0, k) == curve.values[k]

    def test_floor_long_horizon(self):
        sys, dist, eta, z0 = random_instance(20, 5, 32, noise_scale=0.5)
        model = build_model(sys, dist, eta)
        curve = exact_mse_curve(model, z0, 100_000)
        assert abs(curve.values[-1] - curve.floor) <= 1e-8 * curve.floor

    def test_convergence_envelope(self):
        # |values[K] - floor| <= lambda_max(P)^K * ||(z0 x z0 - v1, z0 - v2)|| * n
        sys, dist, eta, z0 = random_instance(8, 4, 33)
        model = build_model(sys, dist, eta)
        k_max = 60
        curve = exact_mse_curve(model, z0, k_max)
        v1, v2 = solve_v1(model), solve_v2(model)
        w = np.sqrt(
            np.linalg.norm(np.outer(z0, z0) - v1) ** 2 + np.linalg.norm(z0 - v2) ** 2
        )
        bound = lambda_max_P(model) ** k_max * w * 4
        assert abs(curve.values[k_max] - curve.floor) <= bound

    def test_monte_carlo_agreement(self):
        sys, dist, eta, z0 = random_instance(12, 4, 34, noise_scale=0.3)
        model = build_model(sys, dist, eta)
        x0 = sys.x_true + z0
        z0_eff = x0 - sys.x_true
        curve = exact_mse_curve(model, z0_eff, 300)
        emp = monte_carlo_mse(sys, FixedNoise(eta), dist, x0, 300, 1500, seed=4)
        for k in (0, 1, 5, 20, 100, 300):
            diff = abs(emp.mse_mean[k] - curve.values[k])
            assert diff <= 4 * emp.mse_stderr[k]

    def test_limiting_zero_noise(self):
        sys, dist, _, _ = random_instance(5, 3, 35)
        assert limiting_mse(build_model(sys, dist, np.zeros(5))) == 0.0
        assert limiting_mse(build_model(sys, dist)) == 0.0


class TestCurveStop:
    """Curves that stop stepping W = Q^j I early, on the horizon_small system
    (gaussian 24 x 8, seed 3, sigma2 = 1e-3): there W's share of either curve
    falls below the stop after about 600 of its 3000 steps."""

    K_MAX = 3000

    @pytest.fixture(scope="class")
    def horizon(self):
        sys = gen_gaussian(24, 8, 1.0, 3)
        rng = rng_from(3, 0x570F)
        eta = np.sqrt(1e-3) * rng.standard_normal(24)
        return sys, row_norm_distribution(sys), eta, rng.standard_normal(8)

    def test_exact_matches_dense_lift(self, horizon):
        sys, dist, eta, z0 = horizon
        model = build_model(sys, dist, eta)
        want = dense_exact_curve(model, z0, self.K_MAX)
        assert np.allclose(exact_mse_curve(model, z0, self.K_MAX).values, want,
                           rtol=1e-10, atol=0)

    def test_avg_matches_dense_lift(self, horizon):
        sys, dist, _, z0 = horizon
        model = NoiseAveragedModel(build_model(sys, dist), 1e-3)
        want, _ = dense_avg_curve(model, z0, self.K_MAX)
        assert np.allclose(avg_mse_curve(model, z0, self.K_MAX).values, want,
                           rtol=1e-10, atol=0)

    def test_apply_q_calls(self, horizon, apply_q_calls):
        # each count includes the floor's CG solve
        sys, dist, eta, z0 = horizon
        exact_mse_curve(build_model(sys, dist, eta), z0, self.K_MAX)
        assert len(apply_q_calls) < 1000
        apply_q_calls.clear()
        avg_mse_curve(NoiseAveragedModel(build_model(sys, dist), 1e-3), z0, self.K_MAX)
        assert len(apply_q_calls) < 1000

    def test_zero_floor_not_truncated(self):
        # the noise-free identity curve ||z0||^2 (1 - 1/n)^k has floor 0, so
        # W is stepped to k_max, where the curve has fallen to about 1e-150
        n, k_max = 4, 1200
        z0 = rng_from(4, 0x570F).standard_normal(n)
        curve = exact_mse_curve(build_model(gen_identity(n), uniform_distribution(n)), z0, k_max)
        closed = float(z0 @ z0) * (1 - 1 / n) ** np.arange(k_max + 1)
        assert closed[-1] < 1e-148
        assert np.allclose(curve.values, closed, rtol=1e-12, atol=0)


class TestSpectra:
    def test_identity_lambda(self):
        model = build_model(gen_identity(4), uniform_distribution(4))
        assert lambda_max_P(model) == pytest.approx(1 - 1 / 4, rel=1e-12)

    def test_scalar_degenerate(self):
        sys = gen_gaussian(3, 1, 1.0, 36)
        model = build_model(sys, row_norm_distribution(sys))
        assert lambda_max_P(model) == pytest.approx(0.0, abs=1e-12)
        assert lambda_max_Q(model) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_eig_oracle(self, seed):
        model, _ = random_model(6, 3, seed)
        dense = dense_lift_oracle(model)
        assert lambda_max_P(model) == pytest.approx(
            np.linalg.eigvalsh(dense.P)[-1], abs=1e-9
        )
        assert lambda_max_Q(model) == pytest.approx(
            np.linalg.eigvalsh(dense.Q)[-1], abs=1e-9
        )

    def test_ordering(self):
        for seed in range(8):
            m = 4 + seed
            n = 2 + seed % 4
            model, _ = random_model(m, n, seed + 100)
            lam_q = lambda_max_Q(model)
            lam_p = lambda_max_P(model)
            assert 0.0 < lam_q <= lam_p + 1e-9
            assert lam_p < 1.0


class TestTomographySpectra:
    """The avg_mc benchmark system, whose top eigenvector of P is orthogonal
    to the all-ones vector to 1.9e-15, and the README's n = 100 system."""

    @pytest.fixture(scope="class")
    def model(self):
        sys = gen_tomography(5, 10, 5)
        return build_model(sys, row_norm_distribution(sys))

    def test_lambda_p_exact(self, model):
        assert abs(lambda_max_P(model) - np.linalg.eigvalsh(dense_p(model))[-1]) <= 1e-12

    def test_lambda_q_matches_kronecker(self, model):
        n = model.a_tilde.shape[1]
        q = np.zeros((n * n, n * n))
        for ai, pi in zip(model.a_tilde, model.p):
            proj = np.eye(n) - np.outer(ai, ai)
            q += pi * np.kron(proj, proj)
        assert lambda_max_Q(model) == pytest.approx(np.linalg.eigvalsh(q)[-1], abs=1e-9)

    def test_readme_system_certified(self):
        sys = gen_tomography(10, 15, 10)
        model = build_model(sys, row_norm_distribution(sys))
        lam_q, lam_p = lambda_max_Q(model), lambda_max_P(model)
        assert np.isfinite(lam_q)
        assert 0.0 < lam_q <= lam_p < 1.0

    def test_zf_avg_floor(self, model):
        sigma2 = 2.25e-4
        n = model.a_tilde.shape[1]
        curve = zf_avg_bound_curve(NoiseAveragedModel(model, sigma2), np.zeros(n), 5)
        lam = np.linalg.eigvalsh(dense_p(model))[-1]
        floor = sigma2 * np.sum(model.p / model.row_norms**2) / (1.0 - lam)
        assert curve == pytest.approx(np.full(6, floor), rel=1e-12)


class TestDenseLiftOracle:
    def test_block_structure(self):
        model, _ = random_model(5, 3, 40)
        dense = dense_lift_oracle(model)
        n = 3
        assert np.all(dense.H[n * n :, : n * n] == 0.0)
        assert np.array_equal(dense.H[: n * n, : n * n], dense.Q)
        assert np.array_equal(dense.H[: n * n, n * n :], dense.D)
        assert np.array_equal(dense.H[n * n :, n * n :], dense.P)

    def test_spectrum_union(self):
        for seed in range(5):
            model, _ = random_model(5, 3, seed + 200)
            dense = dense_lift_oracle(model)
            h_eigs = np.sort(np.linalg.eigvals(dense.H).real)
            pq = np.sort(
                np.concatenate(
                    [np.linalg.eigvalsh(dense.Q), np.linalg.eigvalsh(dense.P)]
                )
            )
            assert np.allclose(h_eigs, pq, rtol=0, atol=1e-8)

    def test_contraction(self):
        model, _ = random_model(5, 3, 41)
        dense = dense_lift_oracle(model)
        rho = np.max(np.abs(np.linalg.eigvals(dense.H)))
        assert rho < 1.0
        hk = np.linalg.matrix_power(dense.H, 500)
        assert np.linalg.norm(hk, 2) <= 1e-6

    def test_size_guard(self):
        sys = gen_gaussian(200, 14, 1.0, 42)
        model = build_model(sys, row_norm_distribution(sys))
        with pytest.raises(ValueError, match="n <= 12"):
            dense_lift_oracle(model)
