import re
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from kaczlab import (
    FixedNoise,
    IidNoise,
    SolverError,
    apply_D,
    apply_Q,
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
    zf_general_bound_curve,
)
from kaczlab import bounds, cli, lifted
from kaczlab.cli import run_experiment
from kaczlab.lifted import CURVE_BLOCK, dense_p, weighted_gram
from kaczlab.problems import LinearSystem
from kaczlab.seeding import rng_from

from conftest import dense_avg_curve, dense_exact_curve, random_instance, random_model, traced_peak
from exact_oracle import fixed_curve, fixed_floors, iid_curve, iid_floor


def mat_of(vec, n):
    return vec.reshape(n, n)


class TestBuildModel:
    """The model holds rows and probabilities; a FixedNoise is scaled by the
    same row norms wherever D, e and f read it."""

    def test_identity_rows(self):
        sys = gen_identity(3)
        model = build_model(sys, uniform_distribution(3))
        assert np.array_equal(model.a_tilde, np.eye(3))
        eta = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(lifted._scaled_eta(model, FixedNoise(eta)), eta)

    def test_row_normalization(self):
        sys = LinearSystem(np.array([[3.0, 4.0], [0.0, 1.0]]), np.zeros(2))
        model = build_model(sys, uniform_distribution(2))
        assert model.a_tilde[0] == pytest.approx([0.6, 0.8], rel=1e-15)
        scaled = lifted._scaled_eta(model, FixedNoise(np.array([5.0, 0.0])))
        assert scaled[0] == pytest.approx(1.0, rel=1e-15)

    def test_unit_rows_and_noise_recovery(self):
        sys, dist, eta, _ = random_instance(8, 4, 2)
        model = build_model(sys, dist)
        assert np.allclose(np.linalg.norm(model.a_tilde, axis=1), 1.0, rtol=0, atol=1e-14)
        scaled = lifted._scaled_eta(model, FixedNoise(eta))
        assert np.allclose(scaled * model.row_norms, eta, rtol=1e-14, atol=0)

    def test_round_trip_rebuild(self, tmp_path):
        sys, dist, eta, _ = random_instance(6, 3, 4)
        save_system(sys, tmp_path / "s.txt")
        reloaded = load_system(tmp_path / "s.txt")
        m1 = build_model(sys, dist)
        m2 = build_model(reloaded, dist)
        assert np.array_equal(m1.a_tilde, m2.a_tilde)
        noise = FixedNoise(eta)
        assert np.array_equal(lifted._scaled_eta(m1, noise), lifted._scaled_eta(m2, noise))


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
        model, noise, _ = random_model(4, 3, seed)
        dense = dense_lift_oracle(model, noise)
        v = np.random.default_rng(seed).standard_normal(3)
        assert np.allclose(dense_p(model) @ v, dense.P @ v, rtol=0, atol=1e-13)


class TestApplyQ:
    def test_zero(self):
        model, _, _ = random_model(4, 3, 3)
        assert np.all(apply_Q(model, np.zeros((3, 3))) == 0.0)

    def test_n1_annihilates(self):
        sys = gen_gaussian(2, 1, 1.0, 6)
        model = build_model(sys, row_norm_distribution(sys))
        assert abs(apply_Q(model, np.array([[3.0]]))[0, 0]) <= 1e-15 * 3.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dense_kron_oracle(self, seed):
        model, noise, _ = random_model(4, 3, seed)
        dense = dense_lift_oracle(model, noise)
        rng = np.random.default_rng(seed + 50)
        s = rng.standard_normal((3, 3))  # deliberately non-symmetric
        want = mat_of(dense.Q @ s.ravel(), 3)
        got = apply_Q(model, s)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
        sym = s + s.T
        want_sym = mat_of(dense.Q @ sym.ravel(), 3)
        assert np.allclose(apply_Q(model, sym), want_sym, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_input_layouts(self, seed):
        # each layout matches the Kronecker oracle, whichever path it takes
        model, noise, _ = random_model(7, 4, seed)
        dense = dense_lift_oracle(model, noise)
        b = np.random.default_rng(seed + 60).standard_normal((4, 4))
        sym = b + b.T
        signed_zeros = sym.copy()
        signed_zeros[0, 1], signed_zeros[1, 0] = 0.0, -0.0
        cases = {
            "fortran": np.asfortranarray(sym),
            "transposed view": b.T,
            "symmetric transposed view": sym.T,
            "signed zeros": signed_zeros,
        }
        for name, s in cases.items():
            want = mat_of(dense.Q @ np.ascontiguousarray(s).ravel(), 4)
            got = apply_Q(model, s)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14), name
        for s in (sym, np.asfortranarray(sym)):
            out = apply_Q(model, s)
            assert out.tobytes() == out.T.tobytes()

    def test_preserves_symmetry_and_psd(self):
        model, _, _ = random_model(6, 4, 7)
        rng = np.random.default_rng(8)
        b = rng.standard_normal((4, 4))
        s = b @ b.T  # symmetric PSD
        out = apply_Q(model, s)
        assert np.array_equal(out, out.T)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_trace_identity(self):
        # vec(I)^T Q = vec(P)^T: trace(Q S) == trace(P S) for symmetric S
        model, _, _ = random_model(5, 3, 9)
        rng = np.random.default_rng(10)
        b = rng.standard_normal((3, 3))
        s = b + b.T
        lhs = np.trace(apply_Q(model, s))
        rhs = np.trace(dense_p(model) @ s)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestQForms:
    """apply_Q's two forms: the implicit O(mn^2) one, and for n <= 12 the
    table on the symmetric subspace that is built from it."""

    SMALL_N = range(1, lifted.DENSE_ORACLE_MAX_N + 1)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", SMALL_N)
    def test_implicit_dense_kron_oracle(self, n, seed):
        model, noise, _ = random_model(n + 3, n, seed)
        dense = dense_lift_oracle(model, noise)
        b = np.random.default_rng(seed + 70).standard_normal((n, n))
        for s in (b, b + b.T):
            want = mat_of(dense.Q @ s.ravel(), n)
            assert np.allclose(lifted._apply_q_implicit(model, s), want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", SMALL_N)
    def test_table_matches_implicit(self, n, seed):
        # relative to ||S||, as ||Q||_2 <= 1 and Q = 0 at n = 1
        model, _, _ = random_model(n + 3, n, seed)
        assert model.q_table is not None
        b = np.random.default_rng(seed + 80).standard_normal((n, n))
        s = b + b.T
        got, want = apply_Q(model, s), lifted._apply_q_implicit(model, s)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(s)

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_table_output_bitwise_symmetric(self, n):
        model, _, _ = random_model(n + 3, n, 5)
        b = np.random.default_rng(90).standard_normal((n, n))
        sym = b + b.T
        for s in (sym, np.asfortranarray(sym), sym.T):
            out = apply_Q(model, s)
            assert out.flags.c_contiguous and out.tobytes() == out.T.tobytes()
            assert np.array_equal(out, apply_Q(model, sym))

    def test_table_only_up_to_the_oracle_limit(self):
        n = lifted.DENSE_ORACLE_MAX_N
        at_limit, _, _ = random_model(n + 3, n, 2)
        table, upper, full = at_limit.q_table
        assert table.shape == (n * (n + 1) // 2,) * 2 and not table.flags.writeable
        assert upper.size == table.shape[0] and full.size == n * n
        above, _, _ = random_model(n + 4, n + 1, 2)
        assert above.q_table is None
        b = np.random.default_rng(3).standard_normal((n + 1, n + 1))
        for s in (b, b + b.T):
            assert apply_Q(above, s).tobytes() == lifted._apply_q_implicit(above, s).tobytes()

    def test_non_symmetric_input_takes_implicit_form(self):
        model, _, _ = random_model(7, 4, 6)
        b = np.random.default_rng(4).standard_normal((4, 4))
        signed_zeros = b + b.T
        signed_zeros[0, 1], signed_zeros[1, 0] = 0.0, -0.0
        for s in (b, signed_zeros):
            assert apply_Q(model, s).tobytes() == lifted._apply_q_implicit(model, s).tobytes()

    @pytest.mark.parametrize("n", SMALL_N)
    def test_packed_input_is_upper_entries(self, n):
        # a 1-D input is the upper entries of a symmetric S, in q_table's
        # coordinates, and gets the upper entries of Q S bit for bit
        model, _, _ = random_model(n + 3, n, 7)
        upper = model.q_table[1]
        b = np.random.default_rng(n).standard_normal((n, n))
        s = b + b.T
        assert np.array_equal(apply_Q(model, s.ravel()[upper]), apply_Q(model, s).ravel()[upper])

    def test_packed_input_needs_the_table(self):
        n = lifted.DENSE_ORACLE_MAX_N + 1
        above, _, _ = random_model(n + 3, n, 2)
        with pytest.raises(ValueError, match="packed"):
            apply_Q(above, np.eye(n)[np.triu_indices(n)])

    def test_build_does_not_use_dense_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the table must not come from the dense oracle")

        monkeypatch.setattr(lifted, "dense_lift_oracle", refuse)
        for n in self.SMALL_N:
            model, _, _ = random_model(n + 3, n, 1)
            assert model.q_table is not None


class TestApplyD:
    def test_zero_noise(self):
        sys, dist, _, _ = random_instance(4, 3, 11)
        model = build_model(sys, dist)
        v = np.random.default_rng(0).standard_normal(3)
        assert np.all(apply_D(model, FixedNoise(np.zeros(4)), v) == 0.0)

    def test_zero_vector(self):
        model, noise, _ = random_model(4, 3, 12)
        assert np.all(apply_D(model, noise, np.zeros(3)) == 0.0)

    def test_requires_noise(self):
        # D is stated for a noise vector: a FixedNoise with one entry per row
        sys, dist, _, _ = random_instance(4, 3, 13)
        model = build_model(sys, dist)
        v = np.random.default_rng(13).standard_normal(3)
        for bad in (IidNoise(0.1), np.zeros(4)):
            with pytest.raises(TypeError, match="unsupported noise spec"):
                apply_D(model, bad, v)
        with pytest.raises(ValueError, match="length 4"):
            apply_D(model, FixedNoise(np.zeros(3)), v)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_kron_oracle(self, seed):
        model, noise, _ = random_model(4, 3, seed)
        dense = dense_lift_oracle(model, noise)
        v = np.random.default_rng(seed + 60).standard_normal(3)
        want = mat_of(dense.D @ v, 3)
        got = apply_D(model, noise, v)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
        assert np.allclose(got, got.T, rtol=0, atol=1e-14)

    def test_readout_peak_is_its_rows(self):
        # exact_mse_curve holds the rows vec(D u_i) of 50 modes, 0.95 MiB,
        # and no (modes x m x n) temporary (2.9 MiB) beside them
        sys = gen_gaussian(150, 50, 1.0, 3)
        noise = FixedNoise(rng_from(3, 1).standard_normal(150))
        model = build_model(sys, row_norm_distribution(sys))
        _, peak = traced_peak(exact_mse_curve, model, noise, rng_from(3, 2).standard_normal(50),
                              100)
        assert peak <= 50 * (50 * 50) * 8 + 2 * 2**20

    def test_trace_annihilated(self):
        # D^T vec(I) = 0: trace(mat(D v)) == 0 for every v
        model, noise, _ = random_model(6, 4, 14)
        for seed in range(5):
            v = np.random.default_rng(seed).standard_normal(4)
            assert abs(np.trace(apply_D(model, noise, v))) <= 1e-12 * np.linalg.norm(v)


class TestMoments:
    def test_zero_noise(self):
        sys, dist, _, _ = random_instance(4, 3, 15)
        model, noise = build_model(sys, dist), FixedNoise(np.zeros(4))
        assert np.all(vec_e(model, noise) == 0.0)
        assert np.all(vec_f(model, noise) == 0.0)

    def test_requires_noise(self):
        # f is stated for a noise vector: a FixedNoise with one entry per row;
        # e is its second moment, which an IidNoise has too
        sys, dist, _, _ = random_instance(4, 3, 15)
        model = build_model(sys, dist)
        for fn in (vec_f, solve_v2):
            with pytest.raises(TypeError, match="unsupported noise spec"):
                fn(model, IidNoise(0.1))
        for fn in (vec_e, vec_f, solve_v2):
            with pytest.raises(ValueError, match="length 4"):
                fn(model, FixedNoise(np.zeros(5)))

    def test_iid_e_is_the_mean_over_draws(self):
        # E eta~_i^2 = sigma2 / ||a_i||^2, so e = sigma2 A~^T diag(p / ||a||^2) A~,
        # whose trace is the averaged bound's sigma2 sum_i p_i / ||a_i||^2
        model, _, _ = random_model(10, 4, 18)
        weights = model.p / model.row_norms**2
        got = vec_e(model, IidNoise(0.3))
        want = 0.3 * model.a_tilde.T @ np.diag(weights) @ model.a_tilde
        assert np.allclose(got, want, rtol=1e-14, atol=0)
        assert np.trace(got) == pytest.approx(0.3 * np.sum(weights), rel=1e-14)

    def test_scalar_formulas(self):
        sys = gen_gaussian(3, 1, 1.0, 16)
        rng = np.random.default_rng(17)
        eta = rng.standard_normal(3)
        model, noise = build_model(sys, row_norm_distribution(sys)), FixedNoise(eta)
        scaled = eta / sys.row_norms
        assert np.trace(vec_e(model, noise)) == pytest.approx(
            np.sum(model.p * scaled**2), rel=1e-15
        )
        assert vec_f(model, noise)[0] == pytest.approx(
            np.sum(model.p * model.a_tilde[:, 0] * scaled), rel=1e-14
        )

    def test_trace_e(self):
        model, noise, _ = random_model(10, 4, 18)
        want = float(np.sum(model.p * (noise.eta / model.row_norms)**2))
        assert np.trace(vec_e(model, noise)) == pytest.approx(want, rel=1e-14)

    def test_e_psd(self):
        model, noise, _ = random_model(8, 4, 19)
        assert np.linalg.eigvalsh(vec_e(model, noise))[0] >= -1e-14


def noise_free_instances():
    """(model, z0) on a regular instance and on one whose weights leave I - P
    singular to working precision."""
    sys, dist, _, z0 = random_instance(6, 3, 21)
    singular_sys = gen_gaussian(4, 2, 1.0, 2)
    singular = make_distribution(np.array([1e300, 1.0, 1.0, 1.0]))
    z0_singular = rng_from(2, 1).standard_normal(2)
    return [(build_model(sys, dist), z0), (build_model(singular_sys, singular), z0_singular)]


def zero_specs(model):
    """Zero noise of either kind, for the model's m rows."""
    return {"fixed": FixedNoise(np.zeros(model.a_tilde.shape[0])), "iid": IidNoise(0.0)}


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
    """FixedNoise(0) and IidNoise(0) give the same results bit for bit, with
    no (I - P) or (I - Q) solve, even where I - P is singular."""

    @pytest.mark.parametrize("kind", ["fixed", "iid"])
    def test_zero_noise_is_undriven(self, kind, monkeypatch):
        def refuse(*args):
            raise AssertionError("zero noise needs no (I - P) or (I - Q) solve")

        for mod in (lifted, bounds):
            monkeypatch.setattr(mod, "i_minus_p_eigvals", refuse)
        monkeypatch.setattr(lifted, "_solve_i_minus_q", refuse)
        for model, z0 in noise_free_instances():
            noise = zero_specs(model)[kind]
            curve = exact_mse_curve(model, noise, z0, 300)
            undriven = lifted._lifted_curve(
                model, z0, np.zeros((z0.size, z0.size)), (np.empty(0), None), 300)
            assert curve.values.tobytes() == undriven.values.tobytes()
            assert curve.floor == 0.0 and limiting_mse(model, noise) == 0.0
            bound = zf_general_bound_curve(model, noise, z0, 300)
            flat = float(np.dot(z0, z0)) * lambda_max_P(model) ** np.arange(301)
            assert bound.tobytes() == flat.tobytes()

    def test_operators_match_zero_noise(self):
        for model, z0 in noise_free_instances():
            v = np.arange(1.0, z0.size + 1)
            zero = zero_specs(model)["fixed"]
            for fn, args in ((apply_D, (v,)), (vec_e, ()), (vec_f, ())):
                assert np.all(fn(model, zero, *args) == 0.0), fn.__name__
            for noise in zero_specs(model).values():
                assert np.array_equal(solve_v1(model, noise), np.zeros((z0.size,) * 2))

    def test_curves_match_zero_noise(self):
        for model, z0 in noise_free_instances():
            fixed, iid = zero_specs(model).values()
            for fn, args in ((limiting_mse, ()), (exact_mse_curve, (z0, 300)),
                             (zf_general_bound_curve, (z0, 300))):
                got = outcome(fn, model, fixed, *args)
                assert got is not SolverError, fn.__name__
                assert same_outcome(got, outcome(fn, model, iid, *args)), fn.__name__


class TestFixedPoints:
    def test_v2_zero_noise(self):
        sys, dist, _, _ = random_instance(4, 3, 20)
        model = build_model(sys, dist)
        assert np.allclose(solve_v2(model, FixedNoise(np.zeros(4))), 0.0, atol=1e-16)

    def test_v2_identity_closed_form(self):
        eta = np.array([0.3, -1.2, 2.0])
        model = build_model(gen_identity(3), uniform_distribution(3))
        assert np.allclose(solve_v2(model, FixedNoise(eta)), eta, rtol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_v2_dense_oracle(self, seed):
        model, noise, _ = random_model(4, 3, seed)
        dense = dense_lift_oracle(model, noise)
        want = np.linalg.solve(np.eye(3) - dense.P, dense.f)
        assert np.allclose(solve_v2(model, noise), want, rtol=1e-10)

    def test_v2_residual(self):
        model, noise, _ = random_model(20, 6, 21)
        v2 = solve_v2(model, noise)
        g = weighted_gram(model)
        f = vec_f(model, noise)
        assert np.linalg.norm(g @ v2 - f) <= 1e-10 * np.linalg.norm(f)

    def test_v2_residual_refused(self, monkeypatch):
        # no solve meets a negative tolerance: the error names lambda_max(P)
        model, noise, _ = random_model(20, 6, 21)
        monkeypatch.setattr(lifted, "V2_REL_TOL", -1.0)
        message = rf"too large; lambda_max\(P\) = {re.escape(repr(lambda_max_P(model)))}$"
        with pytest.raises(SolverError, match=message):
            solve_v2(model, noise)

    def test_v1_zero_noise(self):
        sys, dist, _, _ = random_instance(4, 3, 22)
        model = build_model(sys, dist)
        assert np.all(solve_v1(model, FixedNoise(np.zeros(4))) == 0.0)

    def test_v1_scalar_collapse(self):
        sys = gen_gaussian(3, 1, 1.0, 23)
        eta = np.random.default_rng(24).standard_normal(3)
        model = build_model(sys, row_norm_distribution(sys))
        want = float(np.sum(model.p * (eta / sys.row_norms)**2))
        assert solve_v1(model, FixedNoise(eta))[0, 0] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_v1_dense_oracle(self, seed):
        model, noise, _ = random_model(4, 3, seed)
        dense = dense_lift_oracle(model, noise)
        v2 = np.linalg.solve(np.eye(3) - dense.P, dense.f)
        want = mat_of(np.linalg.solve(np.eye(9) - dense.Q, dense.e + dense.D @ v2), 3)
        assert np.allclose(solve_v1(model, noise), want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cg_refuses_non_finite_rhs(self, bad, apply_q_calls):
        model, _, _ = random_model(8, 3, 48)
        rhs = np.eye(3)
        rhs[1, 2] = rhs[2, 1] = bad
        with pytest.raises(SolverError, match="right-hand side is not finite"):
            lifted._solve_i_minus_q(model, rhs)
        assert len(apply_q_calls) == 0

    def test_cg_zero_rhs_returns_zero(self, apply_q_calls):
        # eta~^2 underflows, so e + D v2 is exactly 0 and CG would divide 0 by 0
        sys = gen_gaussian(8, 3, 1.0, 49)
        model = build_model(sys, row_norm_distribution(sys))
        assert limiting_mse(model, FixedNoise(np.full(8, 1e-200))) == 0.0
        assert len(apply_q_calls) == 0

    @pytest.mark.parametrize("k", [-330, 300])
    def test_floor_scales_exactly_with_the_noise(self, k):
        # e + D v2 scales by exactly 4^k; unscaled CG norms would underflow
        # to a zero floor at k = -330 and overflow to NaN at k = 300
        model, noise, _ = random_model(60, 20, 1)
        floor = limiting_mse(model, noise)
        assert limiting_mse(model, FixedNoise(np.ldexp(noise.eta, k))) == np.ldexp(floor, 2 * k)

    def test_cg_solves_a_subnormal_rhs(self):
        # e + D v2 built from subnormals is asymmetric past CG's 1e-11 target:
        # CG must check the symmetric rhs it iterates on, not the raw one
        sys = gen_gaussian(8, 3, 1.0, 49)
        model = build_model(sys, row_norm_distribution(sys))
        eta = np.random.default_rng(0).standard_normal(8)
        floor = Fraction(limiting_mse(model, FixedNoise(eta)))
        for scale in (1e-160, 1e-158):
            got = Fraction(limiting_mse(model, FixedNoise(eta * scale)))
            assert abs(got - Fraction(scale)**2 * floor) <= 64 * Fraction(2)**-1074

    def test_cg_fails_loudly_when_residual_unreachable(self, monkeypatch):
        # an apply_Q with relative error 1e-9 cannot bring the true residual to 1e-11:
        # each claimed convergence fails the check and restarts, until the cap
        sys = gen_gaussian(8, 3, 1.0, 49)
        model = build_model(sys, row_norm_distribution(sys))
        rng, real, calls = np.random.default_rng(50), lifted.apply_Q, []

        def noisy(model, s):
            calls.append(None)
            out = real(model, s)
            err = rng.standard_normal(out.shape)
            err += err.T
            return out + 1e-9 * np.linalg.norm(out) / np.linalg.norm(err) * err

        monkeypatch.setattr(lifted, "apply_Q", noisy)
        with pytest.raises(SolverError, match=r"^\(I - Q\) CG did not reach 1e-11 in 90 "
                                              r"iterations \(relative residual \d\.\d{3}e-\d\d\)$"):
            limiting_mse(model, IidNoise(1e-3))
        assert len(calls) > 90 + 1   # the cap's steps, restarts' true residuals, the final one

    def test_v1_symmetric_psd(self):
        model, noise, _ = random_model(12, 5, 25)
        v1 = solve_v1(model, noise)
        assert np.array_equal(v1, v1.T)
        assert np.linalg.eigvalsh(v1)[0] >= -1e-12


def near_collinear(d):
    """A 6 x 3 system whose rows spread apart with d; kappa_2(A) ~ 4.6 / d."""
    rows = [[1, 1, 1], [1, 1 + d, 1], [1, 1, 1 + d], [1, 1 + d, 1 + d], [1 + d, 1, 1],
            [2, 1, 1 + 2 * d]]
    return LinearSystem(np.array(rows, dtype=float), np.zeros(3))


class TestExactFloors:
    """Floors against exact rational arithmetic on the doubles the code reads,
    at dense_v1's tolerance of 1e-9."""

    @pytest.mark.parametrize("d", [1e-1, 1e-2])
    def test_iid_floor_near_collinear(self, d):
        sys = near_collinear(d)
        model = build_model(sys, row_norm_distribution(sys))
        want = float(iid_floor(sys.a, model.p, 1.0))
        assert limiting_mse(model, IidNoise(1.0)) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gaussian_floors(self, seed):
        sys, dist, eta, _ = random_instance(6, 3, seed)
        model = build_model(sys, dist)
        want = float(iid_floor(sys.a, model.p, 1.0))
        assert limiting_mse(model, IidNoise(1.0)) == pytest.approx(want, rel=1e-9)
        want = float(fixed_floors(sys.a, model.p, [eta])[0])
        assert limiting_mse(model, FixedNoise(eta)) == pytest.approx(want, rel=1e-9)

    def test_oracle_matches_dense_lift(self):
        sys = near_collinear(1e-1)
        model = build_model(sys, row_norm_distribution(sys))
        _, lu_floor = dense_avg_curve(model, IidNoise(1.0), np.zeros(3), 0)
        assert float(iid_floor(sys.a, model.p, 1.0)) == pytest.approx(lu_floor, rel=1e-9)


def exact_curve_instances():
    """(system, distribution, eta, z0) of the near-collinear family at d = 1e-1
    and 1e-2 with row-norm p, and of two gaussian 6 x 3 instances."""
    out = []
    for d in (1e-1, 1e-2):
        sys = near_collinear(d)
        rng = np.random.default_rng(61)
        out.append((sys, row_norm_distribution(sys), rng.standard_normal(6), rng.standard_normal(3)))
    return out + [random_instance(6, 3, seed) for seed in (0, 1)]


class TestExactOracleCurves:
    """Curves against the 50-digit stepping of z's own moments, for k <= 200,
    at the curves' 1e-10."""

    @pytest.mark.parametrize("case", range(4), ids=["d1e-1", "d1e-2", "gaussian0", "gaussian1"])
    def test_fixed_curve(self, case):
        sys, dist, eta, z0 = exact_curve_instances()[case]
        model = build_model(sys, dist)
        want = [float(v) for v in fixed_curve(sys.a, model.p, eta, z0, 200)]
        got = exact_mse_curve(model, FixedNoise(eta), z0, 200).values
        assert np.allclose(got, want, rtol=1e-10, atol=0)

    def test_iid_curve(self):
        sys, dist, _, z0 = exact_curve_instances()[2]
        model = build_model(sys, dist)
        want = [float(v) for v in iid_curve(sys.a, model.p, 0.5, z0, 200)]
        got = exact_mse_curve(model, IidNoise(0.5), z0, 200).values
        assert np.allclose(got, want, rtol=1e-10, atol=0)

    def test_fixed_curve_implicit_q(self, monkeypatch):
        # with no q_table, every apply_Q takes the implicit form
        monkeypatch.setattr(lifted, "DENSE_ORACLE_MAX_N", 0)
        sys, dist, eta, z0 = exact_curve_instances()[2]
        model = build_model(sys, dist)
        assert model.q_table is None
        want = [float(v) for v in fixed_curve(sys.a, model.p, eta, z0, 200)]
        got = exact_mse_curve(model, FixedNoise(eta), z0, 200).values
        assert np.allclose(got, want, rtol=1e-10, atol=0)


def forward_q(model, s):
    """sum_i p_i P_i S P_i from its four rank-one terms:
    S - G S - S G + sum_i p_i (a~_i^T S a~_i) a~_i a~_i^T, G = sum_i p_i a~_i a~_i^T."""
    at, p = model.a_tilde, model.p
    gram = at.T @ (p[:, None] * at)
    quad = np.vecdot(at @ s, at)
    return s - gram @ s - s @ gram + at.T @ ((p * quad)[:, None] * at)


def forward_fixed_curve(model, eta, z0, k_max):
    """tr S_k for k <= k_max, stepping z's first and second moments forward from
    z0 under the noise vector eta: mu <- P mu + f and S <- Q S + C + C^T + e,
    C = sum_i p_i eta~_i (P_i mu) a~_i^T."""
    at, p = model.a_tilde, model.p
    w = p * eta / model.row_norms              # p_i eta~_i
    e = at.T @ ((w * eta / model.row_norms)[:, None] * at)
    f = at.T @ w
    pmat = np.eye(z0.size) - at.T @ (p[:, None] * at)
    s, mu = np.outer(z0, z0), z0.copy()
    values = [np.trace(s)]
    for _ in range(k_max):
        c = np.outer(mu, f) - at.T @ ((w * (at @ mu))[:, None] * at)
        s = forward_q(model, s) + c + c.T + e
        mu = pmat @ mu + f
        values.append(np.trace(s))
    return np.array(values)


def forward_iid_curve(model, sigma2, z0, k_max):
    """tr S_k + sigma2 tr B_k for k <= k_max: the noise-free second moment S from
    z0 z0^T, and the second moment B of the noise-to-error map, whose mean M
    (n x m) is carried beside it, from zero:
    B <- Q B + K + K^T + sum_i (p_i/||a_i||^2) a~_i a~_i^T,
    K = sum_i (p_i/||a_i||) (P_i M e_i) a~_i^T, M <- P M + A~^T diag(p/||a||)."""
    at, p, norms = model.a_tilde, model.p, model.row_norms
    n, m = z0.size, p.size
    w = p / norms
    e = at.T @ ((w / norms)[:, None] * at)
    pmat = np.eye(n) - at.T @ (p[:, None] * at)
    s, b, mmap = np.outer(z0, z0), np.zeros((n, n)), np.zeros((n, m))
    values = [np.trace(s)]
    for _ in range(k_max):
        cols = mmap.T - np.vecdot(at, mmap.T)[:, None] * at   # rows (P_i M e_i)^T
        k = cols.T @ (w[:, None] * at)
        s = forward_q(model, s)
        b = forward_q(model, b) + k + k.T + e
        mmap = pmat @ mmap + at.T * w
        values.append(np.trace(s) + sigma2 * np.trace(b))
    return np.array(values)


def curve_reads(model, noise, z0):
    """The rows _lifted_curve reads W against for a curve: vec(X_0), X_0 =
    z0 z0^T - v, then its drive's mode rows op(u_i)."""
    v, (c, op) = lifted._noise_terms(model, noise, z0)
    modes = [op(model, u).ravel() for u in model.p_eigvecs.T[:c.size]]
    return np.vstack([(np.outer(z0, z0) - v).ravel(), *modes])


def ritz_reads(monkeypatch):
    """A list that gains (steps of the Lanczos run so far, last k) of each
    block lifted._ritz_w hands out."""
    read, steps = [], []
    real_lanczos, real_ritz_w = lifted._lanczos, lifted._ritz_w

    def lanczos(model):
        for block in real_lanczos(model):
            steps.append(len(block[0]))
            yield block

    def ritz_w(model, reads):
        for k, block in enumerate(real_ritz_w(model, reads)):
            read.append((sum(steps), (k + 1) * CURVE_BLOCK - 1))
            yield block

    monkeypatch.setattr(lifted, "_lanczos", lanczos)
    monkeypatch.setattr(lifted, "_ritz_w", ritz_w)
    return read


class TestForwardMomentCurves:
    """Curves past the dense lift's n <= 12, where apply_Q takes the implicit
    form, against the moments of z stepped forward from z0: no fixed point,
    no eigh(P), no adjoint, no stop and no tail. The forward recursion
    gathers rounding on the curve's scale, not the floor's, so each curve is
    compared at 1e-10 of its largest value."""

    @staticmethod
    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_gaussian_fixed(self):
        sys = gen_gaussian(150, 50, 1.0, 1)
        rng = np.random.default_rng(7)
        z0, eta = rng.standard_normal(50), np.sqrt(1.6 / 150) * rng.standard_normal(150)
        model = build_model(sys, row_norm_distribution(sys))
        assert model.q_table is None
        got = exact_mse_curve(model, FixedNoise(eta), z0, 500).values
        self.assert_close(got, forward_fixed_curve(model, eta, z0, 500))

    def test_gaussian_iid_past_the_stop(self, apply_q_calls):
        k_max = 3000
        sys, dist, _, z0 = random_instance(60, 20, 8)
        model = build_model(sys, dist)
        got = exact_mse_curve(model, IidNoise(1e-2), z0, k_max).values
        # the count includes the floor's CG solve; below k_max, it shows that
        # W was not stepped to k_max
        assert len(apply_q_calls) < k_max
        self.assert_close(got, forward_iid_curve(model, 1e-2, z0, k_max))

    @pytest.mark.parametrize("kind", ["fixed", "iid"])
    def test_smallest_model_without_table_past_the_stop(self, kind, monkeypatch):
        # 13 columns, the smallest n without q_table, so the readouts come from
        # one Lanczos run; they end before k_max, so the geometric tail is
        # compared too
        k_max = 3000
        sys = gen_gaussian(40, 13, 1.0, 2)
        rng = np.random.default_rng(13)
        z0, eta = rng.standard_normal(13), np.sqrt(1.6 / 40) * rng.standard_normal(40)
        model = build_model(sys, row_norm_distribution(sys))
        assert model.q_table is None
        read = ritz_reads(monkeypatch)
        if kind == "fixed":
            got = exact_mse_curve(model, FixedNoise(eta), z0, k_max).values
            want = forward_fixed_curve(model, eta, z0, k_max)
        else:
            got = exact_mse_curve(model, IidNoise(1e-2), z0, k_max).values
            want = forward_iid_curve(model, 1e-2, z0, k_max)
        assert 0 < max(k for _, k in read) < k_max
        self.assert_close(got, want)

    def test_tomography_iid(self):
        sys = gen_tomography(10, 15, 10)
        model = build_model(sys, row_norm_distribution(sys))
        z0 = -sys.x_true
        got = exact_mse_curve(model, IidNoise(2.25e-4), z0, 300).values
        self.assert_close(got, forward_iid_curve(model, 2.25e-4, z0, 300))


class TestExactCurves:
    def test_zero_everything(self):
        sys, dist, _, _ = random_instance(4, 3, 26)
        model = build_model(sys, dist)
        curve = exact_mse_curve(model, FixedNoise(np.zeros(4)), np.zeros(3), 10)
        assert np.all(curve.values == 0.0)
        assert curve.floor == 0.0

    def test_scalar_constant(self):
        sys = gen_gaussian(4, 1, 1.0, 27)
        eta = np.random.default_rng(28).standard_normal(4)
        model, noise = build_model(sys, row_norm_distribution(sys)), FixedNoise(eta)
        want = float(np.sum(model.p * (eta / sys.row_norms)**2))
        curve = exact_mse_curve(model, noise, np.array([3.0]), 6)
        assert curve.values[0] == pytest.approx(9.0)
        assert np.allclose(curve.values[1:], want, rtol=1e-13)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_enumeration_oracle(self, seed):
        sys, dist, eta, z0 = random_instance(3, 2, seed)
        model, noise = build_model(sys, dist), FixedNoise(eta)
        enum = enumerated_mse_curve(sys, eta, dist, z0, 4)
        curve = exact_mse_curve(model, noise, z0, 4)
        assert np.allclose(curve.values, enum, rtol=1e-10)

    def test_enumeration_refuses_past_its_limit(self):
        sys, dist, eta, z0 = random_instance(10, 2, 0)
        with pytest.raises(ValueError, match=r"^enumeration over 10\^6 sequences exceeds 100000$"):
            enumerated_mse_curve(sys, eta, dist, z0, 6)

    def test_closed_form_matches_recursion(self):
        model, noise, z0 = random_model(6, 3, 29)
        curve = exact_mse_curve(model, noise, z0, 50)
        for k in (1, 7, 50):
            assert exact_mse_at(model, noise, z0, k) == pytest.approx(
                curve.values[k], rel=1e-12
            )

    def test_closed_form_k0(self):
        model, noise, z0 = random_model(6, 3, 30)
        assert exact_mse_at(model, noise, z0, 0) == float(np.dot(z0, z0))

    def test_closed_form_enumeration(self):
        sys, dist, eta, z0 = random_instance(2, 2, 31)
        model, noise = build_model(sys, dist), FixedNoise(eta)
        enum = enumerated_mse_curve(sys, eta, dist, z0, 3)
        assert exact_mse_at(model, noise, z0, 3) == pytest.approx(enum[3], rel=1e-10)

    @pytest.mark.parametrize("m,n,seed", [(4, 2, 50), (6, 3, 51), (8, 4, 52), (5, 4, 53)])
    def test_dense_lift_stepping(self, m, n, seed):
        model, noise, z0 = random_model(m, n, seed)
        k_max = 60
        want = dense_exact_curve(model, noise, z0, k_max)
        curve = exact_mse_curve(model, noise, z0, k_max)
        assert np.allclose(curve.values, want, rtol=1e-10, atol=0)
        for k in (0, 1, k_max):
            assert exact_mse_at(model, noise, z0, k) == curve.values[k]

    def test_floor_long_horizon(self):
        sys, dist, eta, z0 = random_instance(20, 5, 32, noise_scale=0.5)
        model, noise = build_model(sys, dist), FixedNoise(eta)
        curve = exact_mse_curve(model, noise, z0, 100_000)
        assert abs(curve.values[-1] - curve.floor) <= 1e-8 * curve.floor

    def test_convergence_envelope(self):
        # |values[K] - floor| <= lambda_max(P)^K * ||(z0 x z0 - v1, z0 - v2)|| * n
        sys, dist, eta, z0 = random_instance(8, 4, 33)
        model, noise = build_model(sys, dist), FixedNoise(eta)
        k_max = 60
        curve = exact_mse_curve(model, noise, z0, k_max)
        v1, v2 = solve_v1(model, noise), solve_v2(model, noise)
        w = np.sqrt(
            np.linalg.norm(np.outer(z0, z0) - v1) ** 2 + np.linalg.norm(z0 - v2) ** 2
        )
        bound = lambda_max_P(model) ** k_max * w * 4
        assert abs(curve.values[k_max] - curve.floor) <= bound

    def test_monte_carlo_agreement(self):
        sys, dist, eta, z0 = random_instance(12, 4, 34, noise_scale=0.3)
        model, noise = build_model(sys, dist), FixedNoise(eta)
        x0 = sys.x_true + z0
        z0_eff = x0 - sys.x_true
        curve = exact_mse_curve(model, noise, z0_eff, 300)
        emp = monte_carlo_mse(model, FixedNoise(eta), z0_eff, 300, 1500, seed=4)
        for k in (0, 1, 5, 20, 100, 300):
            diff = abs(emp.mse_mean[k] - curve.values[k])
            assert diff <= 4 * emp.mse_stderr[k]

    def test_limiting_zero_noise(self):
        sys, dist, _, _ = random_instance(5, 3, 35)
        model = build_model(sys, dist)
        assert limiting_mse(model, FixedNoise(np.zeros(5))) == 0.0
        assert limiting_mse(model, IidNoise(0.0)) == 0.0


def spec_readers(z0):
    """(function, arguments after (model, noise)) of everything that reads a noise spec."""
    return ((exact_mse_curve, (z0, 5)), (exact_mse_at, (z0, 5)), (limiting_mse, ()),
            (solve_v1, ()), (zf_general_bound_curve, (z0, 5)))


class TestArguments:
    """Bad arguments raise an error that names them, before any solve."""

    def test_negative_k_max(self):
        model, noise, z0 = random_model(8, 3, 60)
        with pytest.raises(ValueError, match="k_max must be >= 0, got -1"):
            exact_mse_curve(model, noise, z0, -1)
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            exact_mse_at(model, noise, z0, -1)

    def test_z0_wrong_length(self):
        model, noise, _ = random_model(8, 3, 61)
        for z0 in (np.zeros(2), np.zeros(4), np.zeros((3, 1)), 1.0):
            with pytest.raises(ValueError, match="z0 must have length 3"):
                exact_mse_curve(model, noise, z0, 5)

    def test_rejects_non_spec(self):
        model, noise, z0 = random_model(8, 3, 62)
        for bad in (noise.eta, 0.1, None):
            for fn, args in spec_readers(z0):
                with pytest.raises(TypeError, match="unsupported noise spec"):
                    fn(model, bad, *args)

    def test_fixed_noise_wrong_length(self):
        model, _, z0 = random_model(8, 3, 63)
        for fn, args in spec_readers(z0):
            with pytest.raises(ValueError, match=r"eta must have length 8, got \(7,\)"):
                fn(model, FixedNoise(np.zeros(7)), *args)


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
        model, noise = build_model(sys, dist), FixedNoise(eta)
        want = dense_exact_curve(model, noise, z0, self.K_MAX)
        assert np.allclose(exact_mse_curve(model, noise, z0, self.K_MAX).values, want,
                           rtol=1e-10, atol=0)

    def test_avg_matches_dense_lift(self, horizon):
        sys, dist, _, z0 = horizon
        model, noise = build_model(sys, dist), IidNoise(1e-3)
        want, _ = dense_avg_curve(model, noise, z0, self.K_MAX)
        assert np.allclose(exact_mse_curve(model, noise, z0, self.K_MAX).values, want,
                           rtol=1e-10, atol=0)

    def test_apply_q_calls(self, horizon, apply_q_calls):
        # each count includes the floor's CG solve; the curve's W_j stay one
        # apply_Q call each in q_table's coordinates
        sys, dist, eta, z0 = horizon
        model = build_model(sys, dist)
        exact_mse_curve(model, FixedNoise(eta), z0, self.K_MAX)
        assert len(apply_q_calls) == 680
        apply_q_calls.clear()
        exact_mse_curve(model, IidNoise(1e-3), z0, self.K_MAX)
        assert len(apply_q_calls) == 679

    def test_curve_steps_packed(self, horizon, monkeypatch):
        # on a model with q_table, every W_j the curve steps is upper entries
        sys, dist, _, z0 = horizon
        model = build_model(sys, dist)
        real, ndims = lifted.apply_Q, []

        def spy(model, s):
            ndims.append(s.ndim)
            return real(model, s)

        monkeypatch.setattr(lifted, "apply_Q", spy)
        # noise-free, so no solve: 7 blocks of 16 iterates, the first of them I
        exact_mse_curve(model, FixedNoise(np.zeros(24)), z0, 100)
        assert ndims == [1] * (7 * 16 - 1)

    def test_packed_iterates_match_matrix_path(self, horizon):
        # unpacked, each packed W_j = Q^j I is the n x n path's W_j bit for bit
        sys, dist, _, _ = horizon
        model = build_model(sys, dist)
        _, upper, full = model.q_table
        w = np.eye(8)
        packed = w.ravel()[upper]
        for _ in range(64):
            w, packed = apply_Q(model, w), apply_Q(model, packed)
            assert np.array_equal(packed.take(full).reshape(8, 8), w)

    def test_zero_floor_not_truncated(self):
        # the noise-free identity curve ||z0||^2 (1 - 1/n)^k has floor 0, so
        # W is stepped until the curve lies below the smallest normal double;
        # at k_max it has fallen to about 7e-300, past where ||W||^2 underflows
        n, k_max = 4, 2400
        z0 = rng_from(4, 0x570F).standard_normal(n)
        model = build_model(gen_identity(n), uniform_distribution(n))
        curve = exact_mse_curve(model, FixedNoise(np.zeros(n)), z0, k_max)
        closed = float(z0 @ z0) * (1 - 1 / n) ** np.arange(k_max + 1)
        assert closed[-1] < 1e-299
        assert np.allclose(curve.values, closed, rtol=1e-12, atol=0)

    def test_zero_floor_large_z0_stops(self, apply_q_calls):
        # with ||z0||^2 about 4e16, owed ||W|| <= tiny would need a subnormal
        # ||W||, where apply_Q stalls; the stop fires once ||W|| reaches tiny,
        # near k = 2,465, and every value before it keeps the closed form
        n, k_max = 4, 10_000
        z0 = 1e8 * rng_from(4, 0x570F).standard_normal(n)
        model = build_model(gen_identity(n), uniform_distribution(n))
        curve = exact_mse_curve(model, FixedNoise(np.zeros(n)), z0, k_max)
        assert len(apply_q_calls) < 3000
        closed = float(z0 @ z0) * (1 - 1 / n) ** np.arange(2400)
        assert np.allclose(curve.values[:2400], closed, rtol=1e-12, atol=0)

    def test_tiny_floor_not_truncated(self):
        # a floor of about 1e-300 puts CURVE_STOP_REL floor below the smallest
        # normal double: the curve decays smoothly onto it, with no step that
        # drops it from where ||W||^2 underflows straight to the floor
        sys = gen_gaussian(24, 8, 1.0, 3)
        model = build_model(sys, row_norm_distribution(sys))
        z0 = np.random.default_rng(1).standard_normal(8)
        values = exact_mse_curve(model, IidNoise(1e-300), z0, 12_000).values
        assert np.all(values[:-1] <= 2 * values[1:])


class TestRitzCurves:
    """Curves of models without q_table, read from one Lanczos run on Q
    (lifted._ritz_w) instead of stepping W = Q^j I."""

    @staticmethod
    def model_13(seed=2):
        sys = gen_gaussian(40, 13, 1.0, seed)
        rng = np.random.default_rng(seed)
        return (build_model(sys, row_norm_distribution(sys)), rng.standard_normal(13),
                FixedNoise(np.sqrt(1.6 / 40) * rng.standard_normal(40)))

    def test_breakdown_identity(self, apply_q_calls):
        # Q I = (1 - 1/n) I: the run ends at a zero beta, inside its first
        # block, and the curve is ||z0||^2 (1 - 1/n)^k
        n, k_max = 13, 1000
        z0 = rng_from(4, 0x570F).standard_normal(n)
        model = build_model(gen_identity(n), uniform_distribution(n))
        curve = exact_mse_curve(model, FixedNoise(np.zeros(n)), z0, k_max)
        assert len(apply_q_calls) < CURVE_BLOCK
        closed = float(z0 @ z0) * (1 - 1 / n) ** np.arange(k_max + 1)
        assert np.allclose(curve.values, closed, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k_max,ks", [
        (400, (0, 1, 15, 16, 17, 200, 399)),
        # past the first horizons, whose values come from longer runs
        (2100, (511, 512, 1023, 1024, 1500, 2047, 2048)),
    ])
    def test_values_do_not_depend_on_k_max(self, k_max, ks):
        model, z0, fixed = self.model_13()
        for noise in (fixed, IidNoise(1e-2)):
            full = exact_mse_curve(model, noise, z0, k_max).values
            for k in ks:
                assert np.array_equal(exact_mse_curve(model, noise, z0, k).values, full[: k + 1])
                assert exact_mse_at(model, noise, z0, k) == full[k]

    def test_fixed_mc_calls(self, apply_q_calls):
        # perfbench's fixed_mc shape: stepping made 511 calls for the curve
        # and 33 for the floor's CG solve
        sys = gen_gaussian(60, 20, 1.0, 1)
        eta = np.random.default_rng(2).standard_normal(60)
        eta *= 0.8 / np.linalg.norm(eta)
        z0 = np.random.default_rng(7).standard_normal(20)
        model = build_model(sys, row_norm_distribution(sys))
        got = exact_mse_curve(model, FixedNoise(eta), z0, 500).values
        assert len(apply_q_calls) <= 160
        assert np.max(np.abs(got - forward_fixed_curve(model, eta, z0, 500))) <= (
            1e-10 * np.max(got))

    def test_uncertified_run_steps_the_rest(self, apply_q_calls, monkeypatch):
        # 48 steps certify this model's first two horizons (k < 1024) but not
        # the third: from k = 1024 on, W is stepped from W_0
        sys = gen_tomography(5, 10, 5)
        model, z0, k_max = build_model(sys, row_norm_distribution(sys)), -sys.x_true, 2500
        want = exact_mse_curve(model, IidNoise(2.25e-4), z0, k_max).values
        apply_q_calls.clear()
        monkeypatch.setattr(lifted, "LANCZOS_MAX_STEPS", 48)
        got = exact_mse_curve(model, IidNoise(2.25e-4), z0, k_max).values
        assert len(apply_q_calls) > 1024
        assert np.array_equal(got[:1024], want[:1024])
        assert np.max(np.abs(got - forward_iid_curve(model, 2.25e-4, z0, k_max))) <= (
            1e-10 * np.max(got))

    @pytest.mark.parametrize("case", ["gaussian_fixed", "tomography_iid"])
    def test_sources_agree(self, case):
        # block by block for k < 2048, the Lanczos source hands out the stepped
        # readouts to 1e-12 of their scale, and a bound no smaller than ||W||
        if case == "gaussian_fixed":
            model, z0, noise = self.model_13()
        else:
            sys = gen_tomography(5, 10, 5)
            model = build_model(sys, row_norm_distribution(sys))
            z0, noise = -sys.x_true, IidNoise(2.25e-4)
        reads = curve_reads(model, noise, z0)
        tol = 1e-12 * np.sqrt(z0.size) * (
            np.linalg.norm(reads[0]) + np.max(np.linalg.norm(reads[1:], axis=1)))
        sources = lifted._ritz_w(model, reads), lifted._stepped_w(model, reads)
        for _, ritz, stepped in zip(range(2048 // CURVE_BLOCK), *sources):
            assert np.max(np.abs(ritz[0] - stepped[0])) <= tol
            assert ritz[1] >= stepped[1]

    @pytest.mark.parametrize("shape", [(40, 13), (24, 8)])
    def test_a_source_reads_any_stack_of_rows(self, shape):
        # a source shared by several curves reads their rows stacked: each
        # gets the products of a run of its own rows, and every block the
        # same bound. 40 x 13 takes the Lanczos source, 24 x 8 the stepped one
        sys = gen_gaussian(*shape, 1.0, 1)
        model = build_model(sys, row_norm_distribution(sys))
        eta = np.random.default_rng(2).standard_normal(shape[0])
        z0 = np.random.default_rng(7).standard_normal(shape[1])
        noises = FixedNoise(0.1 * eta), IidNoise(1e-2)
        stacks = [curve_reads(model, noise, z0) for noise in noises]
        source = lifted._stepped_w if model.q_table is not None else lifted._ritz_w
        blocks = 2048 // CURVE_BLOCK
        both = list(islice(source(model, np.vstack(stacks)), blocks))
        alone = [list(islice(source(model, rows), blocks)) for rows in stacks]
        for block, *ones in zip(both, *alone):
            assert all(block[1] == one[1] for one in ones)
        want = np.hstack([np.vstack([one[0] for one in run]) for run in alone])
        got = np.vstack([block[0] for block in both])
        assert np.all(np.abs(got - want) <= 1e-15 * np.max(np.abs(want), axis=0))

    def test_stop_before_the_run_ends(self, monkeypatch):
        # with no certificate to serve, the run grows until the stop falls on
        # a k it reads exactly by structure
        model, noise, z0 = random_model(8, 3, 21)
        want = dense_exact_curve(model, noise, z0, 1000)
        monkeypatch.setattr(lifted, "DENSE_ORACLE_MAX_N", 0)
        monkeypatch.setattr(lifted, "CURVE_CERT_REL", -1.0)
        model = build_model(*random_instance(8, 3, 21)[:2])
        read = ritz_reads(monkeypatch)
        got = exact_mse_curve(model, noise, z0, 1000).values
        steps, last = read[-1]
        assert last < min(steps, 1000)
        assert np.allclose(got, want, rtol=1e-10, atol=0)


class TestOneLanczosRun:
    """lambda_max_Q and the curves of models without q_table read their Ritz
    pairs from blocks of one run type, lifted._lanczos."""

    @staticmethod
    def blocks_read(monkeypatch):
        """A list that gains, per _lanczos run from here on, the list of (beta,
        theta) of each block its reader takes."""
        runs, real = [], lifted._lanczos

        def lanczos(model):
            runs.append([])
            for block in real(model):
                runs[-1].append(block[1:3])
                yield block

        monkeypatch.setattr(lifted, "_lanczos", lanczos)
        return runs

    @pytest.mark.parametrize("case", ["gaussian_fixed", "tomography_iid"])
    def test_lambda_and_curve_read_one_recurrence(self, case, monkeypatch):
        # the fixed_mc and avg_mc systems: the curve's run repeats, bitwise, every
        # block lambda_max_Q read, and reads past them
        if case == "gaussian_fixed":
            sys = gen_gaussian(60, 20, 1.0, 1)
            eta = np.random.default_rng(2).standard_normal(60)
            noise, z0 = FixedNoise(0.8 * eta / np.linalg.norm(eta)), np.ones(20)
        else:
            sys = gen_tomography(5, 10, 5)
            noise, z0 = IidNoise(2.25e-4), -sys.x_true
        model = build_model(sys, row_norm_distribution(sys))
        runs = self.blocks_read(monkeypatch)
        lambda_max_Q(model)
        exact_mse_curve(model, noise, z0, 600)
        lam_run, curve_run = runs
        assert 1 <= len(lam_run) <= len(curve_run)
        for (beta, theta), (curve_beta, curve_theta) in zip(lam_run, curve_run):
            assert beta == curve_beta
            assert np.array_equal(theta, curve_theta)

    @staticmethod
    def workload_config(case):
        """The benchmark's fixed_mc and avg_mc configs at seed 0."""
        if case == "fixed_mc":
            eta = np.random.default_rng(2).standard_normal(60)
            eta *= np.sqrt(0.64) / np.linalg.norm(eta)
            return {
                "matrix": {"kind": "gaussian", "m": 60, "n": 20, "seed": 1},
                "noise": {"kind": "fixed", "values": eta.tolist()},
                "x0": {"random_seed": 7}, "k_max": 500, "trials": 100, "seed": 99,
                "outputs": ["empirical", "exact", "bound_zf", "bound_zf_general", "floor"],
            }
        return {
            "matrix": {"kind": "tomography", "grid": 5, "angles": 10, "rays": 5},
            "noise": {"kind": "iid", "sigma2": 2.25e-4, "resample": True},
            "x0": "zero", "k_max": 600, "trials": 60, "seed": 5,
            "outputs": ["empirical", "exact_avg", "bound_zf_avg", "floor"],
        }

    @pytest.mark.parametrize("case, total", [("fixed_mc", 81), ("avg_mc", 97)])
    def test_run_reads_lambda_from_the_curve_record(self, case, total, apply_q_calls,
                                                     monkeypatch):
        # lambda_max_q is read after the curves, from their run's record alone,
        # and is bitwise lambda_max_Q on a fresh model; a run with no exact
        # curve steps its own run to the same value
        inside, real = [], cli.lambda_max_Q

        def counted(model):
            before = len(apply_q_calls)
            lam = real(model)
            inside.append(len(apply_q_calls) - before)
            return lam

        monkeypatch.setattr(cli, "lambda_max_Q", counted)
        cfg = self.workload_config(case)
        _, scalars = run_experiment(cfg)
        assert inside == [0]
        assert len(apply_q_calls) == total
        sys = cli._build_matrix(cfg["matrix"])
        fresh = lambda_max_Q(build_model(sys, row_norm_distribution(sys)))
        assert scalars["lambda_max_q"].hex() == fresh.hex()
        _, alone = run_experiment(dict(cfg, outputs=["empirical"], trials=2))
        assert inside[1] > 0
        assert alone["lambda_max_q"].hex() == fresh.hex()

    def test_lambda_steps_past_a_short_record(self, apply_q_calls):
        # the README config 1 system: lambda_max(Q) needs more blocks than
        # the curve's run made. The record keeps the curve's blocks, its own
        # run (from q_1: it keeps no vectors to resume from) appends the rest,
        # and every entry and the value are bitwise those of a fresh model
        sys = gen_gaussian(150, 50, 1.0, 1)
        model, fresh = (build_model(sys, row_norm_distribution(sys)) for _ in range(2))
        eta = np.random.default_rng(2).standard_normal(150)
        noise = FixedNoise(eta * (np.sqrt(1.6) / np.linalg.norm(eta)))
        exact_mse_curve(model, noise, rng_from(7, 0x5D).standard_normal(50) - sys.x_true, 2000)
        curve_record = list(model.lanczos_record)
        apply_q_calls.clear()
        want = lambda_max_Q(fresh)
        steps = len(apply_q_calls)
        apply_q_calls.clear()
        assert lambda_max_Q(model).hex() == want.hex()
        assert curve_record[-1][0] < steps == len(apply_q_calls)
        assert model.lanczos_record[:len(curve_record)] == curve_record
        assert model.lanczos_record == fresh.lanczos_record
        assert model.lanczos_record[-1][0] == steps

    def test_uncertified_after_a_curve(self, monkeypatch):
        # a record the curve's run wrote past the cap still does not certify,
        # and the error is the one a fresh model raises
        monkeypatch.setattr(lifted, "LANCZOS_MAX_STEPS", 20)
        sys = gen_tomography(5, 10, 5)
        model, fresh = (build_model(sys, row_norm_distribution(sys)) for _ in range(2))
        exact_mse_curve(model, IidNoise(2.25e-4), -sys.x_true, 600)
        assert len(model.lanczos_record) > 1
        with pytest.raises(SolverError, match="did not certify") as want:
            lambda_max_Q(fresh)
        with pytest.raises(SolverError, match="did not certify") as got:
            lambda_max_Q(model)
        assert str(got.value) == str(want.value)
        assert "in 16 steps" in str(got.value)

    @pytest.mark.parametrize("case", ["identity_4", "identity_8", "gaussian_5x2", "gaussian_6x3"])
    def test_early_breakdown(self, case):
        # runs whose beta (nearly) vanishes within their first block, where a
        # tiny beta steps on into a vector of rounding
        kind, shape = case.split("_")
        if kind == "identity":
            n = int(shape)
            model = build_model(gen_identity(n), uniform_distribution(n))
        else:
            sys = gen_gaussian(*map(int, shape.split("x")), 1.0, 5)
            model = build_model(sys, row_norm_distribution(sys))
        dense = dense_lift_oracle(model, FixedNoise(np.zeros(model.p.size)))
        assert abs(lambda_max_Q(model) - np.linalg.eigvalsh(dense.Q)[-1]) <= 1e-12


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
    @pytest.mark.parametrize("n", range(1, lifted.DENSE_ORACLE_MAX_N + 1))
    def test_dense_eig_oracle(self, n, seed, apply_q_calls):
        # a plain Lanczos run may take more than the n(n+1)/2 steps of the space
        model, noise, _ = random_model(n + 3, n, seed)
        dense = dense_lift_oracle(model, noise)
        assert lambda_max_P(model) == pytest.approx(
            np.linalg.eigvalsh(dense.P)[-1], abs=1e-9
        )
        lam = lambda_max_Q(model)
        assert lam >= 0.0
        assert lam == pytest.approx(np.linalg.eigvalsh(dense.Q)[-1], abs=1e-9)
        if n == 1:
            # Q = 0, so the first step's beta stops the run
            assert len(apply_q_calls) == 1

    def test_ordering(self):
        for seed in range(8):
            m = 4 + seed
            n = 2 + seed % 4
            model, _, _ = random_model(m, n, seed + 100)
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
        # O(n^2) floats: no Lanczos basis, which would be 60 MiB here
        lam_q, peak = traced_peak(lambda_max_Q, model)
        lam_p = lambda_max_P(model)
        assert np.isfinite(lam_q)
        assert 0.0 < lam_q <= lam_p < 1.0
        assert peak < 4 * 2**20

    def test_uncertified_run_fails_loudly(self, model, monkeypatch):
        # this system needs 40 steps
        monkeypatch.setattr(lifted, "LANCZOS_MAX_STEPS", 20)
        with pytest.raises(SolverError, match="did not certify"):
            lambda_max_Q(model)

    def test_zf_avg_floor(self, model):
        sigma2 = 2.25e-4
        n = model.a_tilde.shape[1]
        curve = zf_general_bound_curve(model, IidNoise(sigma2), np.zeros(n), 5)
        lam = np.linalg.eigvalsh(dense_p(model))[-1]
        floor = sigma2 * np.sum(model.p / model.row_norms**2) / (1.0 - lam)
        assert curve == pytest.approx(np.full(6, floor), rel=1e-12)


class TestDenseLiftOracle:
    def test_size_guard(self):
        sys = gen_gaussian(200, 14, 1.0, 42)
        model = build_model(sys, row_norm_distribution(sys))
        with pytest.raises(ValueError, match="n <= 12"):
            dense_lift_oracle(model, FixedNoise(np.zeros(200)))
