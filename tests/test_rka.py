import numpy as np
import pytest

from kaczlab import (
    FixedNoise,
    IidNoise,
    build_model,
    exact_mse_curve,
    gen_gaussian,
    gen_identity,
    limiting_mse,
    make_distribution,
    make_measurements,
    monte_carlo_mse,
    row_norm_distribution,
    uniform_distribution,
)
from kaczlab import lifted, rka
from kaczlab._num import sq_norm
from kaczlab.problems import LinearSystem
from kaczlab.rka import RowDistribution, _batched_errors, sample_rows

from conftest import random_instance, traced_peak, trial_noise_seed, trial_row_seed

MiB = 1 << 20
C = rka.STEP_CHUNK


def sample_row(dist, u):
    """Reference for sample_rows: the smallest i with cum[i] > u, for u in [0, 1)."""
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must be in [0, 1), got {u}")
    return int(np.searchsorted(dist.cum, u, side="right"))


def rka_step(x, a_i, norm_i, y_i):
    """Reference Kaczmarz step: project x onto the hyperplane {v : a_i^T v = y_i}."""
    if norm_i <= 0.0:
        raise ValueError("row norm must be positive")
    return x + ((y_i - a_i @ x) / norm_i**2) * a_i


class TestDistributions:
    def test_identity_uniform(self):
        dist = row_norm_distribution(gen_identity(3))
        assert np.allclose(dist.p, 1 / 3, rtol=0, atol=1e-15)

    def test_row_norm_weighting(self):
        sys = LinearSystem(np.diag([1.0, 2.0]), np.zeros(2))
        dist = row_norm_distribution(sys)
        assert dist.p == pytest.approx([0.2, 0.8])

    def test_sums_to_one(self):
        sys = gen_gaussian(150, 50, 1.0, 21)
        dist = row_norm_distribution(sys)
        assert abs(dist.p.sum() - 1.0) <= 1e-12
        assert dist.cum[-1] == 1.0

    def test_make_distribution(self):
        assert np.allclose(make_distribution([1, 1, 1, 1]).p, 0.25)
        assert make_distribution([2, 6]).p == pytest.approx([0.25, 0.75])

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError, match="> 0"):
            make_distribution([1.0, 0.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_distribution([1.0, np.inf])

    @pytest.mark.parametrize("weights", [[], [[1.0, 2.0]]], ids=["empty", "2d"])
    def test_rejects_non_vector_weights(self, weights):
        with pytest.raises(ValueError, match="^weights must be a non-empty 1-D vector$"):
            make_distribution(weights)

    @pytest.mark.parametrize("p", [[0.5, 0.5, 0.0], [1.5, -0.5]], ids=["zero", "negative"])
    def test_rejects_non_positive_p(self, p):
        with pytest.raises(ValueError, match="^all probabilities must be finite and > 0$"):
            RowDistribution(np.array(p))

    def test_rejects_p_not_summing_to_one(self):
        with pytest.raises(ValueError, match=r"^probabilities must sum to 1, got 1\.1$"):
            RowDistribution(np.array([0.5, 0.6]))

    def test_guide_build_peak(self):
        # m = 100,000: the guide's 2^19 entries take 4 MiB, and at the peak only
        # cum (0.19 of that) is held beside the guide and its read-only copy
        m = 100_000
        dist, peak = traced_peak(RowDistribution, np.full(m, 1.0 / m))
        g = dist.guide.size
        assert np.array_equal(dist.guide, np.searchsorted(dist.cum, np.arange(g) / g, side="right"))
        assert peak <= 2.25 * dist.guide.nbytes

    def test_weights_whose_sum_overflows(self):
        # finite weights: rescaled by the largest, with no overflow warning
        dist = make_distribution([1e308, 1e308, 1.0])
        assert dist.p.tolist() == [0.5, 0.5, 5e-309]
        assert dist.cum[-1] == 1.0


class TestSampleRow:
    def test_uniform_boundaries(self):
        dist = uniform_distribution(2)
        assert sample_row(dist, 0.49) == 0
        assert sample_row(dist, 0.51) == 1

    def test_skewed(self):
        dist = make_distribution([0.2, 0.8])
        assert sample_row(dist, 0.19999) == 0
        assert sample_row(dist, 0.2) == 1

    def test_rejects_out_of_range(self):
        dist = uniform_distribution(2)
        with pytest.raises(ValueError):
            sample_row(dist, 1.0)

    @pytest.mark.parametrize("weights", [
        [1.0], [1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0], [1e300, 1.0, 1.0, 1.0],
        [1.0, 1e-12, 1e-12, 1.0, 1e-12], np.ones(50),
        np.exp(5.0 * np.random.default_rng(3).standard_normal(60)),
        np.random.default_rng(4).random(1500) + 0.1,
    ])
    def test_guide_table_matches_searchsorted(self, weights):
        dist = make_distribution(weights)
        # every b / G for the powers of two G up to 8m, the table's G included,
        # and for G = 4m, where u G rounds: a table of 4m buckets would start
        # u = nextafter(0.1, 0) at row 5 of 50 equal rows, not at row 4
        g = 1 << (8 * dist.m).bit_length()
        marks = np.concatenate([dist.cum[:-1], np.arange(g) / g,
                                np.arange(4 * dist.m) / (4 * dist.m)])
        edges = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0),
        ])
        edges = edges[(edges >= 0.0) & (edges < 1.0)]
        got = sample_rows(dist, edges)
        assert got.dtype == np.int64
        assert got.tolist() == [sample_row(dist, x) for x in edges.tolist()]
        u = np.concatenate([edges, np.random.default_rng(5).random(100_000)])
        assert np.array_equal(sample_rows(dist, u),
                              np.searchsorted(dist.cum, u, side="right"))
        # a strided 2-D view, as monte_carlo_mse passes its uniforms
        grid = u[:99_000].reshape(330, 300).T
        assert np.array_equal(sample_rows(dist, grid),
                              np.searchsorted(dist.cum, grid, side="right"))

    def test_empirical_frequencies(self):
        # multinomial concentration: 4 sigma per bin over 1e6 draws
        dist = make_distribution([1.0, 2.0, 3.0, 4.0])
        draws = 1_000_000
        u = np.random.default_rng(123).random(draws)
        counts = np.bincount(sample_rows(dist, u), minlength=4)
        for i in range(4):
            sigma = np.sqrt(draws * dist.p[i] * (1 - dist.p[i]))
            assert abs(counts[i] - draws * dist.p[i]) <= 4 * sigma


class TestRkaStep:
    def test_idempotent_on_hyperplane(self):
        rng = np.random.default_rng(4)
        a_i = rng.standard_normal(5)
        x = rng.standard_normal(5)
        y_i = float(a_i @ x)  # already on the hyperplane
        x2 = rka_step(x, a_i, np.linalg.norm(a_i), y_i)
        assert np.allclose(x2, x, rtol=0, atol=1e-14)

    def test_scalar_solves_in_one_step(self):
        a_i = np.array([2.0])
        x_true, eta = 3.0, 0.5
        y = 2.0 * x_true + eta
        x1 = rka_step(np.array([-7.0]), a_i, 2.0, y)
        assert x1[0] == pytest.approx(x_true + eta / 2.0, rel=1e-15)

    def test_hyperplane_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a_i = rng.standard_normal(4)
            x = rng.standard_normal(4)
            y_i = rng.standard_normal()
            x2 = rka_step(x, a_i, np.linalg.norm(a_i), y_i)
            tol = 1e-12 * (abs(y_i) + np.linalg.norm(a_i) * np.linalg.norm(x))
            assert abs(a_i @ x2 - y_i) <= tol

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        a_i = rng.standard_normal(4)
        x = rng.standard_normal(4)
        y_i = rng.standard_normal()
        base = rka_step(x, a_i, np.linalg.norm(a_i), y_i)
        scaled = rka_step(x, 10 * a_i, np.linalg.norm(10 * a_i), 10 * y_i)
        assert np.allclose(scaled, base, rtol=1e-12)


def one_run(sys, noise, dist, x0, k_max, seed):
    """||x^(k) - x_true||^2 for k = 0..k_max of the one-run call."""
    return monte_carlo_mse(build_model(sys, dist), noise, x0 - sys.x_true, k_max,
                           trials=1, seed=seed).mse_mean


class TestRunTrial:
    """Single runs, through monte_carlo_mse(..., trials=1, seed)."""

    def test_fixed_point(self):
        sys = gen_gaussian(6, 3, 1.0, 8)
        dist = row_norm_distribution(sys)
        errs = one_run(sys, FixedNoise(np.zeros(6)), dist, sys.x_true, 50, seed=1)
        # z0 = 0 and eta~ = 0: every step adds an exact 0
        assert np.all(errs == 0.0)

    def test_identity_coordinate_zeroing(self):
        sys = gen_identity(3)
        x0 = np.ones(3)  # z0 = (1,1,1) since x_true = 0
        dist = uniform_distribution(3)
        errs = one_run(sys, FixedNoise(np.zeros(3)), dist, x0, 30, seed=2)
        assert np.all(np.diff(errs) <= 0.0)
        assert set(np.round(errs).astype(int)) <= {3, 2, 1, 0}
        assert np.allclose(errs, np.round(errs), atol=1e-12)

    def test_reproducible(self):
        sys, dist, eta, z0 = random_instance(8, 4, 3)
        x0 = sys.x_true + z0
        e1 = one_run(sys, FixedNoise(eta), dist, x0, 100, seed=77)
        e2 = one_run(sys, FixedNoise(eta), dist, x0, 100, seed=77)
        assert np.array_equal(e1, e2)

    def test_trajectory_scale_invariance(self):
        sys, dist, eta, z0 = random_instance(6, 3, 9)
        x0 = sys.x_true + z0
        base = one_run(sys, FixedNoise(eta), dist, x0, 200, seed=5)
        a2 = sys.a.copy()
        a2[2] *= 10.0
        eta2 = eta.copy()
        eta2[2] *= 10.0
        scaled = one_run(LinearSystem(a2, sys.x_true), FixedNoise(eta2), dist, x0, 200, seed=5)
        assert np.allclose(scaled, base, rtol=1e-12, atol=1e-14)

    def test_noiseless_monotone(self):
        sys, dist, _, z0 = random_instance(10, 4, 11)
        errs = one_run(sys, FixedNoise(np.zeros(10)), dist, sys.x_true + z0, 500, seed=3)
        # each step's rounding perturbs z by ~eps ||z||, so monotonicity holds
        # up to an additive term far below any meaningful error scale
        atol = 1e-18 * max(1.0, errs[0])
        assert np.all(errs[1:] <= errs[:-1] * (1 + 1e-15) + atol)

    def test_consistent_converges_inconsistent_floors(self):
        sys, dist, eta, z0 = random_instance(12, 4, 13)
        x0 = sys.x_true + z0
        clean = one_run(sys, FixedNoise(np.zeros(12)), dist, x0, 2000, seed=4)
        assert clean[-1] < 1e-12 * clean[0]
        noisy = one_run(sys, FixedNoise(eta), dist, x0, 2000, seed=4)
        floor = limiting_mse(build_model(sys, dist), FixedNoise(eta))
        tail = noisy[1500:].mean()
        assert tail > 100 * clean[-1]
        assert 0.1 * floor <= tail <= 10 * floor


def unit(m, seed):
    """A seeded random unit vector of length m."""
    v = np.random.default_rng(seed).standard_normal(m)
    return v / np.linalg.norm(v)


class TestMonteCarlo:
    def test_single_trial_is_one_kernel_run(self):
        # the run reads the lifted model's own a~ and eta~, and trial 0's rows
        sys, dist, eta, z0 = random_instance(7, 3, 15)
        model, noise = build_model(sys, dist), FixedNoise(eta)
        curve = monte_carlo_mse(model, noise, z0, 40, trials=1, seed=99)
        rng = np.random.default_rng(trial_row_seed(99, 0))
        rows = sample_rows(dist, rng.random(40))[:, None]
        direct = _errors(model.a_tilde, lifted._scaled_eta(model, noise), rows, z0)
        assert np.array_equal(curve.mse_mean, direct[:, 0])
        assert np.all(curve.mse_stderr == 0.0)

    def test_steps_the_models_own_rows(self, monkeypatch):
        # the simulation and the exact curve read one array of unit rows
        seen = []

        def spy(a_unit, *args):
            seen.append(a_unit)
            return _batched_errors(a_unit, *args)

        monkeypatch.setattr(rka, "_batched_errors", spy)
        sys, dist, eta, z0 = random_instance(7, 3, 15)
        model = build_model(sys, dist)
        for noise in (FixedNoise(eta), IidNoise(0.1)):
            monte_carlo_mse(model, noise, z0, 3 * C, trials=3, seed=2)
        assert len(seen) == 6 and all(a is model.a_tilde for a in seen)

    @pytest.mark.parametrize("noise", [FixedNoise(0.8 * unit(60, 4)), IidNoise(1e-2)],
                             ids=["fixed", "iid"])
    def test_does_not_depend_on_x_true(self, noise):
        # x_scale moves only x_true, which the model does not hold: from
        # x0 = x_true (z0 = 0) the runs are bitwise the same at every scale
        curves = []
        for x_scale in (1.0, 1e13):
            sys = gen_gaussian(60, 20, x_scale, 1)
            curves.append(monte_carlo_mse(build_model(sys, row_norm_distribution(sys)), noise,
                                          np.zeros(20), 300, trials=50, seed=3))
        assert np.array_equal(curves[0].mse_mean, curves[1].mse_mean)
        assert np.array_equal(curves[0].mse_stderr, curves[1].mse_stderr)

    def test_noiseless_at_solution(self):
        sys = gen_gaussian(6, 3, 1.0, 16)
        curve = monte_carlo_mse(
            build_model(sys, row_norm_distribution(sys)), FixedNoise(np.zeros(6)),
            np.zeros(3), 30, trials=20, seed=1,
        )
        assert np.all(curve.mse_mean <= 1e-28)
        assert np.all(curve.mse_stderr <= 1e-28)

    def test_identity_closed_form(self):
        sys = gen_identity(3)
        x0 = np.array([1.0, 1.0, 1.0])
        curve = monte_carlo_mse(
            build_model(sys, uniform_distribution(3)), FixedNoise(np.zeros(3)),
            x0 - sys.x_true, 10, trials=2000, seed=7,
        )
        for k in (1, 5, 10):
            expected = (2 / 3) ** k * 3.0
            assert abs(curve.mse_mean[k] - expected) <= 4 * curve.mse_stderr[k]

    def test_index0_exact(self):
        sys, dist, eta, z0 = random_instance(6, 3, 17)
        x0 = sys.x_true + z0
        d = x0 - sys.x_true
        curve = monte_carlo_mse(build_model(sys, dist), FixedNoise(eta), d, 5, trials=50, seed=3)
        assert curve.mse_mean[0] == float(np.dot(d, d))
        assert curve.mse_stderr[0] == 0.0

    def test_resample_false_shares_noise(self):
        sys, dist, _, z0 = random_instance(6, 3, 19)
        model = build_model(sys, dist)
        shared = shared_draw(sys, IidNoise(0.05), 11)
        fixed = monte_carlo_mse(model, shared, z0, 30, trials=8, seed=11)
        redrawn = monte_carlo_mse(model, IidNoise(0.05), z0, 30, trials=8, seed=11)
        assert not np.array_equal(fixed.mse_mean, redrawn.mse_mean)

    def test_rejects_bad_trials(self):
        sys, dist, eta, _ = random_instance(6, 3, 20)
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_mse(build_model(sys, dist), FixedNoise(eta), np.zeros(3), 5, 0, seed=1)

    @pytest.mark.parametrize("noise", [FixedNoise(np.zeros(6)), IidNoise(0.1)], ids=["fixed", "iid"])
    def test_rejects_negative_k_max(self, noise):
        sys, dist, _, _ = random_instance(6, 3, 20)
        model = build_model(sys, dist)
        for k_max in (-1, -3):
            with pytest.raises(ValueError, match=f"k_max must be >= 0, got {k_max}"):
                monte_carlo_mse(model, noise, np.zeros(3), k_max, 2, seed=1)

    def test_rejects_distribution_size_mismatch(self):
        # the runs sample the model's own p, so build_model's is the one check
        sys, _, eta, _ = random_instance(6, 3, 20)
        with pytest.raises(ValueError, match="rows"):
            monte_carlo_mse(build_model(sys, uniform_distribution(5)), FixedNoise(eta),
                            np.zeros(3), 5, 2, seed=1)


def shared_draw(sys, noise, seed):
    """FixedNoise of the draw of noise that every trial of seed shares."""
    return FixedNoise(make_measurements(sys, noise, rka.trial_noise_seed(seed))[1])


def one_shot_mse(sys, noise, dist, x0, k_max, trials, seed):
    """(mean, stderr) of monte_carlo_mse in one piece: every uniform drawn
    at once, then one kernel call over all k_max steps into a
    (k_max+1, trials) error table."""
    if isinstance(noise, FixedNoise):
        eta = noise.eta
    else:
        eta = np.stack([make_measurements(sys, noise, trial_noise_seed(seed, t))[1]
                        for t in range(trials)])
    u = np.empty((trials, k_max))
    for t in range(trials):
        np.random.default_rng(trial_row_seed(seed, t)).random(out=u[t])
    rows = sample_rows(dist, u)
    del u
    rows = np.ascontiguousarray(rows.T)
    a_unit, eta_unit = unit_rows(sys, eta)
    z0 = x0 - sys.x_true
    errs = np.empty((k_max + 1, trials))
    errs[0] = sq_norm(z0)
    _batched_errors(a_unit, eta_unit, rows, np.tile(z0, (trials, 1)), errs[1:])
    mean = errs.mean(axis=1)
    if trials > 1:
        stderr = errs.std(axis=1, ddof=1) / np.sqrt(trials)
    else:
        stderr = np.zeros(k_max + 1)
    mean[0] = sq_norm(z0)
    stderr[0] = 0.0
    return mean, stderr


def model_args(sys, noise, dist, x0, k_max, trials, seed):
    """monte_carlo_mse's arguments for one_shot_mse's."""
    return build_model(sys, dist), noise, x0 - sys.x_true, k_max, trials, seed


NOISES = {
    "fixed": lambda sys, eta, seed: FixedNoise(eta),
    "iid_shared": lambda sys, eta, seed: shared_draw(sys, IidNoise(0.04), seed),
    "iid_resampled": lambda sys, eta, seed: IidNoise(0.04),
}


def _streamed_and_one_shot(k_max, trials, noise_kind):
    sys, dist, eta, z0 = random_instance(30, 8, 23, noise_scale=0.2)
    args = (sys, NOISES[noise_kind](sys, eta, 31), dist, sys.x_true + z0, k_max, trials, 31)
    return monte_carlo_mse(*model_args(*args)), one_shot_mse(*args)


class TestTallSystem:
    def test_one_guide_table_and_the_exact_curve(self, monkeypatch):
        # 5,000 x 3 over nine chunks: the run builds its one guide table,
        # where a table per chunk would search the prefix sums nine times
        sys = gen_gaussian(5000, 3, 1.0, 51)
        model = build_model(sys, row_norm_distribution(sys))
        z0 = np.random.default_rng(52).standard_normal(3)
        noise, k_max = IidNoise(1e-2), 8 * C + 1
        calls = []
        searchsorted = np.searchsorted

        def counted(*args, **kwargs):
            calls.append(args)
            return searchsorted(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counted)
        curve = monte_carlo_mse(model, noise, z0, k_max, trials=30, seed=53)
        monkeypatch.undo()
        assert len(calls) <= 1
        exact = exact_mse_curve(model, noise, z0, k_max).values
        for k in (1, 10, 100, 1000):
            assert abs(curve.mse_mean[k] - exact[k]) <= 4 * curve.mse_stderr[k], k


class TestStreamedMonteCarlo:
    @pytest.mark.parametrize("noise_kind", sorted(NOISES))
    @pytest.mark.parametrize("trials", [1, 7, 40])
    @pytest.mark.parametrize("k_max", [0, 1, C - 1, C, C + 1, 2 * C, 2 * C + 1, 3 * C + 5])
    def test_bitwise_one_shot(self, k_max, trials, noise_kind):
        curve, (mean, stderr) = _streamed_and_one_shot(k_max, trials, noise_kind)
        assert curve.mse_mean.shape == (k_max + 1,)
        assert np.array_equal(curve.mse_mean, mean)
        assert np.array_equal(curve.mse_stderr, stderr)

    @pytest.mark.parametrize("noise_kind", sorted(NOISES))
    @pytest.mark.parametrize("chunk", [1, 3, 3 * C + 6])
    def test_chunk_size_does_not_change_the_curve(self, monkeypatch, chunk, noise_kind):
        monkeypatch.setattr(rka, "STEP_CHUNK", chunk)
        for k_max in (0, 1, 2, 7, 3 * C + 5):
            curve, (mean, stderr) = _streamed_and_one_shot(k_max, 7, noise_kind)
            assert np.array_equal(curve.mse_mean, mean)
            assert np.array_equal(curve.mse_stderr, stderr)


class TestMonteCarloMemory:
    def _args(self, k_max, trials):
        sys = gen_gaussian(60, 20, 1.0, 41)
        x0 = np.random.default_rng(42).standard_normal(20)
        noise = shared_draw(sys, IidNoise(1e-3), 43)
        return (sys, noise, row_norm_distribution(sys), x0, k_max, trials, 43)

    def test_peak_does_not_grow_with_k_max(self):
        # one-shot, 256 trials x 4096 steps hold ~25 MiB of uniforms, rows,
        # noise and errors; streamed, only one chunk of them is alive
        _, peak = traced_peak(monte_carlo_mse, *model_args(*self._args(4096, 256)))
        assert peak <= 4 * MiB

    @pytest.mark.parametrize("k_max", [4, 128, 300])
    def test_peak_at_most_one_shot_plus_a_stream_per_trial(self, k_max):
        # the streams kept live between chunks cost about 1 KiB per trial
        trials = 4096
        (mean, stderr), ref_peak = traced_peak(one_shot_mse, *self._args(k_max, trials))
        curve, peak = traced_peak(monte_carlo_mse, *model_args(*self._args(k_max, trials)))
        assert peak <= ref_peak + 1024 * trials
        if k_max <= 2 * C:
            # one chunk: no stream outlives its draw, no array its use
            assert peak <= ref_peak + 64 * 1024
        assert np.array_equal(curve.mse_mean, mean)
        assert np.array_equal(curve.mse_stderr, stderr)

    def test_resampled_noise_held_once(self):
        # resampled noise is one (trials, m) array of eta~, filled draw by
        # draw; a stack of the draws beside it takes the peak to about 2.2x.
        # The rest of the peak is the guide table's build, about 0.16x here
        # and twice that at 50 trials
        m, trials = 20_000, 100
        sys = gen_gaussian(m, 4, 1.0, 44)
        args = (sys, IidNoise(1e-2), row_norm_distribution(sys), np.zeros(4), 4, trials, 45)
        curve, peak = traced_peak(monte_carlo_mse, *model_args(*args))
        assert peak <= 1.3 * trials * m * np.dtype(float).itemsize
        mean, stderr = one_shot_mse(*args)
        assert np.array_equal(curve.mse_mean, mean)
        assert np.array_equal(curve.mse_stderr, stderr)


# the batched kernel behind monte_carlo_mse, against a loop of rka_step

K_MAX = 2000


def unit_rows(sys_, eta):
    """(a~, eta~) of _batched_errors for noise eta of shape (m,) or (trials, m)."""
    norms = sys_.row_norms
    return sys_.a / norms[:, None], eta / norms


def _trial_inputs(seed, m=12, n=5, trials=1):
    """Noise, measurements, unit rows, scaled noise, per-trial rows and z0
    of a seeded instance."""
    sys_, dist, eta, z0 = random_instance(m, n, seed, noise_scale=0.2)
    y, _ = make_measurements(sys_, FixedNoise(eta))
    rng = np.random.default_rng(seed)
    rows = sample_rows(dist, rng.random((K_MAX, trials)))
    a_unit, eta_unit = unit_rows(sys_, eta)
    return sys_, eta, y, a_unit, eta_unit, rows, z0


def _errors(a_unit, eta_unit, rows, z0):
    """(k_max+1, trials) squared errors of the runs of rows, all from z0."""
    errs = np.empty((rows.shape[0] + 1, rows.shape[1]))
    errs[0] = z0 @ z0
    _batched_errors(a_unit, eta_unit, rows, np.tile(z0, (rows.shape[1], 1)), errs[1:])
    return errs


def _reference_errors(sys_, y, rows, z0):
    """||x^(k) - x_true||^2 of one run by a loop of rka_step."""
    x = sys_.x_true + z0
    errs = [float((x - sys_.x_true) @ (x - sys_.x_true))]
    for i in rows:
        x = rka_step(x, sys_.a[i], sys_.row_norms[i], y[i])
        d = x - sys_.x_true
        errs.append(float(d @ d))
    return np.array(errs)


def test_kernel_deterministic():
    _, _, _, a_unit, eta_unit, rows, z0 = _trial_inputs(7, trials=4)
    e1 = _errors(a_unit, eta_unit, rows, z0)
    e2 = _errors(a_unit, eta_unit, rows, z0)
    assert np.array_equal(e1, e2)


def test_matches_rka_step_shared_noise():
    # the kernel steps in error space with unit rows, the reference in x
    # space; on a contractive iteration the trajectories stay together to
    # ~1e-12 relative
    for seed in range(3):
        sys_, _, y, a_unit, eta_unit, rows, z0 = _trial_inputs(seed, trials=3)
        errs = _errors(a_unit, eta_unit, rows, z0)
        for t in range(rows.shape[1]):
            ref = _reference_errors(sys_, y, rows[:, t], z0)
            scale = max(ref.max(), 1.0)
            assert np.allclose(errs[:, t], ref, rtol=1e-9, atol=1e-12 * scale)


def test_matches_rka_step_noise_per_trial():
    for seed in range(3):
        sys_, eta, y, a_unit, _, rows, z0 = _trial_inputs(seed, trials=3)
        noise = np.random.default_rng(100 + seed).standard_normal((3, y.size)) * 0.2
        ys = y + noise
        _, eta_trials = unit_rows(sys_, eta + noise)
        errs = _errors(a_unit, eta_trials, rows, z0)
        for t in range(rows.shape[1]):
            ref = _reference_errors(sys_, ys[t], rows[:, t], z0)
            scale = max(ref.max(), 1.0)
            assert np.allclose(errs[:, t], ref, rtol=1e-9, atol=1e-12 * scale)


@pytest.mark.parametrize("m, n", [(12, 5), (60, 20), (150, 50)])
def test_batch_column_equals_single_run(m, n):
    sys_, eta, _, a_unit, eta_unit, rows, z0 = _trial_inputs(11, m, n, trials=9)
    rows = rows[:300]
    _, eta_trials = unit_rows(sys_, eta + np.random.default_rng(5).standard_normal((9, m)) * 0.2)
    for eta in (eta_unit, eta_trials):
        batch = _errors(a_unit, eta, rows, z0)
        for t in range(rows.shape[1]):
            one = eta if eta.ndim == 1 else eta[t:t + 1]
            single = _errors(a_unit, one, rows[:, t:t + 1], z0)
            assert np.array_equal(batch[:, t], single[:, 0])
