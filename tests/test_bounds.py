import json
import os

import numpy as np
import pytest

from kaczlab import (
    FixedNoise,
    IidNoise,
    build_model,
    exact_mse_curve,
    gen_identity,
    gen_tomography,
    lambda_max_P,
    limiting_mse,
    load_system,
    row_norm_distribution,
    uniform_distribution,
    zf_general_bound_curve,
)
from kaczlab.problems import LinearSystem

from conftest import random_instance


class TestConditionNumbers:
    def test_identity(self):
        sys = gen_identity(4)
        assert sys.sigma_min == pytest.approx(1.0, rel=1e-12)
        assert sys.kappa == pytest.approx(2.0, rel=1e-12)
        model = build_model(sys, uniform_distribution(4))
        assert lambda_max_P(model) == pytest.approx(0.75, rel=1e-10)

    def test_diagonal(self):
        sys = LinearSystem(np.diag([1.0, 2.0]), np.zeros(2))
        assert sys.sigma_min == pytest.approx(1.0, rel=1e-12)
        assert sys.kappa == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_fixture_manifest(self, fixture_dir):
        sys = load_system(os.path.join(fixture_dir, "gaussian_150x50.txt"))
        with open(os.path.join(fixture_dir, "gaussian_150x50.manifest.json")) as fh:
            manifest = json.load(fh)
        assert sys.sigma_min == pytest.approx(manifest["sigma_min"], abs=1e-9)

    def test_kappa_lower_bound(self):
        for seed in range(5):
            sys, dist, _, _ = random_instance(10 + seed, 3 + seed, seed)
            n = sys.a.shape[1]
            assert sys.kappa >= np.sqrt(n) * (1 - 1e-12)
            assert 0.0 < lambda_max_P(build_model(sys, dist)) < 1.0


def row_norm_model(sys):
    return build_model(sys, row_norm_distribution(sys))


class TestSvBound:
    """The Strohmer-Vershynin bound: the general bound's row-norm, zero-noise case."""

    def test_k0(self):
        sys, _, _, z0 = random_instance(6, 3, 1)
        curve = zf_general_bound_curve(row_norm_model(sys), IidNoise(0.0), z0, 10)
        assert curve[0] == float(np.dot(z0, z0))

    def test_identity_tight(self):
        n = 4
        model = row_norm_model(gen_identity(n))
        z0 = np.array([1.0, -2.0, 0.5, 3.0])
        k_max = 40
        bound = zf_general_bound_curve(model, IidNoise(0.0), z0, k_max)
        want = float(z0 @ z0) * (1 - 1 / n) ** np.arange(k_max + 1)
        assert np.allclose(bound, want, rtol=1e-12)
        exact = exact_mse_curve(model, FixedNoise(np.zeros(n)), z0, k_max)
        assert np.allclose(exact.values, want, rtol=1e-12)

    def test_dominates_noiseless_exact(self):
        for seed in range(4):
            sys, _, _, z0 = random_instance(10, 4, seed + 10)
            model = row_norm_model(sys)  # the classical bound is stated for this p
            bound = zf_general_bound_curve(model, IidNoise(0.0), z0, 80)
            exact = exact_mse_curve(model, IidNoise(0.0), z0, 80)
            assert np.all(bound >= exact.values - 1e-12 * exact.values[0])


class TestZfBound:
    """The Zouzias-Freris bound: the general bound's row-norm case for a FixedNoise."""

    def test_reduces_to_sv_without_noise(self):
        sys, _, _, z0 = random_instance(8, 3, 20)
        model = row_norm_model(sys)
        zf = zf_general_bound_curve(model, FixedNoise(np.zeros(8)), z0, 30)
        sv = zf_general_bound_curve(model, IidNoise(0.0), z0, 30)
        assert np.array_equal(zf, sv)

    def test_floor(self):
        sys, _, eta, z0 = random_instance(8, 3, 21)
        zf = zf_general_bound_curve(row_norm_model(sys), FixedNoise(eta), z0, 5000)
        want_floor = float(eta @ eta) / sys.sigma_min**2
        assert zf[-1] == pytest.approx(want_floor, rel=1e-9)

    def test_dominates_exact(self):
        for seed in range(4):
            sys, _, eta, z0 = random_instance(12, 4, seed + 30)
            model, noise = row_norm_model(sys), FixedNoise(eta)
            zf = zf_general_bound_curve(model, noise, z0, 100)
            exact = exact_mse_curve(model, noise, z0, 100)
            assert np.all(zf >= exact.values - 1e-12 * exact.values[0])


class TestZfGeneralBound:
    def test_noiseless_geometric(self):
        sys, dist, _, z0 = random_instance(8, 3, 40)
        model = build_model(sys, dist)
        lam = lambda_max_P(model)
        curve = zf_general_bound_curve(model, FixedNoise(np.zeros(8)), z0, 20)
        want = float(z0 @ z0) * lam ** np.arange(21)
        assert np.allclose(curve, want, rtol=1e-12)

    def test_scalar_tight(self):
        from kaczlab import gen_gaussian

        sys = gen_gaussian(3, 1, 1.0, 41)
        dist = row_norm_distribution(sys)
        eta = np.random.default_rng(42).standard_normal(3)
        model, noise = build_model(sys, dist), FixedNoise(eta)
        curve = zf_general_bound_curve(model, noise, np.array([2.0]), 10)
        floor = limiting_mse(model, noise)
        assert curve[-1] == pytest.approx(floor, rel=1e-12)
        assert np.allclose(curve[1:], floor, rtol=1e-12)

    def test_dominates_exact_any_distribution(self):
        for seed in range(4):
            sys, dist, eta, z0 = random_instance(10, 4, seed + 50)
            model, noise = build_model(sys, dist), FixedNoise(eta)  # dist is non-norm-proportional
            curve = zf_general_bound_curve(model, noise, z0, 150)
            exact = exact_mse_curve(model, noise, z0, 150)
            assert np.all(curve >= exact.values - 1e-12 * exact.values[0])


class TestZfAvgBound:
    """zf_general_bound_curve averaged over an IidNoise."""

    def test_sigma_zero(self):
        sys, dist, _, z0 = random_instance(8, 3, 60)
        model = build_model(sys, dist)
        curve = zf_general_bound_curve(model, IidNoise(0.0), z0, 20)
        noiseless = zf_general_bound_curve(model, FixedNoise(np.zeros(8)), z0, 20)
        assert np.allclose(curve, noiseless, rtol=1e-12)

    def test_scalar_floor_equals_avg_limiting(self):
        from kaczlab import gen_gaussian

        sys = gen_gaussian(4, 1, 1.0, 61)
        dist = row_norm_distribution(sys)
        model, noise = build_model(sys, dist), IidNoise(0.04)
        curve = zf_general_bound_curve(model, noise, np.array([1.0]), 10)
        assert curve[-1] == pytest.approx(limiting_mse(model, noise), rel=1e-12)

    def test_dominates_avg_curve(self):
        sys, dist, _, z0 = random_instance(12, 4, 62)
        model, noise = build_model(sys, dist), IidNoise(1e-3)
        bound = zf_general_bound_curve(model, noise, z0, 200)
        exact = exact_mse_curve(model, noise, z0, 200)
        assert np.all(bound >= exact.values - 1e-12 * exact.values[0])

    def test_small_tomography_ratio(self):
        sys = gen_tomography(4, 6, 5)
        dist = row_norm_distribution(sys)
        model, noise = build_model(sys, dist), IidNoise(2.25e-4)
        z0 = -sys.x_true
        bound = zf_general_bound_curve(model, noise, z0, 10)
        floor = limiting_mse(model, noise)
        assert bound[-1] / floor >= 1.0


class TestRowNormBoundsAgree:
    """With p_i ~ ||a_i||^2, P = I - A^T A / ||A||_F^2: lambda_max(P) = 1 - kappa^-2
    and tr(e) / (1 - lambda_max(P)) = ||eta||^2 / sigma_min^2, so the classical
    bounds, written here from kappa and sigma_min (eigvalsh(A^T A)), are the
    p-general one, built from eigh(P)."""

    @pytest.mark.parametrize("m,n,seed", [(60, 20, 0), (150, 50, 1), (24, 8, 3)])
    def test_classical_equal_general(self, m, n, seed):
        from kaczlab import gen_gaussian

        sys = gen_gaussian(m, n, 1.0, seed)
        dist = row_norm_distribution(sys)
        rng = np.random.default_rng(seed + 70)
        eta, z0 = 0.1 * rng.standard_normal(m), rng.standard_normal(n)
        k_max = 500
        model, noise = build_model(sys, dist), FixedNoise(eta)
        sv = float(z0 @ z0) * (1.0 - sys.kappa**-2) ** np.arange(k_max + 1)
        zf = sv + float(eta @ eta) / sys.sigma_min**2
        general = zf_general_bound_curve(model, noise, z0, k_max)
        assert np.allclose(zf, general, rtol=1e-12, atol=0)
        noise_free = zf_general_bound_curve(model, IidNoise(0.0), z0, k_max)
        assert np.allclose(sv, noise_free, rtol=1e-12, atol=0)


class TestArguments:
    def test_negative_k_max(self):
        sys, dist, eta, z0 = random_instance(8, 3, 80)
        model = build_model(sys, dist)
        for noise in (FixedNoise(eta), IidNoise(0.1), IidNoise(0.0)):
            with pytest.raises(ValueError, match="k_max must be >= 0, got -1"):
                zf_general_bound_curve(model, noise, z0, -1)
