"""Integer arguments (horizons, trial counts) are checked the same way by
every entry point that takes one."""

import numpy as np
import pytest

from kaczlab import (
    FixedNoise,
    build_model,
    exact_mse_at,
    exact_mse_curve,
    monte_carlo_mse,
    sv_bound_curve,
    zf_bound_curve,
    zf_general_bound_curve,
)

from conftest import random_instance


def entry_points():
    """{name: (one-argument call, argument name, its minimum)}."""
    sys, dist, eta, z0 = random_instance(8, 3, 90)
    model, noise, x0 = build_model(sys, dist), FixedNoise(eta), sys.x_true + z0
    return {
        "sv_bound_curve": (lambda k: sv_bound_curve(sys, z0, k), "k_max", 0),
        "zf_bound_curve": (lambda k: zf_bound_curve(sys, noise, z0, k), "k_max", 0),
        "zf_general_bound_curve": (lambda k: zf_general_bound_curve(model, noise, z0, k),
                                   "k_max", 0),
        "exact_mse_curve": (lambda k: exact_mse_curve(model, noise, z0, k).values, "k_max", 0),
        "exact_mse_at": (lambda k: exact_mse_at(model, noise, z0, k), "k", 0),
        "monte_carlo_mse.k_max": (
            lambda k: monte_carlo_mse(sys, noise, dist, x0, k, 2, seed=1).mse_mean, "k_max", 0),
        "monte_carlo_mse.trials": (
            lambda t: monte_carlo_mse(sys, noise, dist, x0, 4, t, seed=1).mse_mean, "trials", 1),
    }


ENTRY_POINTS = list(entry_points())


@pytest.mark.parametrize("value", [3.5, True, -1], ids=["float", "bool", "negative"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_integer_argument(entry, value):
    call, name, minimum = entry_points()[entry]
    if value == -1:
        with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}, got -1$"):
            call(value)
    else:
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
            call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integer_accepted(entry):
    call, _, _ = entry_points()[entry]
    assert np.array_equal(call(np.int64(3)), call(3))
