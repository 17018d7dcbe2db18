"""Integer arguments (horizons, trial counts, seeds), vector arguments (z0),
row distributions and noise specs are each checked the same way by
every entry point that takes one, and every value object keeps its arrays the
same way."""

import dataclasses
import re

import numpy as np
import pytest

from kaczlab import (
    FixedNoise,
    IidNoise,
    LiftedModel,
    LinearSystem,
    RowDistribution,
    apply_D,
    build_model,
    exact_mse_at,
    exact_mse_curve,
    gen_gaussian,
    gen_identity,
    gen_tomography,
    make_distribution,
    make_measurements,
    monte_carlo_mse,
    uniform_distribution,
    zf_general_bound_curve,
)
from kaczlab.problems import draw_eta
from kaczlab.seeding import rng_from

from conftest import random_instance


def entry_points():
    """{name: (one-argument call, argument name, its minimum or None for any int)}."""
    sys, dist, eta, z0 = random_instance(8, 3, 90)
    model, noise = build_model(sys, dist), FixedNoise(eta)
    iid = IidNoise(0.1)
    return {
        "gen_gaussian.seed": (lambda s: gen_gaussian(8, 3, seed=s).a, "seed", None),
        "gen_gaussian.m": (lambda k: gen_gaussian(k, 3).a, "m", 1),
        "gen_gaussian.n": (lambda k: gen_gaussian(8, k).a, "n", 1),
        "gen_tomography.grid": (lambda k: gen_tomography(k, 6, 5).a, "grid", 1),
        "gen_tomography.num_angles": (lambda k: gen_tomography(3, k, 5).a, "num_angles", 1),
        "gen_tomography.rays_per_angle": (lambda k: gen_tomography(3, 6, k).a,
                                          "rays_per_angle", 1),
        "gen_identity": (lambda k: gen_identity(k).a, "n", 1),
        "make_measurements.seed": (lambda s: make_measurements(sys, iid, seed=s)[0], "seed", None),
        "monte_carlo_mse.seed": (
            lambda s: monte_carlo_mse(model, iid, z0, 4, 2, seed=s).mse_mean, "seed", None),
        "rng_from.seed": (lambda s: rng_from(s, 1).random(4), "seed", None),
        "zf_general_bound_curve": (lambda k: zf_general_bound_curve(model, noise, z0, k),
                                   "k_max", 0),
        "zf_general_bound_curve.noise_free": (
            lambda k: zf_general_bound_curve(model, IidNoise(0.0), z0, k), "k_max", 0),
        "exact_mse_curve": (lambda k: exact_mse_curve(model, noise, z0, k).values, "k_max", 0),
        "exact_mse_at": (lambda k: exact_mse_at(model, noise, z0, k), "k", 0),
        "monte_carlo_mse.k_max": (
            lambda k: monte_carlo_mse(model, noise, z0, k, 2, seed=1).mse_mean, "k_max", 0),
        "monte_carlo_mse.trials": (
            lambda t: monte_carlo_mse(model, noise, z0, 4, t, seed=1).mse_mean, "trials", 1),
    }


ENTRY_POINTS = list(entry_points())


@pytest.mark.parametrize("value", [3.5, True, -1], ids=["float", "bool", "negative"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_integer_argument(entry, value):
    call, name, minimum = entry_points()[entry]
    if value == -1 and minimum is None:   # any int: -1 keeps its two's-complement stream
        assert call(value).tobytes() == call(2**64 - 1).tobytes()
    elif value == -1:
        with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}, got -1$"):
            call(value)
    else:
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
            call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integer_accepted(entry):
    call, _, _ = entry_points()[entry]
    assert np.asarray(call(np.int64(3))).tobytes() == np.asarray(call(3)).tobytes()


def vector_entry_points():
    """{name: (call with the vector replaced, argument name, its length)}; the
    .singular calls are on a model whose I - P is singular, so that a solve
    made before the check would raise SolverError instead."""
    sys, dist, eta, _ = random_instance(8, 3, 91)
    model, noise = build_model(sys, dist), FixedNoise(eta)
    singular = build_model(gen_gaussian(4, 2, seed=2), make_distribution([1e300, 1, 1, 1]))
    noise4 = FixedNoise(np.full(4, 0.1))
    return {
        "exact_mse_curve": (lambda v: exact_mse_curve(model, noise, v, 4), "z0", 3),
        "exact_mse_at": (lambda v: exact_mse_at(model, noise, v, 4), "z0", 3),
        "zf_general_bound_curve": (lambda v: zf_general_bound_curve(model, noise, v, 4),
                                   "z0", 3),
        "zf_general_bound_curve.noise_free": (
            lambda v: zf_general_bound_curve(model, IidNoise(0.0), v, 4), "z0", 3),
        "monte_carlo_mse": (lambda v: monte_carlo_mse(model, noise, v, 4, 2, seed=1), "z0", 3),
        "exact_mse_curve.singular": (lambda v: exact_mse_curve(singular, noise4, v, 4), "z0", 2),
        "zf_general_bound_curve.singular": (
            lambda v: zf_general_bound_curve(singular, noise4, v, 4), "z0", 2),
        "monte_carlo_mse.singular": (
            lambda v: monte_carlo_mse(singular, noise4, v, 4, 2, seed=1), "z0", 2),
    }


@pytest.mark.parametrize("bad", ["length", "nan", "inf"])
@pytest.mark.parametrize("entry", list(vector_entry_points()))
def test_bad_vector_argument(entry, bad):
    call, name, length = vector_entry_points()[entry]
    if bad == "length":
        vec, message = np.zeros(length + 1), f"{name} must have length {length}, got ({length + 1},)"
    else:
        vec, message = np.ones(length), f"{name} must be finite"
        vec[-1] = float(bad)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(vec)


def distribution_readers():
    """{name: call on a row distribution}, each on a system of 8 rows."""
    sys, _, _, _ = random_instance(8, 3, 93)
    return {
        "build_model": lambda dist: build_model(sys, dist),
    }


@pytest.mark.parametrize("entry", list(distribution_readers()))
def test_distribution_of_wrong_length(entry):
    call = distribution_readers()[entry]
    with pytest.raises(ValueError, match=r"^dist has 7 rows, the system 8$"):
        call(uniform_distribution(7))
    call(uniform_distribution(8))


def noise_readers():
    """{name: call on a noise spec}, each reading a FixedNoise's vector on 8 rows."""
    sys, dist, _, z0 = random_instance(8, 3, 92)
    model = build_model(sys, dist)
    return {
        "draw_eta": lambda noise: draw_eta(noise, 8),
        "make_measurements": lambda noise: make_measurements(sys, noise),
        "monte_carlo_mse": lambda noise: monte_carlo_mse(model, noise, z0, 4, 2, seed=1),
        "exact_mse_curve": lambda noise: exact_mse_curve(model, noise, z0, 4),
        "zf_general_bound_curve": lambda noise: zf_general_bound_curve(model, noise, z0, 4),
        "apply_D": lambda noise: apply_D(model, noise, z0),
    }


@pytest.mark.parametrize("entry", list(noise_readers()))
def test_bad_noise_spec(entry):
    call = noise_readers()[entry]
    with pytest.raises(ValueError, match=r"^eta must have length 8, got \(7,\)$"):
        call(FixedNoise(np.zeros(7)))
    for bad in (np.zeros(8), 0.1, None):
        with pytest.raises(TypeError, match=f"^{re.escape(f'unsupported noise spec: {bad!r}')}$"):
            call(bad)


def value_objects():
    """{name: (constructor, its array arguments, the arrays it stores)}, every
    argument the caller's own writable array."""
    sys, dist, _, _ = random_instance(8, 3, 94)
    a_tilde = sys.a / sys.row_norms[:, None]
    model_fields = ["a_tilde", "p", "row_norms", "p_rows", "p_eigvals", "p_eigvecs",
                    "q_table[0]", "q_table[1]", "q_table[2]"]
    return {
        "LinearSystem": (LinearSystem, [sys.a.copy(), sys.x_true.copy()],
                         ["a", "x_true", "row_norms"]),
        "RowDistribution": (RowDistribution, [dist.p.copy()], ["p", "cum", "guide"]),
        "LiftedModel": (LiftedModel, [a_tilde, dist.p.copy(), sys.row_norms.copy()],
                        model_fields),
        "FixedNoise": (FixedNoise, [np.arange(8.0)], ["eta"]),
    }


def array_fields(obj):
    """{field name, with [i] for a tuple's entries: array} of every array obj stores."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, tuple):
            out.update({f"{f.name}[{i}]": v for i, v in enumerate(value)})
        elif isinstance(value, np.ndarray):
            out[f.name] = value
    return out


@pytest.mark.parametrize("name", list(value_objects()))
def test_value_object_keeps_own_read_only_copies(name):
    make, args, names = value_objects()[name]
    obj = make(*args)
    stored = {k: v.copy() for k, v in array_fields(obj).items()}
    assert sorted(stored) == sorted(names)
    assert [k for k, v in array_fields(obj).items() if v.flags.writeable] == []
    for arr in args:
        assert arr.flags.writeable
        arr[...] = 0.5
    for key, value in array_fields(obj).items():
        assert np.array_equal(value, stored[key]), key
