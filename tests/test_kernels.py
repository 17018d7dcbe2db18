import numpy as np
import pytest

from kaczlab import FixedNoise, make_measurements, rka_step
from kaczlab.rka import _batched_errors, _unit_rows, sample_rows

from conftest import random_instance

K_MAX = 2000


def _trial_inputs(seed, m=12, n=5, trials=1):
    """Unit rows, scaled noise, per-trial rows and z0 of a seeded instance."""
    sys_, dist, eta, z0 = random_instance(m, n, seed, noise_scale=0.2)
    y, _ = make_measurements(sys_, FixedNoise(eta))
    rng = np.random.default_rng(seed)
    rows = sample_rows(dist, rng.random((K_MAX, trials)))
    a_unit, eta_unit = _unit_rows(sys_, y)
    return sys_, y, a_unit, eta_unit, rows, z0


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


def test_python_kernel_deterministic():
    _, _, a_unit, eta_unit, rows, z0 = _trial_inputs(7, trials=4)
    e1 = _errors(a_unit, eta_unit, rows, z0)
    e2 = _errors(a_unit, eta_unit, rows, z0)
    assert np.array_equal(e1, e2)


def test_matches_rka_step_shared_noise():
    # the kernel steps in error space with unit rows, the reference in x
    # space; on a contractive iteration the trajectories stay together to
    # ~1e-12 relative
    for seed in range(3):
        sys_, y, a_unit, eta_unit, rows, z0 = _trial_inputs(seed, trials=3)
        errs = _errors(a_unit, eta_unit, rows, z0)
        for t in range(rows.shape[1]):
            ref = _reference_errors(sys_, y, rows[:, t], z0)
            scale = max(ref.max(), 1.0)
            assert np.allclose(errs[:, t], ref, rtol=1e-9, atol=1e-12 * scale)


def test_matches_rka_step_noise_per_trial():
    for seed in range(3):
        sys_, y, a_unit, eta_unit, rows, z0 = _trial_inputs(seed, trials=3)
        noise = np.random.default_rng(100 + seed).standard_normal((3, y.size)) * 0.2
        ys = y + noise
        _, eta_trials = _unit_rows(sys_, ys)
        errs = _errors(a_unit, eta_trials, rows, z0)
        for t in range(rows.shape[1]):
            ref = _reference_errors(sys_, ys[t], rows[:, t], z0)
            scale = max(ref.max(), 1.0)
            assert np.allclose(errs[:, t], ref, rtol=1e-9, atol=1e-12 * scale)


@pytest.mark.parametrize("m, n", [(12, 5), (60, 20), (150, 50)])
def test_batch_column_equals_single_run(m, n):
    sys_, y, a_unit, eta_unit, rows, z0 = _trial_inputs(11, m, n, trials=9)
    rows = rows[:300]
    ys = y + np.random.default_rng(5).standard_normal((9, m)) * 0.2
    _, eta_trials = _unit_rows(sys_, ys)
    for eta in (eta_unit, eta_trials):
        batch = _errors(a_unit, eta, rows, z0)
        for t in range(rows.shape[1]):
            one = eta if eta.ndim == 1 else eta[t:t + 1]
            single = _errors(a_unit, one, rows[:, t:t + 1], z0)
            assert np.array_equal(batch[:, t], single[:, 0])
