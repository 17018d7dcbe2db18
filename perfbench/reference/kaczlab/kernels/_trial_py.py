"""Pure-numpy fallback for the per-iteration Kaczmarz trial loop."""

import numpy as np


def run_trial_errors(a, y, inv_norms_sq, rows, x0, x_true):
    """Squared-error trajectory of one Kaczmarz run over a fixed row sequence.

    Args:
        a: (m, n) measurement matrix.
        y: length-m measurements.
        inv_norms_sq: 1 / ||a_i||^2 per row.
        rows: int64 row index per iteration (length k_max).
        x0, x_true: start iterate and ground truth.

    Returns:
        errs: length k_max+1, errs[k] = ||x^(k) - x_true||^2.
    """
    k_max = rows.shape[0]
    errs = np.empty(k_max + 1)
    x = np.array(x0, dtype=float)
    d = x - x_true
    errs[0] = d @ d
    for t in range(k_max):
        i = rows[t]
        ai = a[i]
        x += ((y[i] - ai @ x) * inv_norms_sq[i]) * ai
        d = x - x_true
        errs[t + 1] = d @ d
    return errs
