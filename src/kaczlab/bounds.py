"""Classical upper-bound curves on the randomized Kaczmarz MSE."""

import numpy as np

from ._num import sq_norm
from .lifted import i_minus_p_eigvals, lambda_max_P, vec_e


def _geometric_curve(z0, rate, k_max, floor=0.0):
    """||z0||^2 rate^k + floor for k = 0..k_max, the shape of every bound here."""
    return sq_norm(np.asarray(z0, dtype=float)) * rate ** np.arange(k_max + 1) + floor


def sv_bound_curve(sys, z0, k_max):
    """Geometric bound (1 - kappa^-2)^k ||z0||^2 for consistent systems.

    Stated for row-norm-proportional selection probabilities.
    """
    return _geometric_curve(z0, 1.0 - sys.kappa**-2, k_max)


def zf_bound_curve(sys, z0, eta, k_max):
    """The noisy refinement: geometric term plus ||eta||^2 / sigma_min^2."""
    floor = sq_norm(np.asarray(eta, dtype=float)) / sys.sigma_min**2
    return _geometric_curve(z0, 1.0 - sys.kappa**-2, k_max, floor)


def zf_general_bound_curve(model, z0, k_max):
    """The p-general bound lambda_max(P)^k ||z0||^2 + tr(e) / (1 - lambda_max(P)).

    Valid for arbitrary positive selection probabilities; tr(e) is
    sum_i p_i eta~_i^2. A noise-free model's floor is 0, and its gap
    1 - lambda_max(P) is not read.
    """
    floor = 0.0
    if model.has_noise:
        floor = float(np.trace(vec_e(model))) / i_minus_p_eigvals(model)[-1]
    return _geometric_curve(z0, lambda_max_P(model), k_max, floor)


def zf_avg_bound_curve(model, z0, k_max):
    """Noise average of the p-general bound.

    E_eta sum_i p_i eta~_i^2 = sigma2 sum_i p_i / ||a_i||^2, so the floor is
    that over (1 - lambda_max(P)).
    """
    base = model.base
    floor = model.sigma2 * float(np.sum(base.p / base.row_norms**2)) / i_minus_p_eigvals(base)[-1]
    return _geometric_curve(z0, lambda_max_P(base), k_max, floor)
