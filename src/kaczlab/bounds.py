"""Classical upper-bound curves on the randomized Kaczmarz MSE."""

import numpy as np

from ._num import check_int, check_vector, sq_norm
from .lifted import i_minus_p_eigvals, lambda_max_P, vec_e
from .problems import IidNoise, fixed_eta


def _geometric_curve(z0, rate, k_max, floor=0.0):
    """||z0||^2 rate^k + floor for k = 0..k_max, the shape of every bound here;
    z0 is checked by the caller, which knows its length."""
    k_max = check_int(k_max, "k_max")
    return sq_norm(z0) * rate ** np.arange(k_max + 1) + floor


def sv_bound_curve(sys, z0, k_max):
    """Geometric bound (1 - kappa^-2)^k ||z0||^2 for consistent systems.

    Stated for row-norm-proportional selection probabilities.
    """
    z0 = check_vector(z0, sys.a.shape[1], "z0")
    return _geometric_curve(z0, 1.0 - sys.kappa**-2, k_max)


def zf_bound_curve(sys, noise, z0, k_max):
    """The noisy refinement for FixedNoise(eta): geometric term plus ||eta||^2 / sigma_min^2."""
    floor = sq_norm(fixed_eta(noise, sys.a.shape[0])) / sys.sigma_min**2
    z0 = check_vector(z0, sys.a.shape[1], "z0")
    return _geometric_curve(z0, 1.0 - sys.kappa**-2, k_max, floor)


def zf_general_bound_curve(model, noise, z0, k_max):
    """The p-general bound lambda_max(P)^k ||z0||^2 + tr(e) / (1 - lambda_max(P)).

    Valid for arbitrary positive selection probabilities. tr(e) is
    sum_i p_i eta~_i^2 for a FixedNoise, and its average over an
    IidNoise(sigma2) is sigma2 sum_i p_i / ||a_i||^2. With zero noise the
    floor is 0, and the gap 1 - lambda_max(P) is not read.
    """
    if isinstance(noise, IidNoise):
        power = noise.sigma2 * float(np.sum(model.p / model.row_norms**2))
    else:
        power = float(np.trace(vec_e(model, noise)))
    floor = power / i_minus_p_eigvals(model)[-1] if power else 0.0
    z0 = check_vector(z0, model.a_tilde.shape[1], "z0")
    return _geometric_curve(z0, lambda_max_P(model), k_max, floor)
