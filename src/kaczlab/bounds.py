"""The one geometric upper bound on the randomized Kaczmarz MSE. The classical
bounds of Strohmer & Vershynin (zero noise) and Zouzias & Freris (a FixedNoise)
are its row-norm cases, where lambda_max(P) = 1 - kappa^-2."""

import numpy as np

from ._num import check_int, check_vector, sq_norm
from .lifted import i_minus_p_eigvals, lambda_max_P, vec_e


def zf_general_bound_curve(model, noise, z0, k_max):
    """The p-general bound lambda_max(P)^k ||z0||^2 + tr(e) / (1 - lambda_max(P)).

    Valid for arbitrary positive selection probabilities. tr(e) is
    sum_i p_i eta~_i^2 for a FixedNoise, and its average over an
    IidNoise(sigma2) is sigma2 sum_i p_i / ||a_i||^2, both read from vec_e.
    With zero noise the floor is 0, and the gap 1 - lambda_max(P) is not
    read. With row-norm p, P = I - A^T A / ||A||_F^2, so lambda_max(P) = 1 -
    kappa^-2 and the floor is ||eta||^2 / sigma_min^2: the Strohmer-Vershynin
    bound for zero noise and the Zouzias-Freris bound for a FixedNoise(eta).
    """
    z0 = check_vector(z0, model.a_tilde.shape[1], "z0")
    k_max = check_int(k_max, "k_max")
    power = float(np.trace(vec_e(model, noise)))
    floor = power / i_minus_p_eigvals(model)[-1] if power else 0.0
    return sq_norm(z0) * lambda_max_P(model) ** np.arange(k_max + 1) + floor
