"""Classical upper-bound curves on the randomized Kaczmarz MSE."""

from dataclasses import dataclass

import numpy as np

from ._num import sq_norm
from .lifted import build_model, lambda_max_P, vec_e


@dataclass(frozen=True)
class ConditionNumbers:
    """kappa = ||A||_F ||A^-1||_2, the smallest singular value, and lambda_max(P)."""

    kappa: float
    sigma_min: float
    lambda_max_p: float


def condition_numbers(sys, dist):
    """Spectral quantities driving the classical decay-rate bounds."""
    evals = np.linalg.eigvalsh(sys.a.T @ sys.a)
    sigma_min = float(np.sqrt(max(evals[0], 0.0)))
    if sigma_min == 0.0:
        raise ValueError("matrix is rank deficient; condition numbers undefined")
    fro = float(np.linalg.norm(sys.a))
    lam_p = lambda_max_P(build_model(sys, dist))
    return ConditionNumbers(fro / sigma_min, sigma_min, lam_p)


def sv_bound_curve(sys, dist, z0, k_max):
    """Geometric bound (1 - kappa^-2)^k ||z0||^2 for consistent systems.

    Stated for row-norm-proportional selection probabilities.
    """
    cn = condition_numbers(sys, dist)
    rate = 1.0 - cn.kappa**-2
    return sq_norm(np.asarray(z0, dtype=float)) * rate ** np.arange(k_max + 1)


def zf_bound_curve(sys, dist, z0, eta, k_max):
    """The noisy refinement: geometric term plus ||eta||^2 / sigma_min^2."""
    eta = np.asarray(eta, dtype=float)
    cn = condition_numbers(sys, dist)
    rate = 1.0 - cn.kappa**-2
    geo = sq_norm(np.asarray(z0, dtype=float)) * rate ** np.arange(k_max + 1)
    return geo + sq_norm(eta) / cn.sigma_min**2


def zf_general_bound_curve(model, z0, k_max):
    """The p-general bound lambda_max(P)^k ||z0||^2 + tr(e) / (1 - lambda_max(P)).

    Valid for arbitrary positive selection probabilities; tr(e) is
    sum_i p_i eta~_i^2.
    """
    lam = lambda_max_P(model)
    geo = sq_norm(np.asarray(z0, dtype=float)) * lam ** np.arange(k_max + 1)
    if not model.has_noise:
        return geo
    return geo + float(np.trace(vec_e(model))) / (1.0 - lam)


def zf_avg_bound_curve(model, z0, k_max):
    """Noise average of the p-general bound.

    E_eta sum_i p_i eta~_i^2 = sigma2 sum_i p_i / ||a_i||^2, so the floor is
    that over (1 - lambda_max(P)).
    """
    base = model.base
    lam = lambda_max_P(base)
    geo = sq_norm(np.asarray(z0, dtype=float)) * lam ** np.arange(k_max + 1)
    floor = model.sigma2 * float(np.sum(base.p / base.row_norms**2)) / (1.0 - lam)
    return geo + floor
