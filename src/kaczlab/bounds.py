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


def _kappa_sigma_min(sys):
    """(kappa, sigma_min); LinearSystem guarantees lambda_min(A^T A) > 0."""
    sigma_min = float(np.sqrt(np.linalg.eigvalsh(sys.a.T @ sys.a)[0]))
    return float(np.linalg.norm(sys.a)) / sigma_min, sigma_min


def condition_numbers(sys, dist):
    """Spectral quantities driving the classical decay-rate bounds."""
    kappa, sigma_min = _kappa_sigma_min(sys)
    return ConditionNumbers(kappa, sigma_min, lambda_max_P(build_model(sys, dist)))


def _geometric_curve(z0, rate, k_max, floor=0.0):
    """||z0||^2 rate^k + floor for k = 0..k_max, the shape of every bound here."""
    return sq_norm(np.asarray(z0, dtype=float)) * rate ** np.arange(k_max + 1) + floor


def sv_bound_curve(sys, dist, z0, k_max):
    """Geometric bound (1 - kappa^-2)^k ||z0||^2 for consistent systems.

    Stated for row-norm-proportional selection probabilities; dist is unused.
    """
    kappa, _ = _kappa_sigma_min(sys)
    return _geometric_curve(z0, 1.0 - kappa**-2, k_max)


def zf_bound_curve(sys, dist, z0, eta, k_max):
    """The noisy refinement: geometric term plus ||eta||^2 / sigma_min^2."""
    kappa, sigma_min = _kappa_sigma_min(sys)
    floor = sq_norm(np.asarray(eta, dtype=float)) / sigma_min**2
    return _geometric_curve(z0, 1.0 - kappa**-2, k_max, floor)


def zf_general_bound_curve(model, z0, k_max):
    """The p-general bound lambda_max(P)^k ||z0||^2 + tr(e) / (1 - lambda_max(P)).

    Valid for arbitrary positive selection probabilities; tr(e) is
    sum_i p_i eta~_i^2.
    """
    lam = lambda_max_P(model)
    floor = float(np.trace(vec_e(model))) / (1.0 - lam) if model.has_noise else 0.0
    return _geometric_curve(z0, lam, k_max, floor)


def zf_avg_bound_curve(model, z0, k_max):
    """Noise average of the p-general bound.

    E_eta sum_i p_i eta~_i^2 = sigma2 sum_i p_i / ||a_i||^2, so the floor is
    that over (1 - lambda_max(P)).
    """
    base = model.base
    lam = lambda_max_P(base)
    floor = model.sigma2 * float(np.sum(base.p / base.row_norms**2)) / (1.0 - lam)
    return _geometric_curve(z0, lam, k_max, floor)
