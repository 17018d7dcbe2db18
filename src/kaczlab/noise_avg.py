"""MSE averaged over zero-mean i.i.d. measurement noise with variance sigma2.

Only second-order noise statistics enter: every noise term below is exactly
proportional to sigma2.
"""

from dataclasses import dataclass

import numpy as np

from .lifted import LiftedModel, _lifted_curve, _solve_i_minus_q, weighted_gram


@dataclass(frozen=True)
class NoiseAveragedModel:
    """A noise-free lifted model plus the per-entry noise variance."""

    base: LiftedModel
    sigma2: float

    def __post_init__(self):
        if self.base.has_noise:
            raise ValueError("base model must be noise-free; noise enters via sigma2")
        s = float(self.sigma2)
        if not np.isfinite(s) or s < 0.0:
            raise ValueError(f"sigma2 must be finite and >= 0, got {s}")
        object.__setattr__(self, "sigma2", s)


def g_apply(base, mmat):
    """mat(g(M)) = sum_i (p_i^2/||a_i||^2) (P_i M a~_i a~_i^T + a~_i (M a~_i)^T P_i).

    This is the noise-covariance contraction of D against itself: for i.i.d.
    noise, E[D M f] = sigma^2 g(M). Output is symmetric; cost O(mn^2).
    """
    at = base.a_tilde
    k = base.p**2 / base.row_norms**2
    w = at @ mmat.T                              # rows (M a~_i)^T
    quad = np.einsum("ij,ij->i", at, w)          # a~_i^T M a~_i
    half = (k[:, None] * w).T @ at - at.T @ ((k * quad)[:, None] * at)
    return half + half.T


def expected_v1(model):
    """E_eta v1 = sigma2 (I-Q)^{-1} [sum_i p_i a~_i a~_i^T / ||a_i||^2 + g((I-P)^{-1})]."""
    base = model.base
    n = base.a_tilde.shape[1]
    if model.sigma2 == 0.0:
        return np.zeros((n, n))
    at = base.a_tilde
    weights = base.p / base.row_norms**2
    rhs = at.T @ (weights[:, None] * at)
    ginv = np.linalg.inv(weighted_gram(base))    # (I - P)^{-1}
    rhs = rhs + g_apply(base, ginv)
    return model.sigma2 * _solve_i_minus_q(base, rhs)


def avg_mse_curve(model, z0, k_max):
    """The noise-averaged MSE trajectory.

    The same lifted recursion as exact_mse_curve, with the noise average as
    its drive: X_k = Q X_{k-1} - sigma2 g(M_{k-1}), M_k = P M_{k-1},
    X_0 = z0 z0^T - E v1, M_0 = (I-P)^{-1}, and values[k] = trace(E v1) +
    trace(X_k). With sigma2 = 0 there is no drive, and the curve is the
    noise-free exact curve bit for bit. Total cost O(k_max m n^2).
    """
    base, s2 = model.base, model.sigma2
    z0 = np.asarray(z0, dtype=float)
    ev1 = expected_v1(model)
    x0 = np.outer(z0, z0) - ev1
    floor = float(np.trace(ev1))
    if s2 == 0.0:
        return _lifted_curve(base, z0, x0, None, None, floor, k_max)
    m0 = np.linalg.inv(weighted_gram(base))
    return _lifted_curve(base, z0, x0, m0, lambda mmat: -s2 * g_apply(base, mmat),
                         floor, k_max)


def avg_limiting_mse(model):
    """The noise-averaged error floor trace(mat(E_eta v1))."""
    return float(np.trace(expected_v1(model)))
