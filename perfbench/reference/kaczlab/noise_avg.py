"""MSE averaged over zero-mean i.i.d. measurement noise with variance sigma2.

Only second-order noise statistics enter: every noise term below is exactly
proportional to sigma2.
"""

from dataclasses import dataclass

import numpy as np

from ._num import sq_norm
from .lifted import (
    LiftedModel,
    MseCurve,
    _solve_i_minus_q,
    apply_Q,
    dense_p,
    weighted_gram,
)


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

    values[k] = trace(Q^k (z0 z0^T - E v1)) - sigma2 * trace(U_k) + trace(E v1)
    where U_k accumulates sum_{l<k} Q^l g(P^{k-1-l} (I-P)^{-1}) through the
    joint recurrence U <- Q U + g(M), M <- P M, M_0 = (I-P)^{-1}, U_0 = 0.
    Total cost O(k_max m n^2).
    """
    base, s2 = model.base, model.sigma2
    z0 = np.asarray(z0, dtype=float)
    values = np.empty(k_max + 1)
    values[0] = sq_norm(z0)
    ev1 = expected_v1(model)
    floor = float(np.trace(ev1))
    s = np.outer(z0, z0) - ev1
    if s2 > 0.0:
        u = np.zeros_like(s)
        m_pow = np.linalg.inv(weighted_gram(base))
        p_dense = dense_p(base)
    for k in range(1, k_max + 1):
        s = apply_Q(base, s)
        s = 0.5 * (s + s.T)   # resymmetrize; see exact_mse_curve
        if s2 > 0.0:
            u = apply_Q(base, u) + g_apply(base, m_pow)
            u = 0.5 * (u + u.T)
            m_pow = p_dense @ m_pow
            values[k] = np.trace(s) - s2 * np.trace(u) + floor
        else:
            values[k] = np.trace(s)
    return MseCurve(values, floor)


def avg_limiting_mse(model):
    """The noise-averaged error floor trace(mat(E_eta v1))."""
    return float(np.trace(expected_v1(model)))
