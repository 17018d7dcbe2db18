"""MSE averaged over zero-mean i.i.d. measurement noise with variance sigma2.

Only second-order noise statistics enter: every noise term below is exactly
proportional to sigma2. The averaged curve is the same adjoint recursion as
the fixed-noise one, its drive read through the mode rows g(u_i u_i^T):
g_apply on each eigenvector u_i of P, as d_readout applies D to each.
"""

from dataclasses import dataclass

import numpy as np

from .lifted import (
    LiftedModel,
    _lifted_curve,
    _mode_rows,
    _solve_i_minus_q,
    i_minus_p_eigvals,
)
from .problems import IidNoise


@dataclass(frozen=True)
class NoiseAveragedModel:
    """A lifted model plus the per-entry noise variance.

    Only the base's P, Q and g are read, none of which depends on eta~, so
    any LiftedModel of the system serves, noisy or not: its eta~ is ignored
    and the noise enters through sigma2 alone.
    """

    base: LiftedModel
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "sigma2", IidNoise(self.sigma2).sigma2)


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


def g_readout(base, u):
    """Rows vec(g(u_i u_i^T)) for the columns u_i of u: g_apply per column."""
    return _mode_rows(lambda v: g_apply(base, np.outer(v, v)), u)


def expected_v1(model):
    """E_eta v1 = sigma2 (I-Q)^{-1} [sum_i p_i a~_i a~_i^T / ||a_i||^2 + g((I-P)^{-1})]."""
    base = model.base
    n = base.a_tilde.shape[1]
    if model.sigma2 == 0.0:
        return np.zeros((n, n))
    at = base.a_tilde
    weights = base.p / base.row_norms**2
    rhs = at.T @ (weights[:, None] * at)
    gap, u = i_minus_p_eigvals(base), base.p_eigvecs
    rhs = rhs + g_apply(base, (u / gap) @ u.T)    # (I - P)^{-1}
    return model.sigma2 * _solve_i_minus_q(base, rhs)


def avg_mse_curve(model, z0, k_max):
    """The noise-averaged MSE trajectory.

    The same lifted recursion as exact_mse_curve, with the noise average as
    its drive: X_k = Q X_{k-1} - sigma2 g(P^(k-1) (I-P)^-1) from
    X_0 = z0 z0^T - E v1, and values[k] = trace(E v1) + trace(X_k). In the
    eigenbasis lam, u = eigh(P) the drive's modes are c_i = -sigma2/(1-lam_i)
    and R_i = g(u_i u_i^T). With sigma2 = 0 there is no drive, and the curve
    is the noise-free exact curve bit for bit. Cost as for _lifted_curve.
    """
    base, s2 = model.base, model.sigma2
    z0 = np.asarray(z0, dtype=float)
    ev1 = expected_v1(model)
    x0 = np.outer(z0, z0) - ev1
    floor = float(np.trace(ev1))
    if s2 == 0.0:
        return _lifted_curve(base, z0, x0, None, floor, k_max)
    modes = (base.p_eigvals, -s2 / i_minus_p_eigvals(base), g_readout(base, base.p_eigvecs))
    return _lifted_curve(base, z0, x0, modes, floor, k_max)


def avg_limiting_mse(model):
    """The noise-averaged error floor trace(mat(E_eta v1))."""
    return float(np.trace(expected_v1(model)))
