"""MSE averaged over zero-mean i.i.d. measurement noise, noise = IidNoise(sigma2).

Only second-order noise statistics enter: every noise term below is exactly
proportional to sigma2. Only the model's P, Q and g are read, none of which
depends on eta~, so any LiftedModel of the system serves, noisy or not: its
eta~ is ignored and the noise enters through sigma2 alone. The averaged
curve is the same adjoint recursion as the fixed-noise one, driven through
g(u_i u_i^T) for each eigenvector u_i of P where the fixed-noise curve
applies D to u_i.
"""

import numpy as np

from .lifted import _lifted_curve, _solve_i_minus_q, i_minus_p_eigvals


def g_apply(model, mmat):
    """mat(g(M)) = sum_i (p_i^2/||a_i||^2) (P_i M a~_i a~_i^T + a~_i (M a~_i)^T P_i).

    This is the noise-covariance contraction of D against itself: for i.i.d.
    noise, E[D M f] = sigma^2 g(M). Output is symmetric; cost O(mn^2).
    """
    at = model.a_tilde
    k = model.p**2 / model.row_norms**2
    w = at @ mmat.T                              # rows (M a~_i)^T
    quad = np.einsum("ij,ij->i", at, w)          # a~_i^T M a~_i
    half = (k[:, None] * w).T @ at - at.T @ ((k * quad)[:, None] * at)
    return half + half.T


def expected_v1(model, noise):
    """E_eta v1 = sigma2 (I-Q)^{-1} [sum_i p_i a~_i a~_i^T / ||a_i||^2 + g((I-P)^{-1})]."""
    n = model.a_tilde.shape[1]
    if noise.sigma2 == 0.0:
        return np.zeros((n, n))
    at = model.a_tilde
    weights = model.p / model.row_norms**2
    rhs = at.T @ (weights[:, None] * at)
    gap, u = i_minus_p_eigvals(model), model.p_eigvecs
    rhs = rhs + g_apply(model, (u / gap) @ u.T)    # (I - P)^{-1}
    return noise.sigma2 * _solve_i_minus_q(model, rhs)


def avg_mse_curve(model, noise, z0, k_max):
    """The noise-averaged MSE trajectory.

    The same lifted recursion as exact_mse_curve, with the noise average as
    its drive: X_k = Q X_{k-1} - sigma2 g(P^(k-1) (I-P)^-1) from
    X_0 = z0 z0^T - E v1, and values[k] = trace(E v1) + trace(X_k). In the
    eigenbasis lam, u = eigh(P) the drive's modes are c_i = -sigma2/(1-lam_i)
    and R_i = g(u_i u_i^T). With sigma2 = 0 there is no drive, and the curve
    is the noise-free exact curve bit for bit. Cost as for _lifted_curve.
    """
    z0 = np.asarray(z0, dtype=float)
    ev1 = expected_v1(model, noise)
    drive = None
    if noise.sigma2 != 0.0:
        drive = (-noise.sigma2 / i_minus_p_eigvals(model),
                 lambda _, u: g_apply(model, np.outer(u, u)))
    return _lifted_curve(model, z0, ev1, drive, k_max)


def avg_limiting_mse(model, noise):
    """The noise-averaged error floor trace(mat(E_eta v1))."""
    return float(np.trace(expected_v1(model, noise)))
