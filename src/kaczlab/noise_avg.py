"""g, the noise-covariance contraction behind the MSE averaged over i.i.d. noise.

The averaged curve is lifted.exact_mse_curve with an IidNoise(sigma2): the
same recursion as the fixed-noise curve, driven through g(u_i u_i^T) for
each eigenvector u_i of P where the fixed-noise curve applies D to u_i.
"""

import numpy as np


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
