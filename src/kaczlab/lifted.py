"""Exact fixed-noise MSE analysis of randomized Kaczmarz via lifting.

The squared error is tracked through the pair (S_k, m_k) where
S_k = E z^(k) z^(k)T and m_k = E z^(k): both evolve linearly under the
probability-weighted projector moments

    P = sum_i p_i P_i                    (n x n, dense: dense_p)
    Q.vec(S) = vec(sum_i p_i P_i S P_i)  (n^2 x n^2, implicit)
    D.v = vec(sum_i p_i eta~_i (P_i v a~_i^T + a~_i v^T P_i))
    e = vec(sum_i p_i eta~_i^2 a~_i a~_i^T),   f = sum_i p_i eta~_i a~_i

with P_i = I - a~_i a~_i^T. Everything n^2-dimensional is represented as an
n x n matrix; vec/mat are implicit reshapes and never materialized.

Q is self-adjoint, so each MSE curve is read from the adjoint iterates
W_j = Q^j I: the error trace <I, Q^k X_0> is <W_k, X_0>, and the drive of
the m-recursion enters through the eigenbasis of P as one scalar geometric
sum per eigenvector (_lifted_curve).
"""

from dataclasses import dataclass, field

import numpy as np

from ._num import frob_dot, sq_norm
from .problems import LinearSystem
from .rka import RowDistribution

DENSE_ORACLE_MAX_N = 12
CG_REL_TOL = 1e-11
LANCZOS_REL_TOL = 1e-10
LANCZOS_CHECK_EVERY = 10
LANCZOS_MAX_STEPS = 1000
V2_REL_TOL = 1e-10
# adjoint iterates stepped and read out together by _lifted_curve
CURVE_BLOCK = 16
# _lifted_curve stops stepping W once all of W's remaining share of a curve
# is at most this fraction of its floor, an eighth of the floor's ulp or less
CURVE_STOP_REL = 2.0**-56
# blocks of the geometric tail past that stop filled per chunk
CURVE_TAIL_BLOCKS = 256


class SolverError(RuntimeError):
    """An iterative solver failed to reach its required residual."""


@dataclass(frozen=True)
class LiftedModel:
    """Normalized rows, normalized noise, selection probabilities, and eigh(P).

    The noise enters only through D, e and f; a noise-free model is one with
    eta_tilde = 0, for which all three vanish.
    """

    a_tilde: np.ndarray           # (m, n), unit rows
    p: np.ndarray                 # (m,)
    row_norms: np.ndarray         # (m,)
    eta_tilde: np.ndarray         # (m,), zero for noise-free
    p_rows: np.ndarray = field(init=False)      # (m, n), rows p_i a~_i
    p_eigvals: np.ndarray = field(init=False)   # (n,) ascending, P's one eigh
    p_eigvecs: np.ndarray = field(init=False)   # (n, n) as columns

    def __post_init__(self):
        p_rows = self.p[:, None] * self.a_tilde
        p_rows.setflags(write=False)
        object.__setattr__(self, "p_rows", p_rows)
        lam, u = np.linalg.eigh(dense_p(self))
        for arr in (lam, u):
            arr.setflags(write=False)
        object.__setattr__(self, "p_eigvals", lam)
        object.__setattr__(self, "p_eigvecs", u)

    @property
    def shape(self):
        return self.a_tilde.shape

    @property
    def has_noise(self):
        return bool(self.eta_tilde.any())


@dataclass(frozen=True)
class MseCurve:
    """MSE per iteration plus the limiting value it converges to."""

    values: np.ndarray
    floor: float


@dataclass(frozen=True)
class DenseLift:
    """Explicitly assembled lifted operators (oracle use only, n <= 12)."""

    P: np.ndarray   # (n, n)
    Q: np.ndarray   # (n^2, n^2)
    D: np.ndarray   # (n^2, n)
    e: np.ndarray   # (n^2,)
    f: np.ndarray   # (n,)
    H: np.ndarray   # (n^2+n, n^2+n) block [[Q, D], [0, P]]
    G: np.ndarray   # (n^2, n^2), vec(g(M)) = G vec(M), g as in noise_avg.g_apply


def build_model(sys: LinearSystem, dist: RowDistribution, eta=None):
    """Normalize rows and noise by the row norms; eta=None means eta = 0, noise-free."""
    m, _ = sys.a.shape
    if dist.m != m:
        raise ValueError(f"distribution has {dist.m} entries for {m} rows")
    a_tilde = sys.a / sys.row_norms[:, None]
    eta = np.zeros(m) if eta is None else np.asarray(eta, dtype=float)
    if eta.shape != (m,):
        raise ValueError(f"eta must have length {m}, got {eta.shape}")
    eta_tilde = eta / sys.row_norms
    for arr in (a_tilde, eta_tilde):
        arr.setflags(write=False)
    return LiftedModel(a_tilde, dist.p, sys.row_norms, eta_tilde)


def apply_Q(model, s):
    """mat(Q vec(S)) = sum_i p_i P_i S P_i, in O(mn^2) via rank-one updates.

    With T(X) = sum_i p_i a~_i (a~_i^T X - q_i a~_i^T / 2) and
    q_i = a~_i^T S a~_i, Q S = S - (T(S) + T(S^T)^T). For symmetric S that is
    S - (T + T^T): one product with A~, one with the rows p_i a~_i, and
    symmetric to the last bit. P_i is never formed.
    """
    at, pat = model.a_tilde, model.p_rows

    def half(x):
        ax = at @ x                             # rows a~_i^T X
        q = np.einsum("ij,ij->i", ax, at)       # a~_i^T S a~_i
        ax -= (0.5 * q)[:, None] * at
        return pat.T @ ax

    t = half(s)
    if np.array_equal(s, s.T):
        return s - (t + t.T)
    return s - (t + half(s.T).T)


def apply_D(model, v):
    """mat(D v) = sum_i p_i eta~_i (P_i v a~_i^T + a~_i v^T P_i); symmetric."""
    n = v.shape[0]
    return d_readout(model, v[:, None]).reshape(n, n)


def _sym_readout(at, u, b, w):
    """Rows vec(H_i + H_i^T), H_i = u_i b_i^T - sum_r w_ri a~_r a~_r^T.

    u and b are (n, k) (b may have one column for all i), w is (m, k);
    returns the (k, n^2) readout matrix of the k symmetric matrices.
    """
    half = u.T[:, :, None] * b.T[:, None, :] - at.T @ (w.T[:, :, None] * at)
    return (half + half.transpose(0, 2, 1)).reshape(len(half), -1)


def d_readout(model, u):
    """Rows vec(D u_i) for the columns u_i of u, so <W, D u_i> = row i . vec(W).

    In _sym_readout's terms b_i = A~^T (p eta~) and w_ri = p_r eta~_r (a~_r . u_i).
    """
    at = model.a_tilde
    c = model.p * model.eta_tilde
    return _sym_readout(at, u, (at.T @ c)[:, None], c[:, None] * (at @ u))


def vec_e(model):
    """mat(e) = sum_i p_i eta~_i^2 a~_i a~_i^T (symmetric PSD)."""
    at = model.a_tilde
    w = model.p * model.eta_tilde**2
    return at.T @ (w[:, None] * at)


def vec_f(model):
    """f = sum_i p_i eta~_i a~_i."""
    return model.a_tilde.T @ (model.p * model.eta_tilde)


def weighted_gram(model):
    """G = sum_i p_i a~_i a~_i^T.  Note G = I - P exactly."""
    return model.a_tilde.T @ model.p_rows


def dense_p(model):
    """P assembled as a dense n x n matrix."""
    n = model.a_tilde.shape[1]
    return np.eye(n) - weighted_gram(model)


def i_minus_p_eigvals(model):
    """1 - lam for P's eigenvalues lam: I - P's, paired with model.p_eigvecs.

    Every (I - P)^-1 and 1 / (1 - lambda_max(P)) is read through this guard.
    It raises SolverError when 1 - lambda_max(P) <= n eps, where I - P is
    singular to working precision and its inverse is rounding noise.
    """
    lam = model.p_eigvals
    gap = 1.0 - lam
    if gap[-1] <= lam.size * np.finfo(float).eps:
        raise SolverError(
            f"(I - P) is singular to working precision: lambda_max(P) = {float(lam[-1])!r}"
        )
    return gap


def solve_v2(model):
    """v2 = (I - P)^{-1} f in P's eigenbasis, with its residual verified."""
    gap, u = i_minus_p_eigvals(model), model.p_eigvecs
    f = vec_f(model)
    v2 = u @ ((u.T @ f) / gap)
    resid = np.linalg.norm(weighted_gram(model) @ v2 - f)
    if resid > V2_REL_TOL * np.linalg.norm(f):
        raise SolverError(
            f"(I - P) solve residual {resid:.3e} too large; "
            f"lambda_max(P) = {float(1.0 - gap[-1])!r}"
        )
    return v2


def _solve_i_minus_q(model, rhs):
    """Conjugate gradients on (I - Q) x = rhs in the n x n matrix space.

    I - Q is symmetric positive definite with spectrum in
    (1 - lambda_max(Q), 1], so plain CG applies; the operator side only
    ever calls apply_Q. Claimed convergence is verified against the true
    residual before returning.
    """
    n = rhs.shape[0]
    b_norm = np.linalg.norm(rhs)
    if b_norm == 0.0:
        return np.zeros_like(rhs)
    max_iter = 10 * n * n
    x = np.zeros_like(rhs)
    r = 0.5 * (rhs + rhs.T)   # the true rhs is symmetric; drop ulp asymmetry
    d = r.copy()
    rs = frob_dot(r, r)
    for _ in range(max_iter):
        ad = d - apply_Q(model, d)   # exactly symmetric, as d is
        alpha = rs / frob_dot(d, ad)
        x += alpha * d
        r -= alpha * ad
        rs_new = frob_dot(r, r)
        if np.sqrt(rs_new) <= CG_REL_TOL * b_norm:
            true_r = rhs - (x - apply_Q(model, x))
            tn = np.linalg.norm(true_r)
            if tn <= CG_REL_TOL * b_norm:
                return 0.5 * (x + x.T)
            # recursive residual drifted; restart from the true one
            r = 0.5 * (true_r + true_r.T)
            rs_new = frob_dot(r, r)
            d = r.copy()
            rs = rs_new
            continue
        d = r + (rs_new / rs) * d
        rs = rs_new
    resid = np.linalg.norm(rhs - (x - apply_Q(model, x))) / b_norm
    raise SolverError(
        f"(I - Q) CG did not reach {CG_REL_TOL} in {max_iter} iterations "
        f"(relative residual {resid:.3e})"
    )


def _fixed_point(model):
    """(mat(v1), v2), the fixed point of the block recursion; v2 solved once."""
    v2 = solve_v2(model)
    return _solve_i_minus_q(model, vec_e(model) + apply_D(model, v2)), v2


def solve_v1(model):
    """mat(v1) = (I - Q)^{-1} [e + D v2], the second-moment fixed point."""
    return _fixed_point(model)[0]


def _lifted_curve(model, z0, x0, modes, floor, k_max):
    """The one lifted recursion behind every exact MSE curve.

    Each curve is values[k] = floor + trace(X_k) for X_k = Q X_{k-1} +
    F_{k-1} from X_0 = x0, centred on its fixed point (whose trace is the
    floor), with a drive F_l = sum_i c_i lam_i^l R_i that decays along the
    eigenvalues lam_i of P. Q is self-adjoint, so with W_j = Q^j I

        values[k] = floor + <W_k, x0> + sum_i c_i s_i[k],
        s_i[k] = lam_i s_i[k-1] + <W_{k-1}, R_i>,   s_i[0] = 0.

    A curve is the description (x0, modes, floor): modes = (lam, c, readout)
    with rows vec(R_i) in readout, or None for an undriven curve. W is
    stepped by apply_Q in whole blocks of CURVE_BLOCK iterates; each block is
    read out by one product with [vec x0; readout] and one Toeplitz sum of
    the s_i. values[0] = ||z0||^2 exactly.

    Stepping stops after the first block whose last iterate W_j has
    owed ||W_j|| <= CURVE_STOP_REL floor, owed = ||x0|| + sum_i |c_i| ||R_i||
    / (1 - |lam_i|), or W_j = 0. ||Q||_2 <= 1, Q being a convex combination
    of the orthogonal projectors P_i (x) P_i, so no later W moves a value by
    more than that (Cauchy-Schwarz), and every later value is the geometric
    tail floor + sum_i c_i lam_i^(k - k0) s_i[k0]. A curve with a zero floor
    stops only at W = 0, so it keeps its whole decay. The stop does not
    depend on k_max, and neither does any value. Runs in
    O(k_stop m n^2 + k_max n), k_stop <= k_max the steps before the stop.
    """
    n = x0.shape[0]
    if modes is None:
        modes = (np.empty(0), np.empty(0), np.empty((0, n * n)))
    lam, c, readout = modes
    rows = np.vstack([x0.reshape(1, n * n), readout])
    owed = np.linalg.norm(x0) + np.abs(c) @ (
        np.linalg.norm(readout, axis=1) / (1.0 - np.abs(lam)))
    blk = CURVE_BLOCK
    # sums[t] = s[start + t] = lam^t s[start] + sum_{tau < t} lam^(t-1-tau) rho[tau]
    # for t = 0..blk, with rho[tau] = <W_{start+tau}, R_i>
    pw = lam ** np.arange(blk + 1)[:, None]
    lag = np.arange(blk + 1)[:, None] - np.arange(blk)
    toeplitz = np.where((lag > 0)[:, :, None], pw[np.maximum(lag - 1, 0)], 0.0)
    end = (k_max // blk + 1) * blk
    values = np.empty(end)
    stack = np.empty((blk, n, n))
    s = np.zeros(lam.size)
    start = 0
    while start < end:
        for t in range(blk):
            # stack[-1] is the previous block's last iterate
            stack[t] = apply_Q(model, stack[t - 1]) if start + t else np.eye(n)
        r = stack.reshape(blk, n * n) @ rows.T
        sums = pw * s + np.einsum("tui,ui->ti", toeplitz, r[:, 1:])
        values[start:start + blk] = floor + r[:, 0] + sums[:blk] @ c
        s = sums[blk]
        start += blk
        w_norm = np.linalg.norm(stack[-1])
        if w_norm == 0.0 or (floor > 0.0 and owed * w_norm <= CURVE_STOP_REL * floor):
            break
    while start < end:
        # s at each block's start, multiplied up block by block as above
        nb = min(CURVE_TAIL_BLOCKS, (end - start) // blk)
        heads = np.cumprod(
            np.vstack([s, np.broadcast_to(pw[blk], (nb - 1, lam.size))]), axis=0)
        tail = (pw[:blk] * heads[:, None, :]).reshape(nb * blk, lam.size)
        values[start:start + nb * blk] = floor + tail @ c
        s = heads[-1] * pw[blk]
        start += nb * blk
    values[0] = sq_norm(z0)
    return MseCurve(values[: k_max + 1], floor)


def exact_mse_curve(model, z0, k_max):
    """The exact MSE trajectory for a fixed noise vector.

    The block map (S, m) -> (Q S + D m + e, P m + f) from (z0 z0^T, z0) has
    the fixed point (v1, v2), so around it the recursion is homogeneous:
    X_0 = z0 z0^T - v1 driven by D P^l (z0 - v2), whose modes are the
    model's lam, u = eigh(P), c = u^T (z0 - v2) and R_i = D u_i, with floor
    trace(v1). For a noise-free model (eta~ = 0) D, e and f vanish, so the
    fixed point is zero and the curve is the undriven one from X_0 = z0 z0^T,
    whatever P's spectrum: no (I - P) or (I - Q) solve is made. values[k] =
    trace(S_k).
    """
    z0 = np.asarray(z0, dtype=float)
    if not model.has_noise:
        return _lifted_curve(model, z0, np.outer(z0, z0), None, 0.0, k_max)
    v1, v2 = _fixed_point(model)
    u = model.p_eigvecs
    modes = (model.p_eigvals, u.T @ (z0 - v2), d_readout(model, u))
    return _lifted_curve(model, z0, np.outer(z0, z0) - v1, modes,
                         float(np.trace(v1)), k_max)


def exact_mse_at(model, z0, k):
    """MSE at a single iteration: exact_mse_curve(model, z0, k).values[k]."""
    return float(exact_mse_curve(model, z0, k).values[k])


def limiting_mse(model):
    """The error floor trace(mat(v1)); zero for noise-free models."""
    if not model.has_noise:
        return 0.0
    return float(np.trace(solve_v1(model)))


def lambda_max_P(model):
    """Largest eigenvalue of P, exact: read from the model's dense eigh(P)."""
    return float(model.p_eigvals[-1])


def lambda_max_Q(model):
    """Largest eigenvalue of Q by Lanczos with full reorthogonalization.

    Works on symmetric n x n matrices under the Frobenius inner product and
    only calls apply_Q. The start is I / sqrt(n): Q = sum_i p_i P_i (x) P_i
    is PSD and maps the PSD cone into itself, so its top eigenspace holds a
    PSD matrix V, and <I, V> = tr V >= ||V||_F gives the start an overlap of
    at least 1/sqrt(n) with it. Every LANCZOS_CHECK_EVERY steps the top Ritz
    pair (theta, y) of the tridiagonal matrix is computed; the result is
    returned once the Ritz residual |beta_k y_k| <= LANCZOS_REL_TOL * theta
    certifies it (Golub & Van Loan, ch. 10), or when the Krylov space
    reaches its full dimension n(n+1)/2. A SolverError is raised if neither
    happens within LANCZOS_MAX_STEPS.
    """
    n = model.a_tilde.shape[1]
    dim = n * (n + 1) // 2
    steps = min(dim, LANCZOS_MAX_STEPS)
    # grown by doubling: the whole basis would be steps x n^2 floats
    basis = np.empty((min(steps, 16), n * n))
    basis[0] = np.eye(n).ravel() / np.sqrt(n)
    alphas, betas = [], []
    resid = np.inf
    for k in range(1, steps + 1):
        q = basis[k - 1]
        w = apply_Q(model, q.reshape(n, n))
        w = (0.5 * (w + w.T)).ravel()
        alphas.append(float(q @ w))
        done = basis[:k]
        for _ in range(2):   # classical Gram-Schmidt, twice is enough
            w -= done.T @ (done @ w)
        beta = float(np.linalg.norm(w))
        # theta >= alphas[0], so a tiny beta already certifies the Ritz value
        if k % LANCZOS_CHECK_EVERY == 0 or k == dim or beta <= LANCZOS_REL_TOL * alphas[0]:
            tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            thetas, ys = np.linalg.eigh(tri)
            theta = float(thetas[-1])
            resid = beta * abs(ys[-1, -1])
            if resid <= LANCZOS_REL_TOL * theta or k == dim:
                return theta
        if k == steps:
            break
        if k == basis.shape[0]:
            grown = np.empty((min(2 * k, steps), n * n))
            grown[:k] = basis
            basis = grown
        basis[k] = w / beta
        betas.append(beta)
    raise SolverError(
        f"Lanczos on Q did not certify lambda_max in {LANCZOS_MAX_STEPS} steps "
        f"(Ritz residual {resid:.3e})"
    )


def dense_lift_oracle(model):
    """Assemble P, Q, D, e, f, H = [[Q, D], [0, P]] and g's matrix G explicitly.

    G = sum_i (p_i^2/||a_i||^2) D_i (I (x) a~_i^T), with D_i the noise-free
    part of D's i-th term, does not depend on eta~.

    Kronecker products make this O(n^4) in space, so it is guarded to
    n <= 12 and meant only for cross-checking the implicit operators.
    """
    m, n = model.a_tilde.shape
    if n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle limited to n <= {DENSE_ORACLE_MAX_N}, got {n}")
    eye = np.eye(n)
    p_mat = np.zeros((n, n))
    q_mat = np.zeros((n * n, n * n))
    d_mat = np.zeros((n * n, n))
    e_v = np.zeros(n * n)
    f_v = np.zeros(n)
    g_mat = np.zeros((n * n, n * n))
    for i in range(m):
        at = model.a_tilde[i]
        proj = eye - np.outer(at, at)
        p_mat += model.p[i] * proj
        q_mat += model.p[i] * np.kron(proj, proj)
        col = at.reshape(-1, 1)
        d_i = np.kron(col, proj) + np.kron(proj, col)
        g_mat += (model.p[i] ** 2 / model.row_norms[i] ** 2) * (d_i @ np.kron(eye, at))
        etai = model.eta_tilde[i]
        d_mat += model.p[i] * etai * d_i
        e_v += model.p[i] * etai**2 * np.kron(at, at)
        f_v += model.p[i] * etai * at
    h = np.zeros((n * n + n, n * n + n))
    h[: n * n, : n * n] = q_mat
    h[: n * n, n * n :] = d_mat
    h[n * n :, n * n :] = p_mat
    return DenseLift(p_mat, q_mat, d_mat, e_v, f_v, h, g_mat)
