"""Exact MSE analysis of randomized Kaczmarz via lifting.

The squared error is tracked through the pair (S_k, m_k) where
S_k = E z^(k) z^(k)T and m_k = E z^(k): both evolve linearly under the
probability-weighted projector moments

    P = sum_i p_i P_i                    (n x n, dense: dense_p)
    Q.vec(S) = vec(sum_i p_i P_i S P_i)  (n^2 x n^2, implicit or tabulated)
    D.v = vec(sum_i p_i eta~_i (P_i v a~_i^T + a~_i v^T P_i))
    e = vec(sum_i p_i eta~_i^2 a~_i a~_i^T),   f = sum_i p_i eta~_i a~_i
    g(M) = sum_i (p_i^2/||a_i||^2) (P_i M a~_i a~_i^T + a~_i (M a~_i)^T P_i)

with P_i = I - a~_i a~_i^T, eta~_i = eta_i / ||a_i|| for a FixedNoise(eta), and
E[D M f] = sigma^2 g(M) over the draws of an IidNoise(sigma^2). The model holds
no noise: _noise_terms alone maps either spec to a curve's fixed point and drive.

Everything n^2-dimensional is represented as an n x n matrix; vec/mat are
implicit reshapes and never materialized. For n <= DENSE_ORACLE_MAX_N, Q is
also held as a dense matrix on the n(n+1)/2-dimensional space of symmetric
matrices, the only ones the curves and solvers give it (apply_Q), and the
curves step in that space's coordinates.

Q is self-adjoint, so each MSE curve is read from the adjoint iterates
W_j = Q^j I: the error trace <I, Q^k X_0> is <W_k, X_0>, and the drive of
the m-recursion enters through the eigenbasis of P as one scalar geometric
sum per eigenvector (_lifted_curve).
"""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from ._num import check_dist, check_int, check_vector, frob_dot, set_fields, sq_norm
from .problems import IidNoise, fixed_eta

DENSE_ORACLE_MAX_N = 12
CG_REL_TOL = 1e-11
LANCZOS_REL_TOL = 1e-10
# Lanczos steps past which lambda_max_Q raises and _ritz_w steps W instead
LANCZOS_MAX_STEPS = 1024
V2_REL_TOL = 1e-10
# adjoint iterates stepped and read out together by _lifted_curve, and Lanczos
# steps per block of _lanczos
CURVE_BLOCK = 16
# _ritz_w certifies every W_k it reads to this fraction of ||W_0||, k < H from the
# first horizon H on
CURVE_CERT_REL = 1e-12
CURVE_RITZ_HORIZON = 512
# _lifted_curve stops stepping W once W's remaining share of a curve is at most this
# fraction of its floor (an eighth of its ulp or less), or ||W|| is the least normal double
CURVE_STOP_REL = 2.0**-56
# blocks of the geometric tail past that stop filled per chunk
CURVE_TAIL_BLOCKS = 256


class SolverError(RuntimeError):
    """An iterative solver failed to reach its required residual."""


@dataclass(frozen=True)
class LiftedModel:
    """Normalized rows, selection probabilities, eigh(P), and for n <=
    DENSE_ORACLE_MAX_N Q tabulated on symmetric matrices; no noise.

    q_table is (table, upper, full), or None for n > DENSE_ORACLE_MAX_N.
    upper indexes the n(n+1)/2 entries k <= l of a raveled n x n matrix, and
    full maps each of its n^2 entries (k, l) to the position of (min, max) in
    upper. Column j of table holds the upper entries of Q B_j, for B_j the
    symmetric matrix whose upper entries are the j-th unit vector; it is
    _apply_q_implicit applied to B_j, so dense_lift_oracle stays a reference
    independent of it. Bounding n by the oracle's limit keeps every table
    where that oracle can check it, at most 78^2 doubles (48 KB).

    lanczos_record holds, per block of the model's Lanczos recurrence
    (_lanczos) that some run has reached, (steps, Ritz residual, top theta):
    three floats, no vectors. Every run is the same deterministic recurrence,
    so it does not matter which run wrote a block; lambda_max_Q reads it.
    """

    a_tilde: np.ndarray           # (m, n), unit rows
    p: np.ndarray                 # (m,)
    row_norms: np.ndarray         # (m,)
    p_rows: np.ndarray = field(init=False)      # (m, n), rows p_i a~_i
    p_eigvals: np.ndarray = field(init=False)   # (n,) ascending, P's one eigh
    p_eigvecs: np.ndarray = field(init=False)   # (n, n) as columns
    q_table: tuple = field(init=False)          # (table, upper, full) or None
    lanczos_record: list = field(init=False, default_factory=list, compare=False, repr=False)

    def __post_init__(self):
        set_fields(self, a_tilde=self.a_tilde, p=self.p, row_norms=self.row_norms)
        set_fields(self, p_rows=self.p[:, None] * self.a_tilde)
        lam, u = np.linalg.eigh(dense_p(self))
        small = self.a_tilde.shape[1] <= DENSE_ORACLE_MAX_N
        set_fields(self, p_eigvals=lam, p_eigvecs=u, q_table=_tabulate_q(self) if small else None)


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
    G: np.ndarray   # (n^2, n^2), vec(g(M)) = G vec(M), g as in g_apply


def build_model(sys, dist):
    """Normalize a LinearSystem's rows by their norms and pair them with a
    RowDistribution's probabilities."""
    check_dist(dist, sys.a.shape[0])
    return LiftedModel(sys.a / sys.row_norms[:, None], dist.p, sys.row_norms)


def _scaled_eta(model, noise):
    """eta~ = eta / ||a_i|| of a FixedNoise with one entry per row of the model."""
    return fixed_eta(noise, model.row_norms.size) / model.row_norms


def _q_half(at, pat, x):
    """T(X) = sum_i p_i a~_i (a~_i^T X - q_i a~_i^T / 2), q_i = a~_i^T X a~_i."""
    ax = at @ x   # rows a~_i^T X
    ax -= (0.5 * np.vecdot(ax, at))[:, None] * at
    return pat.T @ ax


def _apply_q_implicit(model, s):
    """mat(Q vec(S)) = sum_i p_i P_i S P_i, in O(mn^2) via rank-one updates.

    With T as in _q_half, Q S = S - (T(S) + T(S^T)^T). For S whose bytes
    equal those of S^T that is S - (T + T^T): one product with A~, one with
    the rows p_i a~_i, and symmetric to the last bit. Any other S, a
    symmetric one whose mirrored zeros differ in sign included, takes the
    general form. P_i is never formed.
    """
    at, pat = model.a_tilde, model.p_rows
    t = _q_half(at, pat, s)
    if s.tobytes() == s.T.tobytes():
        return s - (t + t.T)
    return s - (t + _q_half(at, pat, s.T).T)


def _tabulate_q(model):
    """(table, upper, full) of LiftedModel.q_table, from _apply_q_implicit."""
    n = model.a_tilde.shape[1]
    rows, cols = np.triu_indices(n)
    upper = rows * n + cols
    full = np.empty(n * n, dtype=np.intp)
    full[upper] = full[cols * n + rows] = np.arange(upper.size)
    table = np.empty((upper.size, upper.size))
    for j, (k, l) in enumerate(zip(rows, cols)):
        basis = np.zeros((n, n))
        basis[k, l] = basis[l, k] = 1.0
        table[:, j] = _apply_q_implicit(model, basis).ravel()[upper]
    return table, upper, full


def apply_Q(model, s):
    """mat(Q vec(S)) = sum_i p_i P_i S P_i, for any n x n S.

    For S whose bytes equal those of S^T, on a model with n <=
    DENSE_ORACLE_MAX_N, this is one product of model.q_table's
    (n(n+1)/2)^2 matrix with S's upper entries, copied out to both
    triangles, so symmetric to the last bit. At those sizes the implicit
    form's cost is the dispatch of its numpy calls, not its arithmetic, and
    the table takes three calls to its nine. Any other S, and every S at
    larger n, takes _apply_q_implicit's O(mn^2) form.

    A 1-D s holds the upper entries of a symmetric S, in q_table's
    coordinates, and gets those of Q S: the product with the table alone,
    bitwise the upper entries of the n x n form's result. Only a model with
    q_table takes it; any other refuses it with a ValueError.
    """
    if s.ndim == 1:
        if model.q_table is None:
            raise ValueError(f"apply_Q takes packed upper entries only for n <= "
                             f"{DENSE_ORACLE_MAX_N}, got n = {model.a_tilde.shape[1]}")
        return model.q_table[0] @ s
    if model.q_table is not None and s.tobytes() == s.T.tobytes():
        table, upper, full = model.q_table
        return (table @ s.ravel()[upper])[full].reshape(s.shape)
    return _apply_q_implicit(model, s)


def apply_D(model, noise, v):
    """mat(D v) = sum_i p_i eta~_i (P_i v a~_i^T + a~_i v^T P_i), for a FixedNoise; symmetric.

    With c = p eta~ that is H + H^T for H = v (A~^T c)^T - A~^T diag(c A~v) A~.
    """
    at = model.a_tilde
    c = model.p * _scaled_eta(model, noise)
    half = np.outer(v, at.T @ c) - at.T @ ((c * (at @ v))[:, None] * at)
    return half + half.T


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


def vec_e(model, noise):
    """mat(e) = sum_i p_i eta~_i^2 a~_i a~_i^T for a FixedNoise, and its mean
    sum_i sigma2 (p_i / ||a_i||^2) a~_i a~_i^T over an IidNoise's draws (symmetric PSD)."""
    at = model.a_tilde
    if isinstance(noise, IidNoise):
        w = noise.sigma2 * model.p / model.row_norms**2
    else:
        w = model.p * _scaled_eta(model, noise)**2
    return at.T @ (w[:, None] * at)


def vec_f(model, noise):
    """f = sum_i p_i eta~_i a~_i for a FixedNoise."""
    return model.a_tilde.T @ (model.p * _scaled_eta(model, noise))


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


def solve_v2(model, noise):
    """v2 = (I - P)^{-1} f for a FixedNoise, in P's eigenbasis, with its residual verified."""
    gap, u = i_minus_p_eigvals(model), model.p_eigvecs
    f = vec_f(model, noise)
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
    residual before returning. A right-hand side that is not finite is
    refused before the first apply_Q: every iterate would be NaN.

    CG solves for rhs scaled by 2^-e, e = np.frexp(max|rhs|)[1], and scales
    the solution back by 2^e. That is exact, so no bit changes where the
    norms fit in doubles, but ||rhs||^2 and CG's inner products cannot
    underflow to a zero solution (||rhs|| < ~1e-162) or overflow to NaN
    iterates (||rhs|| > ~1e154).
    """
    if not np.isfinite(rhs).all():
        raise SolverError("(I - Q) CG right-hand side is not finite")
    exp = np.frexp(np.abs(rhs).max())[1]
    rhs = np.ldexp(rhs, -exp)
    rhs = 0.5 * (rhs + rhs.T)   # the true rhs is symmetric; drop ulp asymmetry
    n = rhs.shape[0]
    b_norm = np.linalg.norm(rhs)
    if b_norm == 0.0:
        return np.zeros_like(rhs)
    max_iter = 10 * n * n
    x = np.zeros_like(rhs)
    r, d = rhs.copy(), rhs.copy()
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
                return np.ldexp(0.5 * (x + x.T), exp)
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


def _noise_terms(model, noise, z0):
    """_lifted_curve's fixed point v and drive (c, op) for a noise spec.

    FixedNoise: the block map (S, m) -> (Q S + D m + e, P m + f) has the
    fixed point (v1, v2), v1 = (I - Q)^{-1} [e + D v2]; around it the drive
    is D P^l (z0 - v2), so c = U^T (z0 - v2) and R_i = D u_i. IidNoise: the
    average, with E[D M f] = sigma2 g(M), has the fixed point E v1 = sigma2
    (I-Q)^{-1} [vec_e(IidNoise(1)) + g((I-P)^{-1})] and the
    drive -sigma2 g(P^l (I-P)^{-1}): c_i = -sigma2 / (1 - lam_i), R_i =
    g(u_i u_i^T). Zero noise of either kind is the zero n x n fixed point and
    the empty drive (no c, no op), with no (I - P) or (I - Q) solve. Anything
    else is a TypeError.
    """
    n = model.a_tilde.shape[1]
    if not (noise.sigma2 if isinstance(noise, IidNoise) else _scaled_eta(model, noise).any()):
        return np.zeros((n, n)), (np.empty(0), None)
    if isinstance(noise, IidNoise):
        gap, u = i_minus_p_eigvals(model), model.p_eigvecs
        rhs = vec_e(model, IidNoise(1.0)) + g_apply(model, (u / gap) @ u.T)
        return noise.sigma2 * _solve_i_minus_q(model, rhs), (
            -noise.sigma2 / gap, lambda model, u: g_apply(model, np.outer(u, u)))
    v2 = solve_v2(model, noise)
    v1 = _solve_i_minus_q(model, vec_e(model, noise) + apply_D(model, noise, v2))
    return v1, (model.p_eigvecs.T @ (z0 - v2), lambda model, u: apply_D(model, noise, u))


def solve_v1(model, noise):
    """mat(v1) of a FixedNoise or E v1 of an IidNoise; zero for zero noise."""
    return _noise_terms(model, noise, np.zeros(model.a_tilde.shape[1]))[0]   # drive unread


def _lanczos(model):
    """The plain three-term Lanczos recurrence on Q from q_1 = I / sqrt(n), on
    n x n matrices under the Frobenius inner product, in blocks of CURVE_BLOCK
    steps of one apply_Q each: (rows, beta, theta, z), the block's Lanczos
    vectors as a (t, n^2) array the next block overwrites, beta after its
    last step, and eigh(T) = (theta, z) of the run's tridiagonal T so far.
    The run ends after the block whose last beta is 0. Each block that no
    earlier run of the model reached is appended to model.lanczos_record
    before it is handed out.

    It holds two Lanczos vectors and one block of rows, no basis. apply_Q
    keeps an exactly symmetric input exactly symmetric, and the recurrence
    works element by element, so every Lanczos vector stays so. Without
    reorthogonalization the vectors lose orthogonality, but only as Ritz
    values converge: the loss adds "ghost" copies of them, and a Ritz value
    with a small residual still lies that close to an eigenvalue of Q
    (Paige, 1976 and 1980; Parlett, The Symmetric Eigenvalue Problem, ch.
    13). So there is no exit at the Krylov space's dimension n(n+1)/2. Q =
    sum_i p_i P_i (x) P_i is PSD and maps the PSD cone into itself, so its
    top eigenspace holds a PSD V, and <I, V> = tr V >= ||V||_F gives q_1 an
    overlap of at least 1/sqrt(n) with it.
    """
    n = model.a_tilde.shape[1]
    q_prev, q, beta = np.zeros((n, n)), np.eye(n) / np.sqrt(n), 0.0
    alphas, betas, rows = [], [], np.empty((CURVE_BLOCK, n * n))
    while True:
        for t in range(CURVE_BLOCK):
            rows[t] = q.ravel()
            w = apply_Q(model, q)
            alphas.append(frob_dot(q, w))
            w -= alphas[-1] * q
            w -= beta * q_prev
            beta = float(np.linalg.norm(w))
            betas.append(beta)
            if beta == 0.0:
                break
            q_prev, q = q, w / beta
        s = len(alphas)
        tri = np.diag(alphas)
        tri[range(s - 1), range(1, s)] = tri[range(1, s), range(s - 1)] = betas[:-1]
        theta, z = np.linalg.eigh(tri)
        if len(model.lanczos_record) * CURVE_BLOCK < s:
            model.lanczos_record.append((s, float(beta * abs(z[-1, -1])), float(theta[-1])))
        yield rows[:t + 1], beta, theta, z
        if beta == 0.0:
            return


def _stepped_w(model, reads):
    """Per block of CURVE_BLOCK iterates W_j = Q^j I, stepped by apply_Q, without
    end: the products <W_j, row> with each row of reads, a (t, n^2) array, as a
    (CURVE_BLOCK, t) array, and ||W_j|| at the block's last j. W is stepped as
    n x n matrices or, on a model with q_table, as their upper entries,
    unpacked once per block."""
    n = model.a_tilde.shape[1]
    blk = CURVE_BLOCK
    w0 = np.eye(n)
    if model.q_table is not None:
        _, upper, full = model.q_table
        w0 = w0.ravel()[upper]
    stack = np.empty((blk, *w0.shape))
    start = 0
    while True:
        for t in range(blk):
            # stack[-1] is the previous block's last iterate
            stack[t] = apply_Q(model, stack[t - 1]) if start + t else w0
        # take, not stack[:, full]: a C-contiguous flat, as the n x n stack's view is,
        # rounds the products below as that one does
        flat = stack.reshape(blk, n * n) if w0.ndim == 2 else stack.take(full, axis=1)
        yield flat @ reads.T, np.hypot.reduce(flat[-1])
        start += blk


def _lanczos_cert(theta, z, beta, horizon):
    """beta sum_{s-1 <= j < horizon-1} |e_s^T T^j e_1| for T = Z diag(theta)
    Z^T of size s, CURVE_TAIL_BLOCKS blocks of j per product."""
    s, blk = theta.size, CURVE_BLOCK
    ends = theta ** np.arange(blk)[:, None] * (z[0] * z[-1])
    total = 0.0
    for first in range(0, horizon, CURVE_TAIL_BLOCKS * blk):
        starts = np.arange(first, min(first + CURVE_TAIL_BLOCKS * blk, horizon), blk)
        j = starts[:, None] + np.arange(blk)
        terms = theta ** starts[:, None] @ ends.T   # e_s^T T^j e_1
        total += np.abs(terms[(j >= s - 1) & (j < horizon - 1)]).sum()
    return beta * total


def _ritz_w(model, reads):
    """_stepped_w's blocks of products with the rows of reads, read from one
    Lanczos run on Q (_lanczos), with a proven bound on ||W_j|| at each block's
    last j in place of ||W_j||: per Lanczos vector q_j it records its products
    y_j with the rows of reads, one product per block of the run.

    The run's s vectors V and tridiagonal T = Z diag(theta) Z^T have Q V =
    V T + beta_s q_{s+1} e_s^T + F whatever V's orthogonality, F the
    run's O(eps ||Q||) rounding, of the order of each stepped apply_Q's,
    which neither source counts (Paige, 1976). So W_k = sqrt(n) (V T^k e_1 +
    E_k), E_k = sum_{j<k} Q^(k-1-j) beta_s q_{s+1} e_s^T T^j e_1, and as
    e_s^T T^j e_1 = 0 for j < s - 1 and ||Q|| <= 1, every k < H has ||E_k||
    <= cert = beta_s sum_{s-1 <= j < H-1} |e_s^T T^j e_1| (_lanczos_cert;
    Saad, SIAM J. Numer. Anal. 29, 1992). Z^T T^k e_1 = theta^k z_1, for z_1
    Z's first row, so a block's readouts sqrt(n) Y^T T^k e_1 are one power
    of theta and one product.

    The k are read in horizons H = CURVE_RITZ_HORIZON, twice that, and so
    on. The run serves a block once it is longer than the block's last k,
    where every W_k is exact by structure, or once the cert of the horizon
    holding the block is at most CURVE_CERT_REL, where no ||W_k - sqrt(n) V
    T^k e_1|| exceeds that fraction of ||W_0|| = sqrt(n) (cert is 0 once
    beta_s = 0, where the run ends). Until then the run grows by
    CURVE_BLOCK steps, and only when asked for the next block. So which
    steps give a value depends on its k alone, never on k_max. If
    LANCZOS_MAX_STEPS steps do not serve a block, W is stepped from W_0
    instead (_stepped_w), and read from that block on.

    V has s unit columns, so ||sqrt(n) V T^k e_1|| <= sqrt(n s) ||T^k e_1||,
    and W_k is that within sqrt(n) cert (exactly so for k < s). ||Q||_2 <=
    lambda_max(P), as X -> X P - Q X is PSD on n x n matrices (<X, X P_i -
    P_i X P_i> = ||(I - P_i) X P_i||^2), so each block's bound also carries
    the previous one's down by lambda_max(P)^CURVE_BLOCK.
    """
    n = model.a_tilde.shape[1]
    blk = CURVE_BLOCK
    decay = min(max(float(model.p_eigvals[-1]), 0.0), 1.0) ** blk
    run, ys = _lanczos(model), []
    start, held, horizon, s, cert = 0, None, CURVE_RITZ_HORIZON, 0, np.inf
    while True:
        if start == horizon:
            horizon *= 2
            cert = _lanczos_cert(theta, z, beta, horizon)
        while s < start + blk and cert > CURVE_CERT_REL:
            if s >= LANCZOS_MAX_STEPS:
                yield from islice(_stepped_w(model, reads), start // blk, None)
            rows, beta, theta, z = next(run)
            ys.append(rows @ reads.T)
            s += len(rows)
            coef = np.sqrt(n) * (z.T @ np.vstack(ys))
            powers = theta ** np.arange(blk)[:, None] * z[0]
            cert = _lanczos_cert(theta, z, beta, horizon)
        g = powers * theta ** start   # rows Z^T T^k e_1
        direct = np.sqrt(n) * (np.sqrt(s) * np.hypot.reduce(g[-1])
                               + (cert if start + blk > s else 0.0))
        held = direct if held is None else min(direct, decay * held)
        yield g @ coef, held
        start += blk


def _lifted_curve(model, z0, v, drive, k_max):
    """The one lifted recursion behind every exact MSE curve.

    Each curve is values[k] = floor + trace(X_k) for X_k = Q X_{k-1} +
    F_{k-1} from X_0 = z0 z0^T - v, centred on its fixed point v (zero for
    zero noise) whose trace is the floor, with a drive F_l = sum_i c_i lam_i^l
    R_i that decays along the first c.size eigenpairs (lam_i, u_i) of the
    model's eigh(P). Q is self-adjoint, so with W_j = Q^j I

        values[k] = floor + <W_k, X_0> + sum_i c_i s_i[k],
        s_i[k] = lam_i s_i[k-1] + <W_{k-1}, R_i>,   s_i[0] = 0.

    drive is (c, op) with R_i = op(model, u_i); an undriven curve has an
    empty c and reads no op. Each source reads W against one array, reads:
    row 0 is vec(X_0) and rows 1.. the mode rows vec(R_i), written one op
    result at a time, so no more than one is held beside it. The products
    come in whole blocks of CURVE_BLOCK j, each with a bound on ||W_j|| at
    its last j, from one of two sources that hand out blocks without end.
    On a model with q_table, _stepped_w steps W by apply_Q, one call per j,
    and its bound is ||W_j|| itself; on any other, _ritz_w reads them from
    one Lanczos run of tens of calls, certified to CURVE_CERT_REL of ||W_0||
    for every j, and its bound is a proven one (it steps W itself if
    LANCZOS_MAX_STEPS steps do not serve a block). Each block is read out
    by one Toeplitz sum of the s_i. values[0] =
    ||z0||^2 exactly. The split ends once the benchmark's tracer self-test
    no longer needs its 6 x 3 run to make at least 100 apply_Q calls.

    This loop alone stops reading, after the first block with owed bound <=
    max(CURVE_STOP_REL floor, owed tiny), owed = ||X_0|| + sum_i |c_i|
    ||R_i|| / (1 - |lam_i|), tiny the least normal double; a source steps
    only when asked for its next block. ||Q||_2 <= 1, Q being a
    convex combination of the orthogonal projectors P_i (x) P_i, so no later
    W moves a value by more than that (Cauchy-Schwarz), and every later value
    is the tail floor + sum_i c_i lam_i^(k - k0) s_i[k0]. hypot sums ||X_0||
    and ||W_j|| free of underflow, so a zero floor decays until ||W|| = tiny,
    below which apply_Q stalls in subnormals. Neither the stop, nor the
    Lanczos run, nor any value depends on k_max. Stepping runs in O(k_stop m
    n^2 + k_max n), k_stop <= k_max.
    """
    n, (c, op), floor = z0.size, drive, float(np.trace(v))
    lam, u = model.p_eigvals[:c.size], model.p_eigvecs
    reads = np.empty((c.size + 1, n * n))
    reads[0] = (np.outer(z0, z0) - v).ravel()
    for i in range(c.size):
        reads[i + 1] = op(model, u[:, i]).ravel()
    modes = reads[1:]
    owed = np.hypot.reduce(reads[0]) + np.abs(c) @ (
        np.sqrt(np.vecdot(modes, modes)) / (1.0 - np.abs(lam)))
    stop = max(CURVE_STOP_REL * floor, owed * np.finfo(float).tiny)
    blk = CURVE_BLOCK
    # sums[t] = s[start + t] = lam^t s[start] + sum_{tau < t} lam^(t-1-tau) rho[tau]
    # for t = 0..blk, with rho[tau] = <W_{start+tau}, R_i>
    pw = lam ** np.arange(blk + 1)[:, None]
    lag = np.arange(blk + 1)[:, None] - np.arange(blk)
    toeplitz = np.where((lag > 0)[:, :, None], pw[np.maximum(lag - 1, 0)], 0.0)
    end = (k_max // blk + 1) * blk
    values = np.empty(end)
    source = _stepped_w if model.q_table is not None else _ritz_w
    s = np.zeros(lam.size)
    start = 0
    for got, bound in source(model, reads):
        sums = pw * s + np.einsum("tui,ui->ti", toeplitz, got[:, 1:])
        values[start:start + blk] = floor + got[:, 0] + sums[:blk] @ c
        s = sums[blk]
        start += blk
        if start == end or owed * bound <= stop:
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


def exact_mse_curve(model, noise, z0, k_max):
    """values[k] = E ||x^(k) - x_true||^2 for k <= k_max, given a FixedNoise's
    vector or averaged over an IidNoise's draws: _lifted_curve around
    _noise_terms' fixed point, whose trace is the floor, with its drive."""
    z0 = check_vector(z0, model.a_tilde.shape[1], "z0")
    k_max = check_int(k_max, "k_max")
    return _lifted_curve(model, z0, *_noise_terms(model, noise, z0), k_max)


def exact_mse_at(model, noise, z0, k):
    """MSE at a single iteration: exact_mse_curve(model, noise, z0, k).values[k]."""
    k = check_int(k, "k")
    return float(exact_mse_curve(model, noise, z0, k).values[k])


def limiting_mse(model, noise):
    """The error floor trace(solve_v1(model, noise)); zero for zero noise."""
    return float(np.trace(solve_v1(model, noise)))


def lambda_max_P(model):
    """Largest eigenvalue of P, exact: read from the model's dense eigh(P)."""
    return float(model.p_eigvals[-1])


def lambda_max_Q(model):
    """Largest eigenvalue of Q: the top Ritz value theta of the first block of
    _lanczos's run whose Ritz residual beta |z_s|, z_s its Ritz vector's last
    entry, is at most LANCZOS_REL_TOL |theta| (Golub & Van Loan, ch. 10); a
    zero beta certifies. Q is PSD, so a negative theta is rounding and reads
    0. A SolverError is raised if LANCZOS_MAX_STEPS steps do not certify it.

    The blocks are read from model.lanczos_record, which the Lanczos run of
    any earlier curve of the model wrote. Only past the record does it step
    a run of its own, from q_1, and that run extends the record.
    """
    record = model.lanczos_record
    run = islice(_lanczos(model), len(record), None)   # steps nothing until taken from
    steps, resid = 0, np.inf
    for b in range(LANCZOS_MAX_STEPS // CURVE_BLOCK):
        if b == len(record):
            next(run)
        steps, resid, theta = record[b]
        if resid <= LANCZOS_REL_TOL * abs(theta):
            return max(theta, 0.0)
    raise SolverError(
        f"Lanczos on Q did not certify lambda_max in {steps} steps "
        f"(Ritz residual {resid:.3e})"
    )


def dense_lift_oracle(model, noise):
    """Assemble P, Q, D, e, f and g's matrix G explicitly.

    D, e and f are those of the FixedNoise noise. G = sum_i (p_i^2/||a_i||^2)
    D_i (I (x) a~_i^T), with D_i the noise-free part of D's i-th term, does
    not depend on it.

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
    scaled = _scaled_eta(model, noise)
    for i in range(m):
        at = model.a_tilde[i]
        proj = eye - np.outer(at, at)
        p_mat += model.p[i] * proj
        q_mat += model.p[i] * np.kron(proj, proj)
        col = at.reshape(-1, 1)
        d_i = np.kron(col, proj) + np.kron(proj, col)
        g_mat += (model.p[i] ** 2 / model.row_norms[i] ** 2) * (d_i @ np.kron(eye, at))
        etai = scaled[i]
        d_mat += model.p[i] * etai * d_i
        e_v += model.p[i] * etai**2 * np.kron(at, at)
        f_v += model.p[i] * etai * at
    return DenseLift(p_mat, q_mat, d_mat, e_v, f_v, g_mat)
