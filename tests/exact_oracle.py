"""Exact rational error floors of randomized Kaczmarz, for the tests.

With row i drawn with probability p_i, the error z = x - x_true steps as
z <- P_i z + b_i, for P_i = I - a_i a_i^T / ||a_i||^2 and
b_i = eta_i a_i / ||a_i||^2. The floor of a noise vector eta is the trace
of the fixed point S of E[z z^T], with m the fixed point of E[z]:

    (I - P) m = sum_i p_i b_i,
    (I - Q) vec S = vec sum_i p_i (b_i b_i^T + P_i m b_i^T + b_i m^T P_i),

where P = sum_i p_i P_i and Q = sum_i p_i P_i (x) P_i. Every entry is
rational in a, p and eta, with no square root, so Fraction arithmetic and
Gauss-Jordan elimination give the floor exactly. Fraction(float) is exact:
given the doubles the code reads, the oracle solves the model the code
solves, and its answer carries no rounding at all.

The floor is a quadratic form in eta, so its mean over i.i.d. noise of
variance sigma2 is sigma2 times the sum of the floors of the unit vectors.

The curve E||z_k||^2 is read from the same two moments stepped k times from
z0 instead, in CURVE_DIGITS-digit decimal, as an exact Fraction curve's
denominators grow by hundreds of bits a step. The stepping acts on the n x n
moment itself, never on the lift, so it shares no code with the floors. The
curve is quadratic in eta too, so its i.i.d. mean follows by polarization.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

CURVE_DIGITS = 50


def _solve(mat, cols):
    """The solutions x of mat x = col for each col, by Gauss-Jordan elimination."""
    n = len(mat)
    aug = [list(row) + [col[r] for col in cols] for r, row in enumerate(mat)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return [[aug[r][n + j] for r in range(n)] for j in range(len(cols))]


def fixed_floors(a, p, etas):
    """The exact floor of each noise vector in etas, for rows a and probabilities p."""
    a = [[Fraction(float(v)) for v in row] for row in a]
    p = [Fraction(float(v)) for v in p]
    n = len(a[0])
    sq = [sum(v * v for v in row) for row in a]
    projs = [[[int(r == c) - row[r] * row[c] / s for c in range(n)] for r in range(n)]
             for row, s in zip(a, sq)]
    i_minus_p = [[int(r == c) - sum(pi * pr[r][c] for pi, pr in zip(p, projs))
                  for c in range(n)] for r in range(n)]
    # vec index r n + c; Q[(r, c), (s, t)] = sum_i p_i P_i[r, s] P_i[c, t]
    i_minus_q = [[int(rc == st) - sum(pi * pr[rc // n][st // n] * pr[rc % n][st % n]
                                      for pi, pr in zip(p, projs))
                  for st in range(n * n)] for rc in range(n * n)]
    bs = [[[Fraction(float(e)) * v / s for v in row] for e, row, s in zip(eta, a, sq)]
          for eta in etas]
    ms = _solve(i_minus_p, [[sum(pi * b[r] for pi, b in zip(p, b_rows)) for r in range(n)]
                            for b_rows in bs])
    rhs = []
    for b_rows, m in zip(bs, ms):
        col = [Fraction(0)] * (n * n)
        for pi, pr, b in zip(p, projs, b_rows):
            pm = [sum(pr[r][c] * m[c] for c in range(n)) for r in range(n)]
            for r in range(n):
                for c in range(n):
                    col[r * n + c] += pi * (b[r] * b[c] + pm[r] * b[c] + b[r] * pm[c])
        rhs.append(col)
    return [sum(s[r * n + r] for r in range(n)) for s in _solve(i_minus_q, rhs)]


def iid_floor(a, p, sigma2):
    """The exact floor averaged over i.i.d. noise of variance sigma2."""
    m = len(a)
    units = [[int(i == j) for i in range(m)] for j in range(m)]
    return Fraction(float(sigma2)) * sum(fixed_floors(a, p, units))


def fixed_curve(a, p, eta, z0, k_max):
    """E ||z_k||^2 for k <= k_max under the noise vector eta, from z_0 = z0.

    Each step maps the mean m and second moment S of z to
    m <- sum_i p_i (P_i m + b_i) and
    S <- sum_i p_i (P_i S P_i + P_i m b_i^T + b_i (P_i m)^T + b_i b_i^T),
    with P_i S P_i = S - u a_i^T - a_i u^T + (a_i^T u / s_i) a_i a_i^T for
    u = S a_i / s_i and s_i = ||a_i||^2.
    """
    with localcontext() as ctx:
        ctx.prec = CURVE_DIGITS
        a = [[Decimal(float(v)) for v in row] for row in a]
        p = [Decimal(float(v)) for v in p]
        sq = [sum(v * v for v in row) for row in a]
        b = [[Decimal(float(e)) * v / s for v in row] for e, row, s in zip(eta, a, sq)]
        m = [Decimal(float(v)) for v in z0]
        n = len(m)
        idx = range(n)
        mom = [[x * y for y in m] for x in m]
        values = [sum(mom[r][r] for r in idx)]
        for _ in range(k_max):
            new_m = [Decimal(0)] * n
            new_mom = [[Decimal(0)] * n for _ in idx]
            for pi, ai, si, bi in zip(p, a, sq, b):
                am = sum(x * y for x, y in zip(ai, m)) / si
                pm = [x - am * y for x, y in zip(m, ai)]
                u = [sum(x * y for x, y in zip(row, ai)) / si for row in mom]
                q = sum(x * y for x, y in zip(ai, u)) / si
                for r in idx:
                    new_m[r] += pi * (pm[r] + bi[r])
                    for c in idx:
                        new_mom[r][c] += pi * (
                            mom[r][c] - u[r] * ai[c] - ai[r] * u[c] + q * ai[r] * ai[c]
                            + pm[r] * bi[c] + bi[r] * pm[c] + bi[r] * bi[c])
            m, mom = new_m, new_mom
            values.append(sum(mom[r][r] for r in idx))
    return values


def iid_curve(a, p, sigma2, z0, k_max):
    """fixed_curve averaged over i.i.d. noise of variance sigma2:
    c(0) + sigma2 sum_j [(c(e_j) + c(-e_j)) / 2 - c(0)] for the unit vectors e_j."""
    m = len(a)
    units = [[int(i == j) for i in range(m)] for j in range(m)]
    base = fixed_curve(a, p, [0] * m, z0, k_max)
    with localcontext() as ctx:
        ctx.prec = CURVE_DIGITS
        total = [Decimal(0)] * (k_max + 1)
        for e in units:
            plus = fixed_curve(a, p, e, z0, k_max)
            minus = fixed_curve(a, p, [-v for v in e], z0, k_max)
            total = [t + (x + y) / 2 - c for t, x, y, c in zip(total, plus, minus, base)]
        return [c + Decimal(float(sigma2)) * t for c, t in zip(base, total)]
