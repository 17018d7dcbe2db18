"""Small-instance oracle suite backing the `validate` CLI command.

Ground truth comes from two places that share nothing with the implicit
operator implementations: probability-weighted enumeration of every row
sequence, and explicitly assembled dense Kronecker operators.
"""

import numpy as np

from .lifted import (
    apply_D,
    apply_P,
    apply_Q,
    build_model,
    dense_lift_oracle,
    exact_mse_at,
    exact_mse_curve,
    lambda_max_P,
    lambda_max_Q,
    limiting_mse,
    solve_v1,
    solve_v2,
)
from .noise_avg import g_apply
from .problems import gen_gaussian
from .rka import make_distribution, row_norm_distribution
from .seeding import rng_from

ENUM_LIMIT = 100_000


def enumerated_mse_curve(sys, eta, dist, z0, k_max):
    """E ||x^(k) - x_true||^2 for k = 0..k_max by exhaustive enumeration.

    Walks every row sequence of length k_max with its probability, running
    the raw projection update in x-space. Exponential in k_max; guarded to
    m^k_max <= 100_000.
    """
    m, n = sys.a.shape
    if m**k_max > ENUM_LIMIT:
        raise ValueError(f"enumeration over {m}^{k_max} sequences exceeds {ENUM_LIMIT}")
    eta = np.zeros(m) if eta is None else np.asarray(eta, dtype=float)
    y = sys.a @ sys.x_true + eta
    norms_sq = sys.row_norms**2
    acc = np.zeros(k_max + 1)

    def rec(x, weight, depth):
        d = x - sys.x_true
        acc[depth] += weight * (d @ d)
        if depth == k_max:
            return
        for i in range(m):
            xi = x + ((y[i] - sys.a[i] @ x) / norms_sq[i]) * sys.a[i]
            rec(xi, weight * dist.p[i], depth + 1)

    rec(sys.x_true + np.asarray(z0, dtype=float), 1.0, 0)
    return acc


def _rel_dev(got, want):
    want = np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - want))) / scale


def _check(name, deviation, tolerance):
    return {
        "name": name,
        "passed": bool(deviation <= tolerance),
        "deviation": float(deviation),
        "tolerance": float(tolerance),
    }


def _random_instance(m, n, seed):
    sys = gen_gaussian(m, n, 1.0, seed)
    rng = rng_from(seed, 0xC)
    dist = make_distribution(rng.random(m) + 0.25)
    eta = rng.standard_normal(m)
    z0 = rng.standard_normal(n)
    return sys, dist, eta, z0


def run_suite(corrupt_lambda_tolerance=False):
    """Run every oracle check; returns a list of {name, passed, deviation, tolerance}.

    corrupt_lambda_tolerance deliberately breaks the spectral-ordering
    tolerance so the harness's failure path can be exercised end to end.
    """
    checks = []
    lam_tol = -1.0 if corrupt_lambda_tolerance else 1e-9

    # exhaustive-sequence oracle vs both exact-MSE forms
    for m, n, seed in [(3, 2, 11), (4, 3, 12)]:
        sys, dist, eta, z0 = _random_instance(m, n, seed)
        k_max = 4
        model = build_model(sys, dist, eta)
        enum = enumerated_mse_curve(sys, eta, dist, z0, k_max)
        curve = exact_mse_curve(model, z0, k_max).values
        checks.append(_check(f"enum_vs_curve_{m}x{n}", _rel_dev(curve, enum), 1e-10))
        at_k = np.array([exact_mse_at(model, z0, k) for k in range(k_max + 1)])
        checks.append(_check(f"enum_vs_closed_form_{m}x{n}", _rel_dev(at_k, enum), 1e-10))

    # dense Kronecker oracle vs the implicit operators and solvers
    sys, dist, eta, z0 = _random_instance(4, 3, 13)
    model = build_model(sys, dist, eta)
    n = 3
    dense = dense_lift_oracle(model)
    rng = rng_from(13, 0xD)
    v = rng.standard_normal(n)
    smat = rng.standard_normal((n, n))
    checks.append(_check("dense_P", _rel_dev(apply_P(model, v), dense.P @ v), 1e-13))
    checks.append(
        _check(
            "dense_Q",
            _rel_dev(apply_Q(model, smat), (dense.Q @ smat.ravel()).reshape(n, n)),
            1e-12,
        )
    )
    checks.append(
        _check(
            "dense_D",
            _rel_dev(apply_D(model, v), (dense.D @ v).reshape(n, n)),
            1e-12,
        )
    )
    mrand = rng.standard_normal((n, n))
    dense_g = (dense.G @ mrand.ravel()).reshape(n, n)
    checks.append(_check("dense_g", _rel_dev(g_apply(model, mrand), dense_g), 1e-12))
    v2_dense = np.linalg.solve(np.eye(n) - dense.P, dense.f)
    checks.append(_check("dense_v2", _rel_dev(solve_v2(model), v2_dense), 1e-10))
    v1_dense = np.linalg.solve(
        np.eye(n * n) - dense.Q, dense.e + dense.D @ v2_dense
    ).reshape(n, n)
    checks.append(_check("dense_v1", _rel_dev(solve_v1(model), v1_dense), 1e-9))

    # spectral assertions
    lam_p = lambda_max_P(model)
    lam_q = lambda_max_Q(model)
    checks.append(_check("lambda_q_le_lambda_p", max(lam_q - lam_p, 0.0), lam_tol))
    checks.append(_check("lambda_p_below_one", max(lam_p - (1.0 - 1e-12), 0.0), lam_tol))
    checks.append(_check("lambda_q_positive", max(1e-12 - lam_q, 0.0), lam_tol))
    checks.append(_check("dense_lambda_p", abs(lam_p - np.linalg.eigvalsh(dense.P)[-1]), lam_tol))
    checks.append(_check("dense_lambda_q", abs(lam_q - np.linalg.eigvalsh(dense.Q)[-1]), lam_tol))
    h_eigs = np.sort(np.linalg.eigvals(dense.H).real)
    pq_eigs = np.sort(
        np.concatenate([np.linalg.eigvalsh(dense.Q), np.linalg.eigvalsh(dense.P)])
    )
    checks.append(_check("h_spectrum_union", float(np.max(np.abs(h_eigs - pq_eigs))), 1e-8))

    # trace identities: vec(I)^T Q = vec(P)^T and D^T vec(I) = 0
    sym = smat + smat.T
    tq = abs(np.trace(apply_Q(model, sym)) - np.trace(dense.P @ sym))
    checks.append(_check("trace_Q_identity", tq / max(abs(np.trace(sym)), 1.0), 1e-12))
    td = abs(np.trace(apply_D(model, v))) / max(float(np.linalg.norm(v)), 1e-300)
    checks.append(_check("trace_D_zero", td, 1e-12))

    # scalar collapse: n = 1 means every projector is zero
    sys1 = gen_gaussian(3, 1, 1.0, 14)
    rng1 = rng_from(14, 0xC)
    eta1 = rng1.standard_normal(3)
    model1 = build_model(sys1, row_norm_distribution(sys1), eta1)
    expected_floor = float(np.sum(model1.p * model1.eta_tilde**2))
    checks.append(
        _check(
            "scalar_floor",
            abs(limiting_mse(model1) - expected_floor) / expected_floor,
            1e-12,
        )
    )
    curve1 = exact_mse_curve(model1, np.array([2.0]), 3).values
    checks.append(
        _check("scalar_curve_constant", _rel_dev(curve1[1:], expected_floor), 1e-12)
    )
    checks.append(_check("scalar_lambdas_zero", abs(lambda_max_P(model1)) + abs(lambda_max_Q(model1)), 1e-12))

    return checks
