"""Oracle checks shared by the `validate` CLI command and the acceptance suite.

Ground truth comes from two places that share nothing with the implicit
operator implementations: probability-weighted enumeration of every row
sequence, and explicitly assembled dense Kronecker operators. Each check
function returns {check name: deviation}; TOLERANCES holds the limit of
every name that run_suite reports.
"""

import numpy as np

from .lifted import (
    apply_D,
    apply_Q,
    build_model,
    dense_lift_oracle,
    dense_p,
    exact_mse_at,
    exact_mse_curve,
    g_apply,
    lambda_max_P,
    lambda_max_Q,
    limiting_mse,
    solve_v1,
    solve_v2,
)
from .problems import FixedNoise, gen_gaussian
from .rka import make_distribution, row_norm_distribution
from .seeding import rng_from

ENUM_LIMIT = 100_000

TOLERANCES = {
    "enum_vs_curve": 1e-10, "enum_vs_closed_form": 1e-10,
    "dense_P": 1e-13, "dense_Q": 1e-12, "dense_D": 1e-12, "dense_g": 1e-12,
    "dense_v2": 1e-10, "dense_v1": 1e-9,
    "lambda_q_le_lambda_p": 1e-9, "lambda_p_below_one": 1e-9, "lambda_q_positive": 1e-9,
    "dense_lambda_p": 1e-9, "dense_lambda_q": 1e-9,
    "trace_Q_identity": 1e-12, "trace_D_zero": 1e-12,
    "scalar_floor": 1e-12, "scalar_curve_constant": 1e-12, "scalar_lambdas_zero": 1e-12,
}


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


def enumeration_checks(sys, dist, eta, z0, k_max):
    """exact_mse_curve and exact_mse_at against exhaustive enumeration, k <= k_max."""
    model, noise = build_model(sys, dist), FixedNoise(eta)
    enum = enumerated_mse_curve(sys, eta, dist, z0, k_max)
    at_k = [exact_mse_at(model, noise, z0, k) for k in range(k_max + 1)]
    return {
        "enum_vs_curve": _rel_dev(exact_mse_curve(model, noise, z0, k_max).values, enum),
        "enum_vs_closed_form": _rel_dev(at_k, enum),
    }


def dense_lift_checks(model, noise, v, s, mmat):
    """P, Q, D, g, v2 and v1 of a FixedNoise against the dense lift, on v and n x n s, mmat.

    Q is checked on s and on s + s^T: a non-symmetric s takes apply_Q's
    implicit form, and s + s^T its table.
    """
    n = model.a_tilde.shape[1]
    dense = dense_lift_oracle(model, noise)
    v2 = np.linalg.solve(np.eye(n) - dense.P, dense.f)
    v1 = np.linalg.solve(np.eye(n * n) - dense.Q, dense.e + dense.D @ v2).reshape(n, n)
    return {
        "dense_P": _rel_dev(dense_p(model) @ v, dense.P @ v),
        "dense_Q": max(_rel_dev(apply_Q(model, x), (dense.Q @ x.ravel()).reshape(n, n))
                       for x in (s, s + s.T)),
        "dense_D": _rel_dev(apply_D(model, noise, v), (dense.D @ v).reshape(n, n)),
        "dense_g": _rel_dev(g_apply(model, mmat), (dense.G @ mmat.ravel()).reshape(n, n)),
        "dense_v2": _rel_dev(solve_v2(model, noise), v2),
        "dense_v1": _rel_dev(solve_v1(model, noise), v1),
    }


def spectral_checks(model, noise, s, v):
    """0 < lambda_max(Q) <= lambda_max(P) < 1 (as violations), both against dense
    eigvalsh, and, for symmetric s, the identities tr(Q s) = tr(P s) and
    tr(D v) = 0.
    """
    dense = dense_lift_oracle(model, noise)
    lam_p = lambda_max_P(model)
    lam_q = lambda_max_Q(model)
    tq = abs(np.trace(apply_Q(model, s)) - np.trace(dense.P @ s))
    td = abs(np.trace(apply_D(model, noise, v)))
    return {
        "lambda_q_le_lambda_p": max(lam_q - lam_p, 0.0),
        "lambda_p_below_one": max(lam_p - (1.0 - 1e-12), 0.0),
        "lambda_q_positive": max(1e-12 - lam_q, 0.0),
        "dense_lambda_p": abs(lam_p - np.linalg.eigvalsh(dense.P)[-1]),
        "dense_lambda_q": abs(lam_q - np.linalg.eigvalsh(dense.Q)[-1]),
        "trace_Q_identity": tq / max(abs(np.trace(s)), 1.0),
        "trace_D_zero": td / max(float(np.linalg.norm(v)), 1e-300),
    }


def _checks(deviations, suffix=""):
    return [
        {
            "name": name + suffix,
            "passed": bool(dev <= TOLERANCES[name]),
            "deviation": float(dev),
            "tolerance": float(TOLERANCES[name]),
        }
        for name, dev in deviations.items()
    ]


def _random_instance(m, n, seed):
    sys = gen_gaussian(m, n, 1.0, seed)
    rng = rng_from(seed, 0xC)
    dist = make_distribution(rng.random(m) + 0.25)
    eta = rng.standard_normal(m)
    z0 = rng.standard_normal(n)
    return sys, dist, eta, z0


def run_suite():
    """Run every oracle check; returns a list of {name, passed, deviation, tolerance}."""
    checks = []
    for m, n, seed in [(3, 2, 11), (4, 3, 12)]:
        sys, dist, eta, z0 = _random_instance(m, n, seed)
        checks += _checks(enumeration_checks(sys, dist, eta, z0, 4), f"_{m}x{n}")

    sys, dist, eta, _ = _random_instance(4, 3, 13)
    model, noise = build_model(sys, dist), FixedNoise(eta)
    rng = rng_from(13, 0xD)
    v = rng.standard_normal(3)
    smat = rng.standard_normal((3, 3))
    mrand = rng.standard_normal((3, 3))
    checks += _checks(dense_lift_checks(model, noise, v, smat, mrand))
    checks += _checks(spectral_checks(model, noise, smat + smat.T, v))

    # scalar collapse: n = 1 means every projector is zero
    sys1 = gen_gaussian(3, 1, 1.0, 14)
    eta1 = rng_from(14, 0xC).standard_normal(3)
    model1, noise1 = build_model(sys1, row_norm_distribution(sys1)), FixedNoise(eta1)
    expected_floor = float(np.sum(model1.p * (eta1 / sys1.row_norms)**2))
    curve1 = exact_mse_curve(model1, noise1, np.array([2.0]), 3).values
    checks += _checks({
        "scalar_floor": abs(limiting_mse(model1, noise1) - expected_floor) / expected_floor,
        "scalar_curve_constant": _rel_dev(curve1[1:], expected_floor),
        "scalar_lambdas_zero": abs(lambda_max_P(model1)) + abs(lambda_max_Q(model1)),
    })
    return checks
