"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import time

import numpy as np
import pytest

from kaczlab import (
    FixedNoise,
    IidNoise,
    apply_Q,
    build_model,
    dense_lift_oracle,
    exact_mse_curve,
    gen_gaussian,
    gen_identity,
    gen_tomography,
    lambda_max_P,
    lambda_max_Q,
    limiting_mse,
    monte_carlo_mse,
    row_norm_distribution,
    zf_general_bound_curve,
)
from kaczlab.seeding import rng_from
from kaczlab.validate import dense_lift_checks, enumeration_checks, spectral_checks

from conftest import random_instance


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_exhaustive_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    sizes = [(2, 2), (3, 2), (3, 3), (4, 3), (4, 2)]
    for seed in range(20):
        m, n = sizes[seed % len(sizes)]
        k_max = 3 + seed % 3      # 3..5
        sys, dist, eta, z0 = random_instance(m, n, seed + 1000)
        worst = max(worst, *enumeration_checks(sys, dist, eta, z0, k_max).values())
        cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0 and cases >= 20
    report(1, "exhaustive-oracle equivalence", ok,
           f"{cases} instances, worst relative deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_dense_lift_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed, (m, n) in enumerate([(6, 3), (8, 4), (9, 5), (10, 6), (7, 4), (12, 6)]):
        sys, dist, eta, _ = random_instance(m, n, seed + 2000)
        model = build_model(sys, dist)
        rng = rng_from(seed, 0xACC2)
        v = rng.standard_normal(n)
        s = rng.standard_normal((n, n))
        mmat = rng.standard_normal((n, n))
        worst = max(worst, *dense_lift_checks(model, FixedNoise(eta), v, s, mmat).values())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(2, "dense-lift equivalence", ok,
           f"worst relative deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_fixed_noise_experiment():
    t0 = time.perf_counter()
    sys = gen_gaussian(150, 50, 1.0, 20250811)
    dist = row_norm_distribution(sys)
    rng = rng_from(20250811, 0xF16A)
    eta = rng.standard_normal(150)
    eta *= np.sqrt(1.6) / np.linalg.norm(eta)       # ||eta||^2 = 1.6
    x0 = sys.x_true + rng.standard_normal(50)
    z0 = x0 - sys.x_true
    model, noise = build_model(sys, dist), FixedNoise(eta)
    exact = exact_mse_curve(model, noise, z0, 2000)
    emp = monte_carlo_mse(model, noise, z0, 2000, 1007, seed=606)
    rows = []
    ok = True
    for k in (0, 1, 10, 100, 500, 1000, 2000):
        diff = abs(emp.mse_mean[k] - exact.values[k])
        lim = 4 * emp.mse_stderr[k]
        ok &= diff <= lim
        rows.append(f"k={k}:{diff:.1e}<={lim:.1e}")
    zf = zf_general_bound_curve(model, noise, z0, 2000)   # Zouzias-Freris for row-norm p
    slack = 1e-12 * exact.values[0]
    dom = bool(np.all(zf >= exact.values - slack))
    dom_emp = bool(np.all(zf >= emp.mse_mean - slack))
    elapsed = time.perf_counter() - t0
    ok = ok and dom and dom_emp and elapsed < 120.0
    report(3, "fixed-noise experiment", ok,
           f"{'; '.join(rows)}; bounds dominate={dom}; {elapsed:.1f}s")


def test_criterion_4_noise_averaged_experiment():
    t0 = time.perf_counter()
    sys = gen_tomography(10, 15, 10)
    m, n = sys.a.shape
    dist = row_norm_distribution(sys)
    sigma2 = 2.25e-4
    model, noise = build_model(sys, dist), IidNoise(sigma2)
    x0 = np.zeros(n)
    z0 = x0 - sys.x_true
    theory = exact_mse_curve(model, noise, z0, 3000)
    emp = monte_carlo_mse(model, noise, z0, 3000, 1007, seed=707)
    rows = []
    ok = True
    for k in (0, 500, 1500, 3000):
        diff = abs(emp.mse_mean[k] - theory.values[k])
        lim = 4 * emp.mse_stderr[k]
        ok &= diff <= lim
        rows.append(f"k={k}:{diff:.1e}<={lim:.1e}")
    bound_floor = zf_general_bound_curve(model, noise, np.zeros(n), 0)[0]
    floor = limiting_mse(model, noise)
    ratio = bound_floor / floor
    ok = ok and ratio >= 1.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(4, "noise-averaged experiment", ok,
           f"system {m}x{n}; {'; '.join(rows)}; bound-floor/exact-floor = "
           f"{ratio:.1f} (hard assertion: ratio >= 1); {elapsed:.1f}s")


def dense_floors(model, noise, sigma2):
    """trace(v1) of a FixedNoise and trace(E v1) of IidNoise(sigma2) by dense
    solves on the assembled Kronecker lift."""
    m, n = model.a_tilde.shape
    dense = dense_lift_oracle(model, noise)
    i_minus_p, i_minus_q = np.eye(n) - dense.P, np.eye(n * n) - dense.Q
    v2 = np.linalg.solve(i_minus_p, dense.f)
    v1 = np.linalg.solve(i_minus_q, dense.e + dense.D @ v2)
    gram_rhs = sum(
        model.p[i] / model.row_norms[i] ** 2 * np.kron(model.a_tilde[i], model.a_tilde[i])
        for i in range(m)
    )
    ev1 = sigma2 * np.linalg.solve(
        i_minus_q, gram_rhs + dense.G @ np.linalg.inv(i_minus_p).ravel()
    )
    return np.trace(v1.reshape(n, n)), np.trace(ev1.reshape(n, n))


def test_criterion_5_limiting_consistency():
    worst_exact = worst_avg = worst_dense = 0.0
    k_big = 100_000
    sigma2 = 1e-3
    for i in range(10):
        m = 6 + 2 * i            # 6..24
        n = 2 + i % 7            # 2..8
        sys, dist, eta, z0 = random_instance(m, n, i + 3000, noise_scale=0.4)
        model, noise = build_model(sys, dist), FixedNoise(eta)
        curve = exact_mse_curve(model, noise, z0, k_big)
        worst_exact = max(worst_exact, abs(curve.values[-1] - curve.floor) / curve.floor)
        acurve = exact_mse_curve(model, IidNoise(sigma2), z0, k_big)
        worst_avg = max(worst_avg, abs(acurve.values[-1] - acurve.floor) / acurve.floor)
        floor, afloor = dense_floors(model, noise, sigma2)
        worst_dense = max(worst_dense, abs(curve.floor - floor) / floor,
                          abs(acurve.floor - afloor) / afloor)
    ok = worst_exact <= 1e-8 and worst_avg <= 1e-8 and worst_dense <= 1e-8
    report(5, "limiting-MSE consistency", ok,
           f"worst |values[1e5]-floor|/floor: exact {worst_exact:.2e}, "
           f"noise-averaged {worst_avg:.2e}; worst floor vs dense lift {worst_dense:.2e}")


def test_criterion_6_identity_tightness():
    n = 5
    sys = gen_identity(n)
    dist = row_norm_distribution(sys)      # uniform for the identity
    z0 = rng_from(6, 0xACC6).standard_normal(n)
    k_max = 60
    model = build_model(sys, dist)
    exact = exact_mse_curve(model, FixedNoise(np.zeros(n)), z0, k_max).values
    closed = float(z0 @ z0) * (1 - 1 / n) ** np.arange(k_max + 1)
    bound = zf_general_bound_curve(model, IidNoise(0.0), z0, k_max)   # Strohmer-Vershynin
    dev_closed = np.max(np.abs(exact - closed) / closed)
    dev_bound = np.max(np.abs(exact - bound) / closed)
    ok = dev_closed <= 1e-12 and dev_bound <= 1e-12
    report(6, "identity tightness", ok,
           f"closed-form dev {dev_closed:.2e}, bound dev {dev_bound:.2e} (tight)")


def test_criterion_7_spectral_suite():
    worst_order = worst_trace = 0.0
    for seed in range(20):
        n = 2 + seed % 4       # 2..5 so the dense lift stays small
        m = n + 2 + seed % 4
        sys, dist, eta, _ = random_instance(m, n, seed + 4000)
        model = build_model(sys, dist)
        lam_q, lam_p = lambda_max_Q(model), lambda_max_P(model)
        assert 0.0 < lam_q and lam_p < 1.0
        rng = rng_from(seed, 0xACC7)
        b = rng.standard_normal((n, n))
        dev = spectral_checks(model, FixedNoise(eta), b + b.T, rng.standard_normal(n))
        worst_order = max(worst_order, dev["lambda_q_le_lambda_p"])
        worst_trace = max(worst_trace, dev["trace_Q_identity"], dev["trace_D_zero"])
    ok = worst_order <= 1e-9 and worst_trace <= 1e-12
    report(7, "spectral suite", ok,
           f"worst ordering slack {worst_order:.2e}, trace-identity dev {worst_trace:.2e}")


def test_criterion_8_sigma2_linearity():
    sys, dist, _, z0 = random_instance(15, 5, 8000)
    base = build_model(sys, dist)
    k_max = 80
    noiseless = exact_mse_curve(base, IidNoise(0.0), z0, k_max).values
    worst = 0.0
    ref_s = 1e-6
    ref = exact_mse_curve(base, IidNoise(ref_s), z0, k_max).values
    unit_noise = (ref - noiseless) / ref_s          # per-sigma2 contribution
    for s2 in (1e-6, 1e-4, 1e-2):
        curve = exact_mse_curve(base, IidNoise(s2), z0, k_max).values
        predicted = noiseless + s2 * unit_noise
        worst = max(worst, np.max(np.abs(curve - predicted) / np.abs(curve)))
    ok = worst <= 1e-10
    report(8, "sigma2 linearity", ok, f"worst relative deviation {worst:.2e}")


def test_criterion_9_complexity_scaling():
    # one apply_Q on a symmetric n x n input: the O(m n^2) layer that every
    # exact curve, (I - Q) solve and lambda_max(Q) run steps. A whole curve
    # also holds fixed O(m n^3) work (its n mode readouts), which is not per step.
    # m large enough that both sizes stream from memory; at small m the n=50
    # working set fits L2 while n=100 spills, and the timing ratio measures
    # the cache cliff instead of the algorithm
    m = 1000
    calls = 40
    runs = {}
    for n in (50, 100):
        sys = gen_gaussian(m, n, 1.0, 9000 + n)
        model = build_model(sys, row_norm_distribution(sys))
        x = rng_from(n, 0xACCA).standard_normal((n, n))
        s = x + x.T   # its bytes equal those of its transpose
        apply_Q(model, s)  # warm-up
        runs[n] = (model, s)

    def per_call(n):
        t0 = time.perf_counter()
        for _ in range(calls):
            apply_Q(*runs[n])
        return (time.perf_counter() - t0) / calls

    # the two sizes are timed pair by pair, in alternating order, so both
    # samples of a pair see the same load on the host
    samples = {50: [], 100: []}
    for i in range(5):
        for n in ((50, 100), (100, 50))[i % 2]:
            samples[n].append(per_call(n))
    ratio = float(np.median(np.divide(samples[100], samples[50])))
    times = {n: float(np.median(s)) for n, s in samples.items()}
    ok = ratio <= 4.5
    report(9, "O(m n^2) complexity scaling", ok,
           f"apply_Q median: n=50 {times[50]*1e3:.3f}ms, n=100 {times[100]*1e3:.3f}ms, "
           f"median per-pair ratio {ratio:.2f} (<= 4.5)")
