import os

import numpy as np
import pytest

from kaczlab import build_model, dense_lift_oracle, gen_gaussian, lifted, make_distribution
from kaczlab.seeding import rng_from

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def random_instance(m, n, seed, noise_scale=1.0):
    """A seeded (system, distribution, eta, z0) tuple for oracle tests."""
    sys = gen_gaussian(m, n, 1.0, seed)
    rng = rng_from(seed, 0xBEEF)
    dist = make_distribution(rng.random(m) + 0.2)
    eta = noise_scale * rng.standard_normal(m)
    z0 = rng.standard_normal(n)
    return sys, dist, eta, z0


def random_model(m, n, seed, noise_scale=1.0):
    sys, dist, eta, z0 = random_instance(m, n, seed, noise_scale)
    return build_model(sys, dist, eta), z0


def dense_exact_curve(model, z0, k_max):
    """trace(S_k) for k <= k_max, stepping the inhomogeneous form
    S <- Q S + D m + e, m <- P m + f on the assembled Kronecker matrices from
    (z0 (x) z0, z0)."""
    n = z0.size
    dense = dense_lift_oracle(model)
    s, mv = np.kron(z0, z0), z0.copy()
    want = [z0 @ z0]
    for _ in range(k_max):
        s, mv = dense.Q @ s + dense.D @ mv + dense.e, dense.P @ mv + dense.f
        want.append(np.trace(s.reshape(n, n)))
    return np.array(want)


def dense_avg_curve(model, z0, k_max):
    """(values, floor) of the noise-averaged curve on the assembled Kronecker
    matrices: Q^k (z0 z0^T - E v1) - sigma2 sum_{l<k} Q^l G vec(P^(k-1-l)
    (I-P)^-1) + tr(E v1), with E v1 by a dense solve."""
    base, sigma2 = model.base, model.sigma2
    m, n = base.a_tilde.shape
    dense = dense_lift_oracle(base)
    gram_rhs = sum(
        base.p[i] / base.row_norms[i] ** 2 * np.kron(base.a_tilde[i], base.a_tilde[i])
        for i in range(m)
    )
    m_pow = np.linalg.inv(np.eye(n) - dense.P)
    ev1 = sigma2 * np.linalg.solve(
        np.eye(n * n) - dense.Q, gram_rhs + dense.G @ m_pow.ravel()
    )
    floor = np.trace(ev1.reshape(n, n))
    s, u = np.kron(z0, z0) - ev1, np.zeros(n * n)
    want = [z0 @ z0]
    for _ in range(k_max):
        s = dense.Q @ s
        u = dense.Q @ u + dense.G @ m_pow.ravel()
        m_pow = dense.P @ m_pow
        want.append(np.trace(s.reshape(n, n)) - sigma2 * np.trace(u.reshape(n, n)) + floor)
    return np.array(want), floor


@pytest.fixture
def fixture_dir():
    return FIXTURE_DIR


@pytest.fixture
def apply_q_calls(monkeypatch):
    """A list that gains one entry per lifted.apply_Q call from here on."""
    calls = []
    real = lifted.apply_Q

    def counted(model, s):
        calls.append(None)
        return real(model, s)

    monkeypatch.setattr(lifted, "apply_Q", counted)
    return calls
