"""Randomized Kaczmarz iteration and the Monte Carlo estimation harness."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from ._num import sq_norm
from .problems import FixedNoise, make_measurements
from .seeding import mix_seed

# tags separating the row-choice and noise-draw streams of one experiment seed
_ROWS_TAG = 0x52
_NOISE_TAG = 0x4E


@dataclass(frozen=True)
class RowDistribution:
    """Row-selection probabilities with their inclusive prefix-sum table."""

    p: np.ndarray
    cum: np.ndarray = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or not np.all(np.isfinite(p)) or np.any(p <= 0.0):
            raise ValueError("all probabilities must be finite and > 0")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
        cum = np.cumsum(p)
        cum[-1] = 1.0  # forced exact so u < 1 always lands in range
        for arr in (p, cum):
            arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "cum", cum)

    @property
    def m(self):
        return self.p.shape[0]


@dataclass(frozen=True)
class EmpiricalCurve:
    """Per-iteration sample mean and standard error of ||x^(k) - x_true||^2."""

    mse_mean: np.ndarray
    mse_stderr: np.ndarray
    trials: int


def make_distribution(weights):
    """Normalize positive weights into a RowDistribution."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D vector")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("all weights must be finite and > 0 (every row needs "
                         "nonzero selection probability)")
    return RowDistribution(w / w.sum())


def row_norm_distribution(sys):
    """The classical choice p_i = ||a_i||^2 / ||A||_F^2."""
    return make_distribution(sys.row_norms**2)


def uniform_distribution(m):
    return make_distribution(np.ones(m))


def sample_row(dist, u):
    """Smallest i with cum[i] > u, for u in [0, 1)."""
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must be in [0, 1), got {u}")
    return int(np.searchsorted(dist.cum, u, side="right"))


def sample_rows(dist, u):
    """Vectorized sample_row for an array of uniforms."""
    return np.searchsorted(dist.cum, u, side="right").astype(np.int64)


def rka_step(x, a_i, norm_i, y_i):
    """Project x onto the hyperplane {v : a_i^T v = y_i}."""
    if norm_i <= 0.0:
        raise ValueError("row norm must be positive")
    return x + ((y_i - a_i @ x) / norm_i**2) * a_i


def run_trial(sys, y, dist, x0, k_max, seed):
    """One Kaczmarz run; returns ||x^(k) - x_true||^2 for k = 0..k_max.

    Row choices come from the generator seeded by `seed` (one uniform per
    iteration through sample_rows), so the trajectory is reproducible.
    """
    m, n = sys.a.shape
    y = np.ascontiguousarray(y, dtype=float)
    x0 = np.ascontiguousarray(x0, dtype=float)
    if y.shape != (m,) or x0.shape != (n,) or dist.m != m:
        raise ValueError("dimension mismatch between system, y, dist and x0")
    rng = np.random.default_rng(seed)
    rows = sample_rows(dist, rng.random(k_max))
    inv_norms_sq = 1.0 / sys.row_norms**2
    errs = kernels.run_trial_errors(sys.a, y, inv_norms_sq, rows, x0, sys.x_true)
    errs[0] = sq_norm(x0 - sys.x_true)
    return errs


def trial_row_seed(seed, trial):
    """Seed of the row-choice stream of one Monte Carlo trial."""
    return mix_seed(seed, _ROWS_TAG, trial)


def trial_noise_seed(seed, trial=None):
    """Seed of the noise draw; trial=None is the shared (resample=False) draw."""
    if trial is None:
        return mix_seed(seed, _NOISE_TAG)
    return mix_seed(seed, _NOISE_TAG, trial)


def monte_carlo_mse(sys, noise, dist, x0, k_max, trials, seed,
                    resample_noise=False, threads=1):
    """Sample mean/standard error of the squared-error trajectory over trials.

    Each trial draws rows from an independent stream hashed from
    (seed, trial), so results do not depend on execution order. With
    IidNoise, resample_noise=False realizes one eta shared by all trials
    and True redraws it per trial; FixedNoise ignores the flag.

    threads > 1 runs trials in a thread pool; the compiled kernel releases
    the GIL so this scales, and the reduction is deterministic either way.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m, n = sys.a.shape
    x0 = np.ascontiguousarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have length {n}")

    if isinstance(noise, FixedNoise) or not resample_noise:
        y_shared, _ = make_measurements(sys, noise, trial_noise_seed(seed))
    else:
        y_shared = None

    errs = np.empty((trials, k_max + 1))

    def one(t):
        if y_shared is not None:
            y = y_shared
        else:
            y, _ = make_measurements(sys, noise, trial_noise_seed(seed, t))
        errs[t] = run_trial(sys, y, dist, x0, k_max, trial_row_seed(seed, t))

    if threads > 1 and trials > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, range(trials)))
    else:
        for t in range(trials):
            one(t)

    mean = errs.mean(axis=0)
    if trials > 1:
        stderr = errs.std(axis=0, ddof=1) / np.sqrt(trials)
    else:
        stderr = np.zeros(k_max + 1)
    # common z0 across trials: index 0 is exact by construction
    mean[0] = sq_norm(x0 - sys.x_true)
    stderr[0] = 0.0
    return EmpiricalCurve(mean, stderr, trials)
