"""Randomized Kaczmarz iteration and the Monte Carlo estimation harness."""

from dataclasses import dataclass, field

import numpy as np

from ._num import check_int, check_vector, set_fields, sq_norm
from .problems import FixedNoise, draw_eta
from .seeding import mix_seed, mix_seeds, rngs_from

# tags separating the row-choice and noise-draw streams of one experiment seed
_ROWS_TAG = 0x52
_NOISE_TAG = 0x4E

# steps per chunk of monte_carlo_mse; the curve does not depend on it
STEP_CHUNK = 128


@dataclass(frozen=True)
class RowDistribution:
    """Row-selection probabilities, their inclusive prefix sums and guide table.

    guide[b] is the smallest i with cum[i] > b / G, for G the least power of
    two >= 4m (Chen & Asau, 1974; Devroye, Non-Uniform Random Variate
    Generation, 1986, sec. III.2). G is a power of two, so b = floor(u G) and
    b / G are exact: b / G <= u, hence guide[b] is at most the smallest i with
    cum[i] > u, and b <= G - 1 for u < 1. sample_rows starts each uniform at
    guide[b] and advances while cum[idx] <= u, on average at most m / G <= 1/4
    steps per uniform, landing on exactly searchsorted's answer.
    """

    p: np.ndarray
    cum: np.ndarray = field(init=False)
    guide: np.ndarray = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or not np.all(np.isfinite(p)) or np.any(p <= 0.0):
            raise ValueError("all probabilities must be finite and > 0")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {float(p.sum())!r}")
        cum = np.cumsum(p)
        cum[-1] = 1.0  # forced exact so u < 1 always lands in range
        g = 1 << (4 * cum.size - 1).bit_length()
        # the guide is copied before p and cum, so only cum is held beside it and its copy
        set_fields(self, guide=np.searchsorted(cum, np.arange(g, dtype=float) / g, side="right"))
        set_fields(self, p=p, cum=cum)

    @property
    def m(self):
        return self.p.shape[0]


@dataclass(frozen=True)
class EmpiricalCurve:
    """Per-iteration sample mean and standard error of ||x^(k) - x_true||^2."""

    mse_mean: np.ndarray
    mse_stderr: np.ndarray


def make_distribution(weights):
    """Normalize positive weights into a RowDistribution."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D vector")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("all weights must be finite and > 0 (every row needs "
                         "nonzero selection probability)")
    with np.errstate(over="ignore"):
        if not np.isfinite(w.sum()):  # finite weights whose sum overflows
            w = w / w.max()
    return RowDistribution(w / w.sum())


def row_norm_distribution(sys):
    """The classical choice p_i = ||a_i||^2 / ||A||_F^2."""
    return make_distribution(sys.row_norms**2)


def uniform_distribution(m):
    return make_distribution(np.ones(m))


def sample_rows(dist, u):
    """Row of each uniform u in [0, 1), the smallest i with dist.cum[i] > u,
    looked up in dist's guide table."""
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    cum, guide = dist.cum, dist.guide
    idx = guide[(flat * guide.size).astype(np.int64)]
    act = np.flatnonzero(cum[idx] <= flat)
    while act.size:
        idx[act] += 1
        act = act[cum[idx[act]] <= flat[act]]
    return idx.reshape(u.shape)


def _batched_errors(a_unit, eta_unit, rows, z, out):
    """Advance many Kaczmarz runs together, recording their squared errors.

    The runs step in error space z = x - x_true with unit rows
    a~_i = a_i / ||a_i|| and scaled noise eta~_i = eta_i / ||a_i||, the
    eta~ the lifted model reads; one step on row i is
    z <- z + (eta~_i - a~_i^T z) a~_i.

    Args:
        a_unit: (m, n) rows of A scaled to unit norm.
        eta_unit: scaled noise that broadcasts to (trials, m): an (m,) vector
            shared by every run, or one (m,) row per run.
        rows: (k, trials) int64 row index per step and run.
        z: (trials, n) C-contiguous error of each run, advanced in place by
            the k steps, so consecutive calls continue the same runs.
        out: (k, trials) array; out[j, t] = ||z_t||^2 after step j + 1.

    Every operation acts on each run's own row of the state, so column t is
    bitwise the same whichever other runs share the batch, and a run split
    over several calls is bitwise the run made in one.
    """
    trials = rows.shape[1]
    eta_rows = np.broadcast_to(eta_unit, (trials, a_unit.shape[0]))[np.arange(trials), rows]
    u = np.empty_like(z)
    c = np.empty(z.shape[0])
    take, c_col = a_unit.take, c[:, None]   # bound once: small steps are dispatch-bound
    for row, eta_row, err in zip(rows, eta_rows, out):
        take(row, axis=0, out=u)
        np.vecdot(u, z, out=c)
        np.subtract(eta_row, c, out=c)
        u *= c_col
        z += u
        np.vecdot(z, z, out=err)


def trial_noise_seed(seed):
    """Seed of the noise draw that all trials of seed share."""
    return mix_seed(seed, _NOISE_TAG)


def monte_carlo_mse(model, noise, z0, k_max, trials, seed):
    """Sample mean/standard error of the squared-error trajectory over trials.

    The runs step the model's own unit rows a~ with eta~ = eta / ||a_i||
    from z0 and sample the model's p, as the exact curve reads them. Each
    trial draws rows from an independent stream hashed from (seed, trial),
    so results depend only on (seed, trial), not on how many trials run
    together. A FixedNoise is one eta shared by all trials; any other spec
    is redrawn per trial, draw_eta(noise, m, mix_seeds(seed, _NOISE_TAG,
    trial)), and a trial's rows come from rngs_from(seed, _ROWS_TAG, trial),
    each call over the array of all trials. trials=1 is the one-run call.

    All trials advance together in one batched kernel, STEP_CHUNK steps at a
    time: each chunk draws the next uniforms of every trial's stream, samples
    and gathers only that chunk's rows and noise, carries the (trials, n)
    error state on, and reduces its errors to its rows of the curve. Working
    memory is O(trials (m + n + STEP_CHUNK)) floats, plus about 0.8 KiB per
    trial for the streams kept live between chunks, instead of
    O(trials k_max). A stream yields the same doubles in pieces as in one
    call, and every reduction is over one step's trials, so the curve is
    bitwise the same whatever STEP_CHUNK is. A run of k_max <= 2 STEP_CHUNK
    steps is one chunk and holds one stream and one 8 KiB block of seeds.
    """
    trials = check_int(trials, "trials", minimum=1)
    k_max = check_int(k_max, "k_max")
    m, n = model.a_tilde.shape
    z0 = check_vector(z0, n, "z0")

    if isinstance(noise, FixedNoise):
        eta_unit = draw_eta(noise, m) / model.row_norms
    else:
        # scaled in place, so one (trials, m) array is all the noise held
        eta_unit = draw_eta(noise, m, mix_seeds(seed, _NOISE_TAG, np.arange(trials)))
        eta_unit /= model.row_norms
    dist = RowDistribution(model.p)
    z = np.tile(z0, (trials, 1))
    mean = np.empty(k_max + 1)
    stderr = np.zeros(k_max + 1)
    # common z0 across trials: index 0 is exact by construction
    mean[0] = sq_norm(z0)

    streams = rngs_from(seed, _ROWS_TAG, np.arange(trials))
    if k_max > 2 * STEP_CHUNK:
        chunk = STEP_CHUNK
        streams = list(streams)
    else:
        chunk = max(k_max, 1)   # one pass of the lazy streams: each is dropped once drawn
    for start in range(0, k_max, chunk):
        stop = min(start + chunk, k_max)
        u = np.empty((trials, stop - start))
        for t, rng in enumerate(streams):
            rng.random(out=u[t])
        rows = sample_rows(dist, u)   # sampled in u's own order: no copy of u
        del u
        rows = np.ascontiguousarray(rows.T)
        errs = np.empty((stop - start, trials))
        _batched_errors(model.a_tilde, eta_unit, rows, z, errs)
        del rows
        mean[start + 1:stop + 1] = errs.mean(axis=1)
        if trials > 1:
            stderr[start + 1:stop + 1] = errs.std(axis=1, ddof=1) / np.sqrt(trials)
    return EmpiricalCurve(mean, stderr)
