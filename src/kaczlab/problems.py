"""Test linear systems: generators, noise models, and text-file (de)serialization."""

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .seeding import rng_from

# Full-column-rank gate: lambda_min(A^T A) must exceed this times lambda_max.
RANK_RTOL = 1e-12


class MatrixFileError(ValueError):
    """Raised when a matrix/vector file cannot be parsed."""


@dataclass(frozen=True)
class LinearSystem:
    """A full-column-rank measurement matrix with its ground-truth signal.

    Attributes:
        a: dense (m, n) matrix, m >= n.
        x_true: length-n signal the measurements are generated from.
        row_norms: Euclidean norm of each row, all strictly positive.
        sigma_min: smallest singular value of a.
        kappa: ||a||_F / sigma_min, the rate constant of the classical bounds.
    """

    a: np.ndarray
    x_true: np.ndarray
    row_norms: np.ndarray = field(init=False)
    sigma_min: float = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        a = np.ascontiguousarray(self.a, dtype=float)
        x = np.ascontiguousarray(self.x_true, dtype=float)
        m, n = a.shape
        if m < n:
            raise ValueError(f"m must be >= n, got {m} x {n}")
        if x.shape != (n,):
            raise ValueError(f"x_true must have length {n}, got {x.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("every entry of the matrix must be finite")
        if not np.all(np.isfinite(x)):
            raise ValueError("every entry of x_true must be finite")
        norms = np.linalg.norm(a, axis=1)
        if not np.all(norms > 0.0):
            raise ValueError("every row must have strictly positive norm")
        evals = np.linalg.eigvalsh(a.T @ a)
        sigma_min = float(np.sqrt(max(evals[0], 0.0)))
        if evals[0] <= RANK_RTOL * evals[-1]:
            raise ValueError(
                f"matrix is rank deficient: sigma_min={sigma_min:.3e} "
                f"(lambda ratio {evals[0] / evals[-1]:.3e} <= {RANK_RTOL})"
            )
        for arr in (a, x, norms):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "x_true", x)
        object.__setattr__(self, "row_norms", norms)
        object.__setattr__(self, "sigma_min", sigma_min)
        object.__setattr__(self, "kappa", float(np.linalg.norm(a)) / sigma_min)

    @property
    def shape(self):
        return self.a.shape


@dataclass(frozen=True)
class FixedNoise:
    """A deterministic noise vector added to the measurements."""

    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        if eta.ndim != 1 or not np.all(np.isfinite(eta)):
            raise ValueError("eta must be a finite 1-D vector")
        eta.setflags(write=False)
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True)
class IidNoise:
    """Zero-mean i.i.d. noise with per-entry variance sigma2."""

    sigma2: float

    def __post_init__(self):
        s = float(self.sigma2)
        if not np.isfinite(s) or s < 0.0:
            raise ValueError(f"sigma2 must be finite and >= 0, got {s}")
        object.__setattr__(self, "sigma2", s)


NoiseSpec = Union[FixedNoise, IidNoise]


def gen_gaussian(m, n, x_scale=1.0, seed=0):
    """An m x n system with i.i.d. standard normal entries.

    x_true is i.i.d. normal scaled by x_scale. A draw that happens to be
    rank deficient (probability ~0) is redrawn, at most 3 times.
    """
    if m < n:
        raise ValueError(f"m must be >= n, got {m} x {n}")
    rng = rng_from(seed, 0xA)
    for _ in range(4):
        a = rng.standard_normal((m, n))
        x = x_scale * rng.standard_normal(n)
        try:
            return LinearSystem(a, x)
        except ValueError:
            continue
    raise ValueError(f"could not draw a full-rank {m} x {n} Gaussian matrix in 4 tries")


def gen_identity(n):
    """The n x n identity system with x_true = 0 (analytic fixture)."""
    return LinearSystem(np.eye(n), np.zeros(n))


def _phantom(grid):
    # two Gaussian bumps on the unit square, normalized to peak 1.0
    u = (np.arange(grid) + 0.5) / grid
    uu, vv = np.meshgrid(u, u, indexing="xy")
    img = np.exp(-(((uu - 0.32) ** 2) + (vv - 0.38) ** 2) / (2 * 0.16**2))
    img += 0.7 * np.exp(-(((uu - 0.68) ** 2) + (vv - 0.66) ** 2) / (2 * 0.12**2))
    return (img / img.max()).ravel()


def _trace_ray(grid, p0, direction):
    """Intersection lengths of one ray with every pixel of a grid x grid image.

    The image occupies [0, grid]^2 with unit pixels; pixel (col i, row j)
    maps to flat index j*grid + i. Lengths are measures of the ray inside
    the open pixel interiors, so a ray riding a grid line contributes 0.
    """
    ts = []
    lo, hi = -np.inf, np.inf
    for axis in range(2):
        d = direction[axis]
        if d != 0.0:
            crossings = (np.arange(grid + 1) - p0[axis]) / d
            ts.append(crossings)
            lo = max(lo, min(crossings[0], crossings[-1]))
            hi = min(hi, max(crossings[0], crossings[-1]))
        elif not 0.0 < p0[axis] < grid:
            return np.zeros(grid * grid)
    if hi <= lo:
        return np.zeros(grid * grid)
    ts = np.concatenate(ts)
    ts = np.sort(np.clip(ts[(ts >= lo - 1e-12) & (ts <= hi + 1e-12)], lo, hi))
    row = np.zeros(grid * grid)
    for t0, t1 in zip(ts[:-1], ts[1:]):
        if t1 - t0 <= 1e-12:
            continue
        mid = p0 + 0.5 * (t0 + t1) * direction
        i, j = int(np.floor(mid[0])), int(np.floor(mid[1]))
        if 0 <= i < grid and 0 <= j < grid:
            row[j * grid + i] += t1 - t0
    return row


def gen_tomography(grid, num_angles, rays_per_angle):
    """A parallel-beam tomography system over a grid x grid pixel image.

    Projection angles sit at the midpoints of num_angles equal bins of
    [0, pi); ray offsets sit at the midpoints of rays_per_angle equal bins
    across the grid width, so no ray ever rides a grid line. Entries are
    ray/pixel intersection lengths (all >= 0); zero rows are removed.
    x_true is a smooth two-bump phantom with peak 1.0.
    """
    n = grid * grid
    m = num_angles * rays_per_angle
    if grid < 1 or num_angles < 1 or rays_per_angle < 1:
        raise ValueError("grid, num_angles and rays_per_angle must be positive")
    if m < n:
        raise ValueError(f"num_angles * rays_per_angle = {m} must be >= grid^2 = {n}")
    center = np.array([grid / 2.0, grid / 2.0])
    rows = []
    for a in range(num_angles):
        theta = (a + 0.5) * np.pi / num_angles
        direction = np.array([np.cos(theta), np.sin(theta)])
        perp = np.array([-np.sin(theta), np.cos(theta)])
        for r in range(rays_per_angle):
            offset = (r + 0.5) * grid / rays_per_angle - grid / 2.0
            rows.append(_trace_ray(grid, center + offset * perp, direction))
    a_mat = np.array(rows)
    keep = np.any(a_mat != 0.0, axis=1)
    a_mat = a_mat[keep]
    if a_mat.shape[0] == 0:
        raise ValueError("all rays missed the image: zero-row-only configuration")
    if a_mat.shape[0] < n:
        raise ValueError(
            f"only {a_mat.shape[0]} nonzero rays for {n} pixels; increase angles/rays"
        )
    try:
        return LinearSystem(a_mat, _phantom(grid))
    except ValueError as exc:
        raise ValueError(f"tomography configuration is rank deficient: {exc}") from exc


def make_measurements(sys, noise, seed=0):
    """y = A x_true + eta.  Returns (y, eta_realized).

    FixedNoise uses the stored vector (seed unused); IidNoise draws the
    vector i.i.d. normal(0, sigma2) from the seed.
    """
    m = sys.a.shape[0]
    if isinstance(noise, FixedNoise):
        if noise.eta.shape != (m,):
            raise ValueError(f"eta must have length {m}, got {noise.eta.shape}")
        eta = noise.eta.copy()
    elif isinstance(noise, IidNoise):
        rng = rng_from(seed, 0xE7A)
        eta = np.sqrt(noise.sigma2) * rng.standard_normal(m)
    else:
        raise TypeError(f"unsupported noise spec: {noise!r}")
    return sys.a @ sys.x_true + eta, eta


def _fmt(v):
    return format(v, ".17g")


def save_system(sys, path):
    """Write a system to the plain-text matrix format (17 significant digits)."""
    m, n = sys.a.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {n}\n")
        for row in sys.a:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")
        fh.write("x_true\n")
        for v in sys.x_true:
            fh.write(_fmt(v) + "\n")


def _parse_floats(tokens, lineno, expected):
    if len(tokens) != expected:
        raise MatrixFileError(
            f"line {lineno}: expected {expected} values, found {len(tokens)}"
        )
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise MatrixFileError(f"line {lineno}: non-numeric token ({exc})") from exc
    if not np.all(np.isfinite(values)):
        raise MatrixFileError(f"line {lineno}: non-finite value in {' '.join(tokens)!r}")
    return values


def load_system(path):
    """Read a system saved by save_system.  Errors name the offending line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixFileError("line 1: empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFileError('line 1: header must be "m n"')
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MatrixFileError(f"line 1: non-integer header ({exc})") from exc
    if m < 1 or n < 1:
        raise MatrixFileError(f"line 1: dimensions must be positive, got {m} x {n}")
    a = np.empty((m, n))
    for i in range(m):
        lineno = i + 2
        if lineno > len(lines):
            raise MatrixFileError(
                f"matrix row {i + 1} of {m} missing: file ends before line {lineno}"
            )
        a[i] = _parse_floats(lines[lineno - 1].split(), lineno, n)
    marker_lineno = m + 2
    if marker_lineno > len(lines) or lines[marker_lineno - 1].strip() != "x_true":
        raise MatrixFileError(f'line {marker_lineno}: expected "x_true" marker')
    x = np.empty(n)
    for j in range(n):
        lineno = marker_lineno + 1 + j
        if lineno > len(lines):
            raise MatrixFileError(
                f"x_true entry {j + 1} of {n} missing: file ends before line {lineno}"
            )
        x[j] = _parse_floats(lines[lineno - 1].split(), lineno, 1)[0]
    return LinearSystem(a, x)


def save_vector(vec, path):
    """Write a vector file: first line the length, then one value per line."""
    vec = np.asarray(vec, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{vec.size}\n")
        for v in vec:
            fh.write(_fmt(v) + "\n")


def load_vector(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixFileError("line 1: empty file")
    try:
        size = int(lines[0])
    except ValueError as exc:
        raise MatrixFileError(f"line 1: non-integer length ({exc})") from exc
    out = np.empty(size)
    for j in range(size):
        lineno = j + 2
        if lineno > len(lines):
            raise MatrixFileError(
                f"entry {j + 1} of {size} missing: file ends before line {lineno}"
            )
        out[j] = _parse_floats(lines[lineno - 1].split(), lineno, 1)[0]
    return out
