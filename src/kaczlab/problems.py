"""Test linear systems: generators, noise models, and text-file (de)serialization."""

from dataclasses import dataclass, field

import numpy as np

from ._num import check_int, check_vector, set_fields
from .seeding import rng_from, rngs_from

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
        kappa: ||a||_F / sigma_min, reported only: the bounds read lambda_max(P),
            which is 1 - kappa^-2 for row-norm probabilities.
    """

    a: np.ndarray
    x_true: np.ndarray
    row_norms: np.ndarray = field(init=False)
    sigma_min: float = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        a = np.ascontiguousarray(self.a, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"a must be a 2-D matrix, got shape {np.shape(self.a)}")
        m, n = a.shape
        if m < n:
            raise ValueError(f"m must be >= n, got {m} x {n}")
        x = check_vector(self.x_true, n, "x_true")
        if not np.all(np.isfinite(a)):
            raise ValueError("every entry of the matrix must be finite")
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
        set_fields(self, a=a, x_true=x, row_norms=norms, sigma_min=sigma_min,
                   kappa=float(np.linalg.norm(a)) / sigma_min)


@dataclass(frozen=True)
class FixedNoise:
    """A deterministic noise vector added to the measurements."""

    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        if eta.ndim != 1 or not np.all(np.isfinite(eta)):
            raise ValueError("eta must be a finite 1-D vector")
        set_fields(self, eta=eta)


@dataclass(frozen=True)
class IidNoise:
    """Zero-mean i.i.d. noise with per-entry variance sigma2."""

    sigma2: float

    def __post_init__(self):
        if isinstance(self.sigma2, (bool, np.bool_, str, bytes)):
            raise TypeError(f"sigma2 must be a number, got {self.sigma2!r}")
        s = float(self.sigma2)
        if not np.isfinite(s) or s < 0.0:
            raise ValueError(f"sigma2 must be finite and >= 0, got {s}")
        set_fields(self, sigma2=s)


def fixed_eta(noise, m):
    """noise.eta, for a FixedNoise with m entries; any other spec is a TypeError."""
    if not isinstance(noise, FixedNoise):
        raise TypeError(f"unsupported noise spec: {noise!r}")
    return check_vector(noise.eta, m, "eta")


def gen_gaussian(m, n, x_scale=1.0, seed=0):
    """An m x n system with i.i.d. standard normal entries.

    x_true is i.i.d. normal scaled by x_scale, which must not overflow it. A
    rank-deficient draw (probability ~0) is redrawn, at most 3 times.
    """
    m, n = check_int(m, "m", minimum=1), check_int(n, "n", minimum=1)
    if m < n:
        raise ValueError(f"m must be >= n, got {m} x {n}")
    if not np.isfinite(x_scale):
        raise ValueError(f"x_scale must be finite, got {x_scale!r}")
    rng = rng_from(seed, 0xA)
    for _ in range(4):
        a = rng.standard_normal((m, n))
        with np.errstate(over="ignore"):
            x = x_scale * rng.standard_normal(n)
        if not np.isfinite(x).all():
            raise ValueError(f"x_scale {x_scale!r} overflows x_true")
        try:
            return LinearSystem(a, x)
        except ValueError:
            continue
    raise ValueError(f"could not draw a full-rank {m} x {n} Gaussian matrix in 4 tries")


def gen_identity(n):
    """The n x n identity system with x_true = 0 (analytic fixture)."""
    n = check_int(n, "n", minimum=1)
    return LinearSystem(np.eye(n), np.zeros(n))


def _phantom(grid):
    # two Gaussian bumps on the unit square, normalized to peak 1.0
    u = (np.arange(grid) + 0.5) / grid
    uu, vv = np.meshgrid(u, u, indexing="xy")
    img = np.exp(-(((uu - 0.32) ** 2) + (vv - 0.38) ** 2) / (2 * 0.16**2))
    img += 0.7 * np.exp(-(((uu - 0.68) ** 2) + (vv - 0.66) ** 2) / (2 * 0.12**2))
    return (img / img.max()).ravel()


def gen_tomography(grid, num_angles, rays_per_angle):
    """A parallel-beam tomography system over a grid x grid pixel image.

    Projection angles sit at the midpoints of num_angles equal bins of
    [0, pi); ray offsets sit at the midpoints of rays_per_angle equal bins
    across the grid width, so no ray ever rides a grid line. Entries are
    ray/pixel intersection lengths (all >= 0), one row per ray, angle by
    angle. Every ray crosses the image: sin(theta) > 0, cos(theta) != 0 in
    doubles, and |offset| <= grid/2 - grid/(2 rays_per_angle) is less than
    the image's half-width (grid/2)(|cos| + |sin|) across the ray. x_true
    is a smooth two-bump phantom with peak 1.0.
    """
    grid = check_int(grid, "grid", minimum=1)
    num_angles = check_int(num_angles, "num_angles", minimum=1)
    rays_per_angle = check_int(rays_per_angle, "rays_per_angle", minimum=1)
    n = grid * grid
    m = num_angles * rays_per_angle
    if m < n:
        raise ValueError(f"num_angles * rays_per_angle = {m} must be >= grid^2 = {n}")
    # Siddon's traversal, all rays at once: the image is [0, grid]^2 with
    # unit pixels, pixel (col i, row j) is column j*grid + i, and ray k is
    # p0[k] + t * direction[k]. Its crossings with the lines x = 0..grid and
    # y = 0..grid that lie in the image's [lo, hi] cut it into segments;
    # each segment's length goes to the pixel holding its midpoint.
    theta = np.repeat((np.arange(num_angles) + 0.5) * np.pi / num_angles, rays_per_angle)
    offset = np.tile((np.arange(rays_per_angle) + 0.5) * grid / rays_per_angle - grid / 2.0,
                     num_angles)
    direction = np.stack([np.cos(theta), np.sin(theta)], axis=1)[:, :, None]
    perp = np.stack([-np.sin(theta), np.cos(theta)], axis=1)[:, :, None]
    p0 = grid / 2.0 + offset[:, None, None] * perp
    ts = (np.arange(grid + 1) - p0) / direction   # (m, 2, grid + 1)
    lo = np.minimum(ts[:, :, 0], ts[:, :, -1]).max(axis=1)[:, None]
    hi = np.maximum(ts[:, :, 0], ts[:, :, -1]).min(axis=1)[:, None]
    ts = ts.reshape(m, -1)
    ts = np.sort(np.where((ts >= lo) & (ts <= hi), ts, np.nan), axis=1)   # NaN sorts last
    length = ts[:, 1:] - ts[:, :-1]
    cell = np.floor(p0 + 0.5 * (ts[:, None, :-1] + ts[:, None, 1:]) * direction)
    keep = (length > 1e-12) & np.all((cell >= 0) & (cell < grid), axis=1)
    ray, seg = np.nonzero(keep)
    pixel = (cell[ray, 1, seg] * grid + cell[ray, 0, seg]).astype(int)
    a_mat = np.zeros((m, n))
    np.add.at(a_mat, (ray, pixel), length[ray, seg])
    return LinearSystem(a_mat, _phantom(grid))


def draw_eta(noise, m, seed=0):
    """The one noise draw of m entries: a FixedNoise's checked vector (seed
    unused), or i.i.d. normal(0, sigma2) drawn from the seed for an IidNoise;
    a 1-D int array of seeds draws one row per seed, bitwise its scalar draw."""
    if not isinstance(noise, IidNoise):
        return fixed_eta(noise, m)
    if np.ndim(seed) == 0:
        return np.sqrt(noise.sigma2) * rng_from(seed, 0xE7A).standard_normal(m)
    eta = np.empty((len(seed), m))
    for row, rng in zip(eta, rngs_from(seed, 0xE7A)):
        rng.standard_normal(out=row)
    eta *= np.sqrt(noise.sigma2)
    return eta


def make_measurements(sys, noise, seed=0):
    """y = A x_true + eta.  Returns (y, eta_realized), eta from draw_eta."""
    eta = draw_eta(noise, sys.a.shape[0], seed)
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


def _read_lines(lines, first, count, width, item):
    """Lines first .. first + count - 1 (1-based), width values each, as a
    (count, width) array. Errors name the line, or the first missing item
    ("matrix row 3 of 5 missing").

    The lines are counted, and the first is parsed, before the array is
    allocated: a header that promises more values than its file holds is an
    error naming a line, never an allocation of what it promised.
    """
    if first + count - 1 > len(lines):
        raise MatrixFileError(f"{item} {len(lines) - first + 2} of {count} missing: "
                              f"file ends before line {len(lines) + 1}")
    out = np.empty((0, width))
    for i in range(count):
        values = _parse_floats(lines[first - 1 + i].split(), first + i, width)
        if i == 0:
            out = np.empty((count, width))
        out[i] = values
    return out


def _check_end(lines, last):
    """Lines after line last (1-based) may only be blank: data past what the
    header declared is an error naming its line, never silently dropped."""
    for lineno, line in enumerate(lines[last:], last + 1):
        if line.strip():
            raise MatrixFileError(
                f"line {lineno}: data after the last declared value, on line {last}")


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
    a = _read_lines(lines, 2, m, n, "matrix row")
    marker_lineno = m + 2
    if marker_lineno > len(lines) or lines[marker_lineno - 1].strip() != "x_true":
        raise MatrixFileError(f'line {marker_lineno}: expected "x_true" marker')
    x = _read_lines(lines, marker_lineno + 1, n, 1, "x_true entry")[:, 0]
    _check_end(lines, marker_lineno + n)
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
    if size < 0:
        raise MatrixFileError(f"line 1: length must be >= 0, got {size}")
    vec = _read_lines(lines, 2, size, 1, "entry")[:, 0]
    _check_end(lines, size + 1)
    return vec
