"""The benchmark's ``kaczlab run`` workloads and the checks on their outputs.

The timed workloads (TIMED) are the README's two experiments and the paper's
long-horizon case, scaled down so that one run takes under a second: the
benchmark reports a median over many pairs of runs, and only short runs give
it enough of them. ``readme_fixed`` and ``readme_avg`` are the README's configs
verbatim at seed 0 (23-39 s a run), kept for quoting and tracing by hand.
Another seed shifts the noise draw, the experiment seed and the x0 seed, never
the matrix, so every seed asks for the same amount of work.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

EMP_SIGMAS = 4.0          # |empirical - exact| <= 4 stderr at each checkpoint
BOUND_SLACK = 1e-12       # bound >= exact - BOUND_SLACK * exact[0]
FLOOR_RTOL = 1e-8         # horizon: |curve[k_max] - floor| / floor


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable[[int, str], dict]   # (seed, workdir) -> config; may write files there
    checkpoints: tuple = ()              # k where empirical must match the exact curve
    converges: bool = False              # curve[k_max] must sit on the floor


def _readme_fixed(seed, workdir, m=150, n=50, eta_sq_norm=1.6, k_max=2000, trials=1007):
    from kaczlab.problems import save_vector

    # the README quick-start draw: rng 2, scaled to ||eta||^2 = eta_sq_norm
    eta = np.random.default_rng(2 + seed).standard_normal(m)
    eta *= np.sqrt(eta_sq_norm) / np.linalg.norm(eta)
    save_vector(eta, os.path.join(workdir, "eta.txt"))
    return {
        "matrix": {"kind": "gaussian", "m": m, "n": n, "seed": 1},
        "noise": {"kind": "fixed", "path": "eta.txt"},
        "distribution": "row_norm",
        "x0": {"random_seed": 7 + seed},
        "k_max": k_max,
        "trials": trials,
        "seed": 99 + seed,
        "outputs": ["empirical", "exact", "bound_zf", "bound_zf_general", "floor"],
    }


def _readme_avg(seed, workdir, grid=10, angles=15, rays=10, k_max=3000, trials=1007):
    return {
        "matrix": {"kind": "tomography", "grid": grid, "angles": angles, "rays": rays},
        "noise": {"kind": "iid", "sigma2": 2.25e-4, "resample": True},
        "x0": "zero",
        "k_max": k_max,
        "trials": trials,
        "seed": 5 + seed,
        "outputs": ["empirical", "exact_avg", "bound_zf_avg", "floor"],
    }


def _fixed_mc(seed, workdir):
    # the README's noise per row: ||eta||^2 = 1.6 * 60 / 150
    return _readme_fixed(seed, workdir, m=60, n=20, eta_sq_norm=0.64, k_max=500, trials=100)


def _avg_mc(seed, workdir):
    return _readme_avg(seed, workdir, grid=5, angles=10, rays=5, k_max=600, trials=60)


def _horizon_small(seed, workdir):
    return {
        "matrix": {"kind": "gaussian", "m": 24, "n": 8, "seed": 3},
        "noise": {"kind": "iid", "sigma2": 1e-3, "resample": False},
        "x0": {"random_seed": 4 + seed},
        "k_max": 3000,
        "seed": 11 + seed,
        "outputs": ["exact", "exact_avg", "floor"],
    }


TIMED = (
    Workload(
        "fixed_mc",
        "README config 1 scaled to gaussian 60x20, k_max 500, 100 trials: "
        "Monte Carlo on one shared y leads, then power-iteration spectra and the exact recursion",
        _fixed_mc,
        checkpoints=(0, 1, 10, 100, 250, 500),
    ),
    Workload(
        "avg_mc",
        "README config 2 scaled to tomography 50x25, k_max 600, 60 trials: slow power "
        "iteration for lambda_max_Q leads, then trials with noise redrawn per trial",
        _avg_mc,
        checkpoints=(0, 150, 300, 600),
    ),
    Workload(
        "horizon_small",
        "gaussian 24x8 for 3000 steps, no Monte Carlo: per-step dispatch of the "
        "lifted recursions at tiny n, and curves.csv writing",
        _horizon_small,
        converges=True,
    ),
)

WORKLOADS = {w.name: w for w in TIMED + (
    Workload(
        "readme_fixed",
        "README config 1: fixed noise, 1007 Monte Carlo trials on one shared y; "
        "the dense lambda_max_Q fallback at n=50 costs nearly as much as the kernel",
        _readme_fixed,
        checkpoints=(0, 1, 10, 100, 500, 1000, 2000),
    ),
    Workload(
        "readme_avg",
        "README config 2: tomography 150x100, noise redrawn per trial; "
        "kernel, per-trial seeding, noise-averaged recursion and its CG solve",
        _readme_avg,
        checkpoints=(0, 500, 1500, 3000),
    ),
)}


def write_config(workload, seed, workdir):
    cfg = workload.config(seed, workdir)
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    return cfg, path


def read_curves(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def scalar_counts(out_dir):
    """(scalars present, null_scalars) of a run's result.json.

    A scalar is null when its value is null or a warning reports that its
    solver did not converge; each scalar counts once.
    """
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    scalars = result.get("scalars", {})
    null = {k for k, v in scalars.items() if v is None}
    null |= {w.split(":", 1)[0] for w in result.get("warnings", []) if "converge" in w}
    return len(scalars) - len(null & set(scalars)), len(null)


def check_outputs(workload, cfg, out_dir):
    """Failures (as strings) of one run's curves.csv and result.json."""
    failures = []
    curves = read_curves(os.path.join(out_dir, "curves.csv"))
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    k_max = cfg["k_max"]
    wanted = [c for c in cfg["outputs"] if c != "floor"]
    missing = [c for c in wanted if c not in curves]
    if missing:
        return [f"curves.csv lacks columns {missing}"]
    if not np.array_equal(curves["k"], np.arange(k_max + 1)):
        failures.append(f"curves.csv does not have k = 0..{k_max}, one per row")
    bad = [c for c, v in curves.items() if not np.all(np.isfinite(v))]
    if bad:
        failures.append(f"non-finite values in {bad}")
    exact = curves.get("exact", curves.get("exact_avg"))
    if workload.checkpoints and exact is not None:
        emp, se = curves["empirical"], curves["empirical_stderr"]
        for k in workload.checkpoints:
            if abs(emp[k] - exact[k]) > EMP_SIGMAS * se[k]:
                failures.append(
                    f"k={k}: |empirical - exact| = {abs(emp[k] - exact[k]):.3e} "
                    f"> {EMP_SIGMAS:g} stderr = {EMP_SIGMAS * se[k]:.3e}")
    for c in curves:
        if c.startswith("bound_") and exact is not None:
            if np.any(curves[c] < exact - BOUND_SLACK * exact[0]):
                failures.append(f"{c} falls below the exact curve")
    if workload.converges:
        scalars = result.get("scalars", {})
        for c, floor_key in (("exact", "floor_exact"), ("exact_avg", "floor_avg")):
            floor = scalars.get(floor_key)
            if floor is None:
                failures.append(f"result.json has no {floor_key}")
                continue
            rel = abs(curves[c][k_max] - floor) / floor
            if rel > FLOOR_RTOL:
                failures.append(f"{c}[k_max] is {rel:.2e} from {floor_key}, over {FLOOR_RTOL:g}")
    return failures
