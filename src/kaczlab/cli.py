"""Command-line front end: generate systems, run experiments, validate oracles.

Exit codes: 0 success, 1 runtime/validation failure, 2 configuration error.
"""

import argparse
import json
import os
import sys as _sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from ._num import check_int, check_vector
from .bounds import zf_general_bound_curve
from .lifted import (
    build_model,
    exact_mse_curve,
    lambda_max_P,
    lambda_max_Q,
    limiting_mse,
)
from .problems import (
    FixedNoise,
    IidNoise,
    draw_eta,
    gen_gaussian,
    gen_identity,
    gen_tomography,
    load_system,
    load_vector,
    save_system,
)
from .rka import (
    make_distribution,
    monte_carlo_mse,
    row_norm_distribution,
    trial_noise_seed,
    uniform_distribution,
)
from .seeding import rng_from
from .validate import run_suite

# each output kind and the noise spec it reads: "fixed", the realized vector
# (fixed noise, or the iid draw shared with resample=false); "iid", the draws'
# IidNoise; or None
CURVE_KINDS = {
    "empirical": None, "exact": "fixed", "exact_avg": "iid", "bound_sv": None,
    "bound_zf": "fixed", "bound_zf_general": "fixed", "bound_zf_avg": "iid", "floor": None,
}
# what a config must give for each spec, and the scalar that takes its floor
SPEC_NEEDS = {"fixed": "a realized noise vector (fixed noise, or iid with resample=false)",
              "iid": "iid noise, not fixed"}
FLOOR_KEYS = {"fixed": "floor_exact", "iid": "floor_avg"}
# curves.csv rows formatted and written per chunk; a small chunk keeps the
# formatted text out of the run's peak memory
CSV_CHUNK_ROWS = 512


class ConfigError(ValueError):
    """A problem with the experiment configuration (exit code 2)."""


def _require_keys(obj, allowed, required, where):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _int_value(obj, key, where, minimum=None):
    """obj[key] as an int; bools, floats and strings are config errors."""
    try:
        return check_int(obj[key], f"{where}:", minimum)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _float_value(obj, key, where):
    """obj[key] as a finite float; bools, strings and integers past the
    float range are config errors."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: must be a finite number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{where}: must be a finite number, got an integer too large "
                          "for a float") from None
    if not np.isfinite(number):
        raise ConfigError(f"{where}: must be a finite number, got {value!r}")
    return number


def _floats_value(obj, key, where):
    """obj[key] as a float vector; it must be a list of finite numbers."""
    values = obj[key]
    if not isinstance(values, list):
        raise ConfigError(f"{where}: must be a list of numbers, got {values!r}")
    return np.array([_float_value(values, i, f"{where}[{i}]") for i in range(len(values))])


def _str_value(obj, key, where):
    """obj[key] as a string; an integer would reach open() as a file descriptor."""
    value = obj[key]
    if not isinstance(value, str):
        raise ConfigError(f"{where}: must be a string, got {value!r}")
    return value


def _load_file(loader, desc, where):
    """loader(desc["path"]); a file that cannot be read or parsed is a config error."""
    try:
        return loader(_str_value(desc, "path", where))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _vector_value(desc, where, length):
    """desc's "values" list, or the vector file at its "path", of the given length."""
    vec = (_floats_value(desc, "values", f"{where}.values") if "values" in desc
           else _load_file(load_vector, desc, f"{where}.path"))
    try:
        return check_vector(vec, length, "vector")
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except (ValueError, RecursionError) as exc:   # also an integer past int's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg, raw


def _generate(gen, *args):
    """gen(*args); a size it refuses (m < n, too few rays) is a config error."""
    try:
        return gen(*args)
    except ValueError as exc:
        raise ConfigError(f"matrix: {exc}") from exc


def _build_matrix(desc):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError('matrix: expected an object with a "kind" key')
    kind = desc["kind"]
    if kind == "gaussian":
        _require_keys(desc, {"kind", "m", "n", "seed", "x_scale"}, {"m", "n", "seed"}, "matrix")
        m = _int_value(desc, "m", "matrix.m", minimum=1)
        n = _int_value(desc, "n", "matrix.n", minimum=1)
        seed = _int_value(desc, "seed", "matrix.seed")
        x_scale = _float_value(desc, "x_scale", "matrix.x_scale") if "x_scale" in desc else 1.0
        return _generate(gen_gaussian, m, n, x_scale, seed)
    if kind == "tomography":
        _require_keys(desc, {"kind", "grid", "angles", "rays"}, {"grid", "angles", "rays"}, "matrix")
        sizes = [
            _int_value(desc, key, f"matrix.{key}", minimum=1) for key in ("grid", "angles", "rays")
        ]
        return _generate(gen_tomography, *sizes)
    if kind == "identity":
        _require_keys(desc, {"kind", "n"}, {"n"}, "matrix")
        return gen_identity(_int_value(desc, "n", "matrix.n", minimum=1))
    if kind == "file":
        _require_keys(desc, {"kind", "path"}, {"path"}, "matrix")
        return _load_file(load_system, desc, "matrix.path")
    raise ConfigError(f"matrix: unknown kind {kind!r}")


def _build_noise(desc, m):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError('noise: expected an object with a "kind" key')
    kind = desc["kind"]
    if kind == "fixed":
        _require_keys(desc, {"kind", "values", "path"}, set(), "noise")
        if ("values" in desc) == ("path" in desc):
            raise ConfigError('noise: fixed needs exactly one of "values" or "path"')
        return FixedNoise(_vector_value(desc, "noise", m)), False
    if kind == "iid":
        _require_keys(desc, {"kind", "sigma2", "resample"}, {"sigma2"}, "noise")
        sigma2 = _float_value(desc, "sigma2", "noise.sigma2")
        try:
            noise = IidNoise(sigma2)
        except ValueError as exc:
            raise ConfigError(f"noise.sigma2: {exc}") from exc
        resample = desc.get("resample", False)
        if not isinstance(resample, bool):
            raise ConfigError(f"noise.resample: must be a boolean, got {resample!r}")
        return noise, resample
    raise ConfigError(f"noise: unknown kind {kind!r}")


def _build_distribution(desc, sys):
    if desc == "row_norm":
        return row_norm_distribution(sys)
    if desc == "uniform":
        return uniform_distribution(sys.a.shape[0])
    if isinstance(desc, dict) and set(desc) == {"weights"}:
        w = _floats_value(desc, "weights", "distribution.weights")
        if w.size != sys.a.shape[0]:
            raise ConfigError(f"distribution: {w.size} weights for {sys.a.shape[0]} rows")
        try:
            return make_distribution(w)
        except ValueError as exc:
            raise ConfigError(f"distribution: {exc}") from exc
    raise ConfigError(f"distribution: expected row_norm | uniform | {{weights}}, got {desc!r}")


def _build_x0(desc, sys):
    n = sys.a.shape[1]
    if desc == "zero":
        return np.zeros(n)
    if isinstance(desc, dict) and set(desc) in ({"values"}, {"path"}):
        return _vector_value(desc, "x0", n)
    if isinstance(desc, dict) and set(desc) == {"random_seed"}:
        seed = _int_value(desc, "random_seed", "x0.random_seed")
        return rng_from(seed, 0x5D).standard_normal(n)
    raise ConfigError(f"x0: expected zero | {{values}} | {{path}} | {{random_seed}}, got {desc!r}")


def _parse_config(cfg):
    _require_keys(
        cfg,
        {"matrix", "noise", "distribution", "x0", "k_max", "trials", "seed", "outputs"},
        {"matrix", "noise", "k_max", "seed", "outputs"},
        "config",
    )
    k_max = _int_value(cfg, "k_max", "k_max", minimum=0)
    trials = _int_value(cfg, "trials", "trials", minimum=1) if "trials" in cfg else 1
    seed = _int_value(cfg, "seed", "seed")
    outputs = cfg["outputs"]
    if not isinstance(outputs, list) or not outputs:
        raise ConfigError("outputs must be a non-empty list of curve kinds")
    for kind in outputs:
        if not isinstance(kind, str) or kind not in CURVE_KINDS:
            raise ConfigError(f"outputs: unknown curve kind {kind!r}")
    return k_max, trials, seed, outputs


def _validate_outputs(outputs, specs):
    """The kinds to compute, each once, in the order asked for. A kind whose
    spec (CURVE_KINDS) the config lacks is refused; every bound_* kind is the
    p-general bound with its own spec, so it is written under its own name
    for any distribution."""
    for kind in outputs:
        reads = CURVE_KINDS[kind]
        if reads is not None and specs[reads] is None:
            raise ConfigError(f"outputs: {kind} requires {SPEC_NEEDS[reads]}")
    return list(dict.fromkeys(outputs))


def cmd_generate(cfg, out_dir, verbose=False):
    sys_obj = _build_matrix(cfg.get("matrix"))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "matrix.txt")
    save_system(sys_obj, path)
    # independent singular-value routine, recorded for later cross-checks
    sigma_min = float(np.linalg.svd(sys_obj.a, compute_uv=False)[-1])
    manifest = {
        "m": int(sys_obj.a.shape[0]),
        "n": int(sys_obj.a.shape[1]),
        "sigma_min": sigma_min,
        "fro_norm": float(np.linalg.norm(sys_obj.a)),
        "generator": cfg["matrix"],
    }
    with open(os.path.join(out_dir, "matrix.manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    if verbose:
        print(f"wrote {path} ({manifest['m']} x {manifest['n']})", file=_sys.stderr)
    return 0


def run_experiment(cfg, verbose=False):
    """Compute every requested curve; returns (curves, scalars).

    curves is an ordered {name: vector} dict, all of length k_max+1.
    """
    k_max, trials, seed, outputs = _parse_config(cfg)
    sys_obj = _build_matrix(cfg["matrix"])
    m, n = sys_obj.a.shape
    noise, resample = _build_noise(cfg["noise"], m)
    dist = _build_distribution(cfg.get("distribution", "row_norm"), sys_obj)
    z0 = _build_x0(cfg.get("x0", "zero"), sys_obj) - sys_obj.x_true
    iid = noise if isinstance(noise, IidNoise) else None
    if iid is not None and not resample:
        # one draw, shared by every trial and by the exact curve
        noise = FixedNoise(draw_eta(iid, m, trial_noise_seed(seed)))
    specs = {"fixed": noise if isinstance(noise, FixedNoise) else None, "iid": iid}
    outputs = _validate_outputs(outputs, specs)

    model = build_model(sys_obj, dist)

    curves, bounds = {}, {}
    # lambda_max_q keeps its place; it is read after the curves, from the
    # record of the Lanczos run they made
    scalars = {
        "m": m, "n": n, "sigma_min": sys_obj.sigma_min, "kappa": sys_obj.kappa,
        "lambda_max_p": lambda_max_P(model), "lambda_max_q": None,
    }
    if isinstance(noise, FixedNoise):
        scalars["eta_sq_norm"] = float(noise.eta @ noise.eta)

    for kind in outputs:
        if verbose:
            print(f"computing {kind} ...", file=_sys.stderr)
        spec = specs.get(CURVE_KINDS[kind])
        if kind == "empirical":
            emp = monte_carlo_mse(model, noise, z0, k_max, trials, seed)
            curves["empirical"] = emp.mse_mean
            curves["empirical_stderr"] = emp.mse_stderr
        elif kind in ("exact", "exact_avg"):
            curve = exact_mse_curve(model, spec, z0, k_max)
            curves[kind], scalars[FLOOR_KEYS[CURVE_KINDS[kind]]] = curve.values, curve.floor
        elif kind != "floor":   # every bound kind, once per spec; bound_sv reads zero noise
            if CURVE_KINDS[kind] not in bounds:
                bounds[CURVE_KINDS[kind]] = zf_general_bound_curve(
                    model, spec or IidNoise(0.0), z0, k_max)
            curves[kind] = bounds[CURVE_KINDS[kind]]
    scalars["lambda_max_q"] = lambda_max_Q(model)
    if "floor" in outputs:
        # a floor that exact or exact_avg solved for already is not solved again
        for reads, key in FLOOR_KEYS.items():
            if specs[reads] is not None and key not in scalars:
                scalars[key] = limiting_mse(model, specs[reads])
    return curves, scalars


def _write_outputs(out_dir, curves, scalars, raw_config, k_max):
    names = list(curves)
    for name in names:
        if len(curves[name]) != k_max + 1:
            raise ValueError(f"curve {name} has {len(curves[name])} values, "
                             f"not k_max + 1 = {k_max + 1}")
    # every row past the last one where some column's bits change repeats that
    # row's text after its k; int64 views, so 0.0 and -0.0 differ
    moved = np.zeros(k_max + 1, dtype=bool)
    for name in names:
        bits = np.asarray(curves[name], dtype=float).view(np.int64)
        moved[1:] |= bits[1:] != bits[:-1]
    settled = int(np.flatnonzero(moved).max(initial=0))
    tail = (",%.17g" * len(names) + "\n") % tuple(float(curves[c][settled]) for c in names)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "curves.csv")
    row = "%d" + ",%.17g" * len(names) + "\n"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["k"] + names) + "\n")
        for start in range(0, k_max + 1, CSV_CHUNK_ROWS):
            stop = min(start + CSV_CHUNK_ROWS, k_max + 1)
            mid = min(stop, max(start, settled + 1))
            cols = [np.asarray(curves[c][start:mid], dtype=float).tolist() for c in names]
            fh.write("".join([row % vals for vals in zip(range(start, mid), *cols)]))
            fh.write("".join([str(k) + tail for k in range(mid, stop)]))
    result = {
        "version": __version__,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "config": raw_config,
        "scalars": scalars,
        "csv": "curves.csv",
    }
    json_path = os.path.join(out_dir, "result.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, indent=2) + "\n")
    return csv_path, json_path


def cmd_run(cfg, raw_config, out_dir, verbose=False):
    # overflow and NaN surface as the non-finite errors below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        curves, scalars = run_experiment(cfg, verbose=verbose)
    for name, values in curves.items():
        if not np.isfinite(values).all():
            raise ValueError(f"curve {name} is not finite at k = {np.argmin(np.isfinite(values))}")
    for key, value in scalars.items():
        if not np.isfinite(value):
            raise ValueError(f"scalar {key} is not finite: {value!r}")
    csv_path, json_path = _write_outputs(out_dir, curves, scalars, raw_config, cfg["k_max"])
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_validate(out_dir):
    checks = run_suite()
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']}: deviation {c['deviation']:.3e} "
              f"(tolerance {c['tolerance']:.3e})")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "validation.json"), "w", encoding="utf-8") as fh:
            json.dump(checks, fh, indent=2)
            fh.write("\n")
    return 0 if all(c["passed"] for c in checks) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kaczlab",
        description="Randomized Kaczmarz MSE experiments: simulate, predict, bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a matrix file plus manifest")
    p_run = sub.add_parser("run", help="run an experiment and emit curves.csv + result.json")
    p_val = sub.add_parser("validate", help="run the small-instance oracle suite")
    for p in (p_gen, p_run):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--verbose", action="store_true")
    for p in (p_gen, p_run, p_val):
        p.add_argument("--out", default=".", help="output directory (default: .)")

    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            cfg, _ = load_config(args.config)
            return cmd_generate(cfg, args.out, args.verbose)
        if args.command == "run":
            cfg, raw = load_config(args.config)
            return cmd_run(cfg, raw, args.out, args.verbose)
        return cmd_validate(args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except Exception as exc:  # runtime failures -> exit 1
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
