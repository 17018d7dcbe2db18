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
from .bounds import sv_bound_curve, zf_bound_curve, zf_general_bound_curve, zf_avg_bound_curve
from .lifted import (
    build_model,
    exact_mse_curve,
    lambda_max_P,
    lambda_max_Q,
    limiting_mse,
)
from .noise_avg import NoiseAveragedModel, avg_limiting_mse, avg_mse_curve
from .problems import (
    FixedNoise,
    IidNoise,
    gen_gaussian,
    gen_identity,
    gen_tomography,
    load_system,
    load_vector,
    make_measurements,
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

CURVE_KINDS = (
    "empirical",
    "exact",
    "exact_avg",
    "bound_sv",
    "bound_zf",
    "bound_zf_general",
    "bound_zf_avg",
    "floor",
)


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
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _float_value(obj, key, where):
    """obj[key] as a finite float; bools and strings are config errors."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise ConfigError(f"{where}: must be a finite number, got {value!r}")
    return float(value)


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


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg, raw


def _build_matrix(desc):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError('matrix: expected an object with a "kind" key')
    kind = desc["kind"]
    if kind == "gaussian":
        _require_keys(desc, {"kind", "m", "n", "seed", "x_scale"}, {"m", "n", "seed"}, "matrix")
        m = _int_value(desc, "m", "matrix.m", minimum=1)
        n = _int_value(desc, "n", "matrix.n", minimum=1)
        seed = _int_value(desc, "seed", "matrix.seed")
        if m < n:
            raise ConfigError("matrix: m must be >= n")
        x_scale = _float_value(desc, "x_scale", "matrix.x_scale") if "x_scale" in desc else 1.0
        return gen_gaussian(m, n, x_scale, seed)
    if kind == "tomography":
        _require_keys(desc, {"kind", "grid", "angles", "rays"}, {"grid", "angles", "rays"}, "matrix")
        sizes = [
            _int_value(desc, key, f"matrix.{key}", minimum=1) for key in ("grid", "angles", "rays")
        ]
        try:
            return gen_tomography(*sizes)
        except ValueError as exc:
            raise ConfigError(f"matrix: {exc}") from exc
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
        if "values" in desc:
            eta = _floats_value(desc, "values", "noise.values")
        else:
            eta = _load_file(load_vector, desc, "noise.path")
        if eta.shape != (m,):
            raise ConfigError(f"noise: fixed vector has length {eta.size}, expected {m}")
        return FixedNoise(eta), False
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
        return row_norm_distribution(sys), True
    if desc == "uniform":
        return uniform_distribution(sys.a.shape[0]), False
    if isinstance(desc, dict) and set(desc) == {"weights"}:
        w = _floats_value(desc, "weights", "distribution.weights")
        if w.size != sys.a.shape[0]:
            raise ConfigError(f"distribution: {w.size} weights for {sys.a.shape[0]} rows")
        try:
            return make_distribution(w), False
        except ValueError as exc:
            raise ConfigError(f"distribution: {exc}") from exc
    raise ConfigError(f"distribution: expected row_norm | uniform | {{weights}}, got {desc!r}")


def _build_x0(desc, sys):
    n = sys.a.shape[1]
    if desc == "zero":
        return np.zeros(n)
    if isinstance(desc, dict) and set(desc) == {"values"}:
        x0 = _floats_value(desc, "values", "x0.values")
        if x0.shape != (n,):
            raise ConfigError(f"x0: vector has length {x0.size}, expected {n}")
        return x0
    if isinstance(desc, dict) and set(desc) == {"path"}:
        x0 = _load_file(load_vector, desc, "x0.path")
        if x0.shape != (n,):
            raise ConfigError(f"x0: vector has length {x0.size}, expected {n}")
        return x0
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
        if kind not in CURVE_KINDS:
            raise ConfigError(f"outputs: unknown curve kind {kind!r}")
    return k_max, trials, seed, outputs


def _validate_outputs(outputs, noise, resample, norm_proportional, warnings):
    """Cross-check curve kinds against the noise descriptor.

    Returns the effective list: with a non-norm-proportional distribution
    the Strohmer-Vershynin / Zouzias-Freris forms are inapplicable, so they
    are replaced by the p-general bound with a warning. floor goes last, so
    that it reuses the floors exact and exact_avg solve for; it writes no
    curve, so no column moves.
    """
    fixed = isinstance(noise, FixedNoise)
    eta_known = fixed or not resample
    for kind in outputs:
        if kind in ("exact", "bound_zf", "bound_zf_general") and not eta_known:
            raise ConfigError(
                f"outputs: {kind} requires a realized noise vector "
                "(fixed noise, or iid with resample=false)"
            )
        if kind in ("exact_avg", "bound_zf_avg") and fixed:
            raise ConfigError(f"outputs: {kind} requires iid noise, not fixed")
    effective = []
    for kind in outputs:
        if kind in ("bound_sv", "bound_zf") and not norm_proportional:
            warnings.append(
                f"{kind} is stated for row-norm-proportional probabilities; "
                "emitting bound_zf_general instead"
            )
            kind = "bound_zf_general"
        if kind not in effective:
            effective.append(kind)
    effective.sort(key=lambda kind: kind == "floor")   # stable: floor last
    return effective


def _fmt(v):
    return format(float(v), ".17g")


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
    """Compute every requested curve; returns (curves, scalars, warnings).

    curves is an ordered {name: vector} dict, all of length k_max+1.
    """
    warnings = []
    k_max, trials, seed, outputs = _parse_config(cfg)
    sys_obj = _build_matrix(cfg["matrix"])
    m, n = sys_obj.a.shape
    noise, resample = _build_noise(cfg["noise"], m)
    dist, norm_proportional = _build_distribution(cfg.get("distribution", "row_norm"), sys_obj)
    x0 = _build_x0(cfg.get("x0", "zero"), sys_obj)
    z0 = x0 - sys_obj.x_true
    outputs = _validate_outputs(outputs, noise, resample, norm_proportional, warnings)

    eta = None
    if isinstance(noise, FixedNoise):
        eta = noise.eta
    elif not resample:
        # the same shared draw monte_carlo_mse uses with resample=false
        _, eta = make_measurements(sys_obj, noise, trial_noise_seed(seed))

    def log(msg):
        if verbose:
            print(msg, file=_sys.stderr)

    # the noise average reads only P, Q and g, which ignore eta: one model serves both
    model = build_model(sys_obj, dist, eta)
    nmodel = NoiseAveragedModel(model, noise.sigma2) if isinstance(noise, IidNoise) else None

    curves = {}
    scalars = {
        "m": m, "n": n, "sigma_min": sys_obj.sigma_min, "kappa": sys_obj.kappa,
        "lambda_max_p": lambda_max_P(model), "lambda_max_q": lambda_max_Q(model),
    }
    if eta is not None:
        scalars["eta_sq_norm"] = float(eta @ eta)

    for kind in outputs:
        log(f"computing {kind} ...")
        if kind == "empirical":
            emp = monte_carlo_mse(
                sys_obj, noise, dist, x0, k_max, trials, seed,
                resample_noise=resample,
            )
            curves["empirical"] = emp.mse_mean
            curves["empirical_stderr"] = emp.mse_stderr
        elif kind == "exact":
            curve = exact_mse_curve(model, z0, k_max)
            curves["exact"] = curve.values
            scalars["floor_exact"] = curve.floor
        elif kind == "exact_avg":
            curve = avg_mse_curve(nmodel, z0, k_max)
            curves["exact_avg"] = curve.values
            scalars["floor_avg"] = curve.floor
        elif kind == "bound_sv":
            curves["bound_sv"] = sv_bound_curve(sys_obj, z0, k_max)
        elif kind == "bound_zf":
            curves["bound_zf"] = zf_bound_curve(sys_obj, z0, eta, k_max)
        elif kind == "bound_zf_general":
            curves["bound_zf_general"] = zf_general_bound_curve(model, z0, k_max)
        elif kind == "bound_zf_avg":
            curves["bound_zf_avg"] = zf_avg_bound_curve(nmodel, z0, k_max)
        elif kind == "floor":
            # exact / exact_avg, computed before floor, already solved for it
            if eta is not None and "floor_exact" not in scalars:
                scalars["floor_exact"] = limiting_mse(model)
            if nmodel is not None and "floor_avg" not in scalars:
                scalars["floor_avg"] = avg_limiting_mse(nmodel)
    return curves, scalars, warnings


def _write_outputs(out_dir, curves, scalars, warnings, raw_config, k_max):
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "curves.csv")
    names = list(curves)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["k"] + names) + "\n")
        for k in range(k_max + 1):
            fh.write(",".join([str(k)] + [_fmt(curves[c][k]) for c in names]) + "\n")
    result = {
        "version": __version__,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "config": raw_config,
        "scalars": scalars,
        "warnings": warnings,
        "csv": "curves.csv",
    }
    json_path = os.path.join(out_dir, "result.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return csv_path, json_path


def cmd_run(cfg, raw_config, out_dir, verbose=False):
    curves, scalars, warnings = run_experiment(cfg, verbose=verbose)
    for w in warnings:
        print(f"warning: {w}", file=_sys.stderr)
    csv_path, json_path = _write_outputs(
        out_dir, curves, scalars, warnings, raw_config, cfg["k_max"]
    )
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
