#!/usr/bin/env python3
"""Benchmark of ``kaczlab run``: whole runs timed end to end, layers traced.

    python3 perfbench/run.py --workload fixed_mc --seed 0 --seconds 30 --trace 0

Load shape: a closed loop with one client. Each run is a fresh Python
process that imports kaczlab from one source tree and calls
``kaczlab.cli.main(["run", ...])`` with the default of one thread; BLAS and
OpenMP are pinned to one thread in that process.

--trace 0 first launches SETUP_PROBES import-only processes per source tree,
then repeats pairs of whole runs, one on this checkout's ``src`` and one on
the frozen reference copy under ``reference/``, in alternating order, while
the next pair is expected to end within --seconds (at least one pair). The
host's speed drifts by up to 2x over seconds to minutes; both runs of a pair
see nearly the same speed, so ``run_rel``, the median over pairs of
(this run / reference run), is steady where wall seconds are not.

--trace 1 runs the tracer self-test, then one untraced and one traced run of
the workload on this checkout's ``src``, and reports per-layer metrics, the
tracing overhead, and whether both runs wrote the same curves.csv bytes.
Every run's outputs are checked. The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)   # before numpy is imported, here and in children

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference")   # frozen copy of src/kaczlab; see README.md
WORK = os.path.join(ROOT, ".perfbench-work")
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 3          # import-only processes per source tree
BUDGET_S = 170.0          # a whole invocation stays under this

sys.path.insert(0, SRC)

from tracer import TARGETS  # noqa: E402
from workloads import WORKLOADS, check_outputs, scalar_counts, write_config  # noqa: E402

END_TO_END = {            # name -> unit
    "run_rel": "x",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "scalars_ok": "count",
}


def per_layer_units():
    """Per-layer metric name -> unit, in report order."""
    units = {}
    for mod, fn in TARGETS:
        if (mod, fn) == ("cli", "main"):
            continue
        units[f"{mod}.{fn}.calls"] = "count"
        units[f"{mod}.{fn}.s"] = "s"
        units[f"{mod}.{fn}.self_s"] = "s"
    units.update({
        "cli.io_s": "s",
        "rka.trial_steps_per_s": "1/s",
        "lifted.exact_step_us": "us",
        "noise_avg.avg_step_us": "us",
        "trace.run_s": "s",
        "trace.overhead_s": "s",
    })
    return units


class Invocation:
    """Child processes of one benchmark invocation, all under one deadline."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.deadline = time.perf_counter() + BUDGET_S
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("KACZLAB_")}
        self.count = 0

    def launch(self, mode, *args, src=SRC):
        """Run child.py on the kaczlab in ``src`` in a fresh process; its report
        dict, or None if it failed."""
        self.count += 1
        report = os.path.join(self.workdir, f"report{self.count}.json")
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            print(f"{mode}: no time left in the {BUDGET_S:g} s budget", file=sys.stderr)
            return None
        launch = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, mode, report, repr(launch), *args],
                cwd=self.workdir, env={**self.env, "PYTHONPATH": src}, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            print(f"{mode}: killed after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not os.path.exists(report):
            print(f"{mode}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        with open(report, encoding="utf-8") as fh:
            return json.load(fh)

    def run(self, workload, cfg, cfg_path, name, trace_file=None, run_id=None, src=SRC):
        """One checked ``kaczlab run``; (report or None, failures)."""
        out = os.path.join(self.workdir, name)
        extra = [trace_file, run_id] if trace_file else []
        doc = self.launch("run", cfg_path, out, *extra, src=src)
        if doc is None:
            return None, [f"{name}: the run process failed"]
        if doc["exit"] != 0:
            return None, [f"{name}: kaczlab run exited {doc['exit']}"]
        failures = [f"{name}: {f}" for f in check_outputs(workload, cfg, out)]
        return doc, failures


def high_percentile(samples, unit):
    """'pNN value unit' of the highest percentile with at least 10 samples above it."""
    n = len(samples)
    if n < 11:
        return f"pNN n/a (needs 11 samples, has {n})"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(samples)[n - 11]:.4f} {unit}"


def measure(inv, workload, cfg, cfg_path, seconds):
    """--trace 0: set-up probes, then pairs of whole runs, one on this
    checkout's kaczlab and one on the reference copy, in alternating order."""
    failures, setups, runs, ratios = [], [], [], []
    env = None
    for i in range(2 * SETUP_PROBES):
        src = (SRC, REFERENCE)[i % 2]
        doc = inv.launch("probe", src=src)
        if doc is None:
            failures.append(f"set-up probe of {src} failed")
            break
        if src == SRC:
            env = env or doc["env"]
            setups.append(doc["setup_s"])
    print(f"environment: {json.dumps(env)}")
    attempted = failed = 0
    start = time.perf_counter()
    while not failures or not attempted:
        order = (SRC, REFERENCE) if len(ratios) % 2 == 0 else (REFERENCE, SRC)
        pair = {}
        for src in order:
            attempted += 1
            name = f"out{attempted}"
            doc, fails = inv.run(workload, cfg, cfg_path, name, src=src)
            if src == REFERENCE:
                fails = [f"reference copy: {f}" for f in fails]
            elif doc is not None:
                ok_scalars, null = scalar_counts(os.path.join(inv.workdir, name))
            shutil.rmtree(os.path.join(inv.workdir, name), ignore_errors=True)
            failures += fails
            failed += bool(fails)
            pair[src] = doc
            if doc is None:
                break
        if len(pair) == 2 and None not in pair.values():
            runs.append(pair[SRC])
            setups.append(pair[SRC]["setup_s"])
            ratios.append(pair[SRC]["run_s"] / pair[REFERENCE]["run_s"])
        elapsed = time.perf_counter() - start
        if elapsed + 2 * elapsed / attempted > seconds:
            break
    metrics = {}
    if runs:
        run_s = [r["run_s"] for r in runs]
        metrics = {
            "run_rel": statistics.median(ratios),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in runs),
            "scalars_ok": ok_scalars,
        }
        q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        print(f"run_rel: median {metrics['run_rel']:.4f} x over {len(ratios)} pair(s); "
              f"quartiles {q[0]:.4f} / {q[2]:.4f}; {high_percentile(ratios, 'x')}")
        print(f"run_s (this checkout, wall): median {statistics.median(run_s):.4f} s, "
              f"{high_percentile(run_s, 's')}")
        print(f"setup_s: median {metrics['setup_s']:.4f} s over {len(setups)} launches")
        print(f"peak_rss_mib: {metrics['peak_rss_mib']:.1f} MiB")
        print(f"scalars_ok: {ok_scalars} count (null_scalars: {null} count)")
    print(f"runs_attempted: {attempted} count")
    print(f"runs_failed: {failed} count")
    return metrics, attempted, failed, failures


def trace(inv, workload, cfg, cfg_path, run_id):
    """--trace 1: tracer self-test, then an untraced and a traced run."""
    failures = []
    selftest_dir = os.path.join(inv.workdir, "selftest")
    os.makedirs(selftest_dir)
    doc = inv.launch("selftest", selftest_dir)
    if doc is None or not doc["ok"]:
        failures.append(f"tracer self-test failed: {doc and doc['checks']}")
    else:
        print(f"environment: {json.dumps(doc['env'])}")
        print(f"tracer self-test: ok ({doc['apply_Q_calls']} apply_Q calls)")

    plain, plain_fails = inv.run(workload, cfg, cfg_path, "plain")
    os.makedirs(WORK, exist_ok=True)
    trace_file = os.path.join(WORK, f"trace-{run_id}.json")
    traced, traced_fails = inv.run(workload, cfg, cfg_path, "traced", trace_file, run_id)
    same = False
    if plain is not None and traced is not None:
        same = filecmp.cmp(os.path.join(inv.workdir, "plain", "curves.csv"),
                           os.path.join(inv.workdir, "traced", "curves.csv"), shallow=False)
        if not same:
            traced_fails.append("traced: curves.csv differs from the untraced run's")
    failures += plain_fails + traced_fails
    failed = int(bool(plain_fails)) + int(bool(traced_fails))
    if plain is None or traced is None:
        return {}, 2, failed, failures

    with open(trace_file, encoding="utf-8") as fh:
        tr = json.load(fh)
    stats = tr["stats"]
    if tr["absent"]:
        print(f"not defined by this kaczlab, reported as 0: {tr['absent']}")

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    metrics = {}
    for name in per_layer_units():
        layer, _, key = name.rpartition(".")
        if key in ("calls", "s", "self_s"):
            metrics[name] = stat(layer, key)
    k_max, trials = cfg["k_max"], cfg.get("trials", 1)
    mc_s = stat("rka.monte_carlo_mse", "s")
    metrics["cli.io_s"] = stat("cli.main", "s") - stat("cli.run_experiment", "s")
    metrics["rka.trial_steps_per_s"] = trials * k_max / mc_s if mc_s else 0
    metrics["lifted.exact_step_us"] = 1e6 * stat("lifted.exact_mse_curve", "s") / k_max
    metrics["noise_avg.avg_step_us"] = 1e6 * stat("noise_avg.avg_mse_curve", "s") / k_max
    metrics["trace.run_s"] = traced["run_s"]
    metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]

    total = traced["run_s"]
    print(f"untraced run_s {plain['run_s']:.4f} s, traced {total:.4f} s, "
          f"overhead {metrics['trace.overhead_s']:+.4f} s; curves.csv byte-identical: {same}")
    print(f"{'layer':34s} {'calls':>9s} {'s':>9s} {'self_s':>9s} {'self %':>7s}")
    for name in sorted(stats, key=lambda n: -stats[n]["self_s"]):
        s = stats[name]
        if s["calls"]:
            print(f"{name:34s} {s['calls']:9d} {s['s']:9.4f} {s['self_s']:9.4f} "
                  f"{100 * s['self_s'] / total:6.1f}%")
    print(f"spans kept: {len(tr['spans'])}, written to {trace_file}")
    return metrics, 2, failed, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="workload seed (0 = the README values)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time for --trace 0; at least one run is made")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "kaczlab", "cli.py")):
        print(f"no kaczlab sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_id = f"{workload.name}-seed{args.seed}"
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{run_id}-", dir=WORK)
    try:
        inv = Invocation(workdir)
        cfg, cfg_path = write_config(workload, args.seed, workdir)
        print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            metrics, attempted, failed, failures = trace(inv, workload, cfg, cfg_path, run_id)
            units = per_layer_units()
        else:
            metrics, attempted, failed, failures = measure(
                inv, workload, cfg, cfg_path, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for f in failures:
        print(f"CHECK FAILED: {f}")
    correct = not failures and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
