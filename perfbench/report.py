#!/usr/bin/env python3
"""Steadiness report: repeat run.py over several seeds and summarize each metric.

    python3 perfbench/report.py --workloads fixed_mc,horizon_small --seeds 1-10

For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile range as a share
of the median, and (max - min) / median. With --trace 0 it also compares the
interquartile share with each metric's bound from BENCHMARK.json. Runs are
sequential, so they never compete for the CPU.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            res = one(workload, seed, args.seconds, args.trace)
            if not res["correct"]:
                raise SystemExit(f"{workload} seed {seed}: not correct: {res}")
            results.append(res)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                if k in bounds or args.trace == 0), flush=True)
        print(f"\n{workload}: {len(results)} runs")
        print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            iqr = (q3 - q1) / med if med else float("nan")
            rng = (max(values) - min(values)) / med if med else float("nan")
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None:
                flag = "  OVER BOUND" if iqr > bound else ("  over bound/3" if iqr > bound / 3 else "")
            print(f"{name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.4f} {rng:9.4f} "
                  f"{'' if bound is None else format(bound, 'g'):>6s}{flag}  {first['unit']}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
