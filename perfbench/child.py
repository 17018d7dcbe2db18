"""One fresh process of the benchmark: import kaczlab, then do one job.

    child.py probe    REPORT LAUNCH
    child.py run      REPORT LAUNCH CONFIG OUT [TRACE_FILE RUN_ID]
    child.py selftest REPORT LAUNCH WORKDIR

LAUNCH is the parent's ``time.perf_counter()`` just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes, so
import-done minus LAUNCH is the set-up time of this process. The report is
written as JSON to REPORT. The parent sets PYTHONPATH to the one directory
kaczlab must come from (the checkout's ``src``, or the benchmark's frozen
reference copy) and pins the BLAS/OpenMP thread variables.
"""

import time

import kaczlab.cli  # the set-up window ends here

IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A 6x3 noise-averaged config: exact_avg reaches apply_Q through the name
# noise_avg imported from lifted, which is what the self-test must catch.
SELFTEST_K_MAX = 50
SELFTEST_CONFIG = {
    "matrix": {"kind": "gaussian", "m": 6, "n": 3, "seed": 5},
    "noise": {"kind": "iid", "sigma2": 1e-3, "resample": False},
    "x0": {"random_seed": 1},
    "k_max": SELFTEST_K_MAX,
    "seed": 2,
    "outputs": ["exact", "exact_avg", "bound_zf_avg", "floor"],
}


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": getattr(getattr(kaczlab, "kernels", None), "BACKEND", None),
        "threads_pinned": {k: os.environ.get(k) for k in PINNED},
    }


def run(config, out, trace_file=None, run_id=None):
    tr = tracer.Tracer() if trace_file else None
    with tr or contextlib.nullcontext():
        t0 = time.perf_counter()
        code = kaczlab.cli.main(["run", "--config", config, "--out", out])
        run_s = time.perf_counter() - t0
    if tr:
        tr.dump(trace_file, run_id)
    return {"exit": code, "run_s": run_s, "peak_rss_mib": peak_rss_mib()}


def selftest(workdir):
    """Traced and untraced runs of a tiny config agree byte for byte, the
    re-bound apply_Q is caught, and every wrapped name is restored."""
    config = os.path.join(workdir, "selftest.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(SELFTEST_CONFIG, fh)
    modules = tracer.kaczlab_modules()
    before = [dict(vars(mod)) for mod in modules]
    plain = os.path.join(workdir, "plain")
    traced = os.path.join(workdir, "traced")
    tr = tracer.Tracer()
    code_plain = kaczlab.cli.main(["run", "--config", config, "--out", plain])
    with tr:
        code_traced = kaczlab.cli.main(["run", "--config", config, "--out", traced])
    restored = all(
        vars(mod).get(k) is v for mod, names in zip(modules, before) for k, v in names.items()
    )
    q_calls = tr.stats.get("lifted.apply_Q", [0])[0]
    same = filecmp.cmp(os.path.join(plain, "curves.csv"),
                       os.path.join(traced, "curves.csv"), shallow=False)
    checks = {
        "exit_codes_zero": code_plain == 0 and code_traced == 0,
        "apply_Q_calls_ge_2k": q_calls >= 2 * SELFTEST_K_MAX,
        "curves_byte_identical": same,
        "names_restored": restored,
    }
    return {"ok": all(checks.values()), "checks": checks, "apply_Q_calls": q_calls,
            "env": environment()}


def main(argv):
    mode, report, launch = argv[0], argv[1], float(argv[2])
    src = os.path.abspath(os.environ["PYTHONPATH"])
    if not os.path.abspath(kaczlab.cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"kaczlab imported from {kaczlab.cli.__file__}, not from {src}")
    doc = {"setup_s": IMPORTED - launch}
    if mode == "probe":
        doc["env"] = environment()
    elif mode == "run":
        doc.update(run(*argv[3:]))
    elif mode == "selftest":
        doc.update(selftest(argv[3]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
