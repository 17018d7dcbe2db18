"""perfbench's tracer self-test, run in a fresh process on the kaczlab the
suite imported, so that a rename that hides apply_Q from the tracer, or a
traced run whose curves.csv differs from the untraced one, fails the suite."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import kaczlab

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_tracer_selftest(tmp_path):
    # child.py requires PYTHONPATH to be exactly the source tree it imports
    src = str(Path(kaczlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **dict.fromkeys(THREADS, "1"))
    report = tmp_path / "report.json"
    argv = [sys.executable, str(CHILD), "selftest", str(report), repr(time.perf_counter()),
            str(tmp_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["ok"], doc["checks"]
