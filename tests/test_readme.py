"""README's library quick start, run as written in a fresh process, so that
a README that drifts from the API fails the suite."""

import os
import re
import subprocess
import sys
from pathlib import Path

import kaczlab

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    """The first python block after the "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs(tmp_path):
    # the kaczlab the suite imports, not whichever one is installed
    src = str(Path(kaczlab.__file__).resolve().parents[1])
    path = (src, os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run([sys.executable, "-c", quick_start()], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
