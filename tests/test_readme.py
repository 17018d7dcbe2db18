"""README's library quick start and its CLI configs, run as written in a
fresh process, so that a README that drifts from the API fails the suite."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from kaczlab import cli, save_vector

from conftest import fresh_python

README = Path(__file__).resolve().parents[1] / "README.md"


def section(heading):
    """The README text from heading to the next level-2 heading."""
    return README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def quick_start():
    """The first python block after the "Library quick start" heading."""
    return re.search(r"```python\n(.*?)```", section("Library quick start"), re.DOTALL).group(1)


def cli_configs():
    """The json blocks of the "CLI" section, parsed."""
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section("CLI"),
                                                      re.DOTALL)]


def test_quick_start_runs(tmp_path):
    done = fresh_python(["-c", quick_start()], tmp_path)
    assert done.returncode == 0, done.stderr


def test_cli_configs_found():
    assert len(cli_configs()) == 2


@pytest.mark.parametrize("index", [0, 1], ids=["fixed", "averaged"])
def test_cli_config_runs(tmp_path, index):
    # a short horizon and few trials; eta.txt is the vector the fixed config reads
    cfg = dict(cli_configs()[index], k_max=5, trials=3)
    (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    save_vector(np.random.default_rng(2).standard_normal(150) * 0.1, str(tmp_path / "eta.txt"))
    done = fresh_python(["-m", "kaczlab.cli", "run", "--config", "config.json", "--out", "out"],
                        tmp_path)
    assert done.returncode == 0, done.stderr
    scalars = json.loads((tmp_path / "out" / "result.json").read_text())["scalars"]
    assert all(v is not None and math.isfinite(v) for v in scalars.values()), scalars


def test_layout_names_every_module():
    layout = re.search(r"```\n(src/kaczlab/.*?)```", section("Layout"), re.DOTALL).group(1)
    named = set(re.findall(r"^  (\w+\.py)\s", layout, re.MULTILINE))
    modules = {p.name for p in (README.parent / "src" / "kaczlab").glob("*.py")}
    assert modules - {"__init__.py"} <= named, sorted(modules - named - {"__init__.py"})


def test_output_table_matches_curve_kinds():
    # each row is "| `kind` | spec it reads ... |", the spec cell starting with
    # "realized vector" ("fixed"), "iid", or "none" (None)
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*)\|", section("CLI"), re.MULTILINE)
    words = {"realized vector": "fixed", "iid": "iid", "none": None}
    table = [(kind, next((spec for word, spec in words.items() if cell.startswith(word)), "?"))
             for kind, cell in rows]
    assert table == list(cli.CURVE_KINDS.items())
