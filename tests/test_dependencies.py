import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kaczlab"
# pyproject.toml declares numpy as the only runtime dependency
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "kaczlab"}


def imported_roots(path):
    """(line, top-level module) of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


SOURCES = sorted(PACKAGE.rglob("*.py"))


def test_package_sources_found():
    assert PACKAGE / "lifted.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    bad = [f"{path.name}:{line} imports {root}"
           for line, root in imported_roots(path) if root not in ALLOWED]
    assert not bad
