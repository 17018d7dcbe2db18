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


# words of the argument checks that only _num may raise
OWNED_MESSAGES = ("must have length", "must be an integer", "rows, the system")
# LinearSystem's sigma_min and kappa, which the rank gate sets and result.json
# reports; every bound reads lambda_max(P) instead
REPORTED_ONLY = {"kappa", "sigma_min"}


def is_frozen_store(node):
    """node is a call of .setflags(...) or object.__setattr__(...)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    owner = node.func.value
    return node.func.attr == "setflags" or (
        node.func.attr == "__setattr__" and isinstance(owner, ast.Name) and owner.id == "object")


def test_one_owner_per_rule():
    """Only _num.set_fields freezes an array or stores a frozen field, only
    _num words an integer check, a vector length check or a distribution length
    check, and only problems and cli read .kappa or .sigma_min."""
    stores, messages, reads = [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        helper = {id(node) for func in ast.walk(tree) if path.name == "_num.py"
                  and isinstance(func, ast.FunctionDef) and func.name == "set_fields"
                  for node in ast.walk(func)}
        for node in ast.walk(tree):
            if is_frozen_store(node) and id(node) not in helper:
                stores.append(f"{path.name}:{node.lineno}")
            if (path.name != "_num.py" and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and any(words in node.value for words in OWNED_MESSAGES)):
                messages.append(f"{path.name}:{node.lineno}")
            if (path.name not in ("problems.py", "cli.py") and isinstance(node, ast.Attribute)
                    and node.attr in REPORTED_ONLY):
                reads.append(f"{path.name}:{node.lineno}")
    assert stores == [] and messages == [] and reads == []


# the modules that may form A x_true: make_measurements, and the x-space
# enumeration oracle in validate
FORMS_A_X_TRUE = {"problems.py", "validate.py"}


def test_only_measurements_form_a_x_true():
    """No other module computes ... @ x_true: the Monte Carlo and the lifted
    model read the noise spec's eta itself, never y - A x_true."""
    found = []
    for path in SOURCES:
        if path.name in FORMS_A_X_TRUE:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
                continue
            right = node.right
            if (isinstance(right, ast.Attribute) and right.attr == "x_true") or (
                    isinstance(right, ast.Name) and right.id == "x_true"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# the modules that may read .x_true: the generators and files of problems, the
# enumeration oracle of validate, and the CLI's z0 = x0 - x_true
READS_X_TRUE = {"problems.py", "validate.py", "cli.py"}


def test_only_problems_validate_and_cli_read_x_true():
    """Every curve, bound and Monte Carlo run takes z0 with the model, so no
    other module reads a system's x_true."""
    found = [f"{path.name}:{node.lineno}" for path in SOURCES if path.name not in READS_X_TRUE
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "x_true"]
    assert found == []


# the modules that may name IidNoise: its definition and draw in problems, its
# second moment and averaged curve in lifted, the config's noise kind in cli,
# and the export in __init__
NAMES_IID_NOISE = {"__init__.py", "problems.py", "lifted.py", "cli.py"}


def test_only_noise_owners_name_iid_noise():
    """bounds and rka read every spec through lifted.vec_e and
    problems.draw_eta, so a new noise spec needs no edit there."""
    found = [f"{path.name}:{node.lineno}" for path in SOURCES if path.name not in NAMES_IID_NOISE
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if (isinstance(node, ast.Name) and node.id == "IidNoise")
             or (isinstance(node, ast.alias) and node.name == "IidNoise")]
    assert found == []


# the function that may read the table matrix of LiftedModel.q_table. Every
# application of Q is an apply_Q call, which the benchmark's tracer counts
APPLIES_Q_TABLE = "apply_Q"


def enclosing_functions(tree):
    """{id(node): the name of the innermost function around node, or
    "<module>"} for every node of tree but its root."""
    owner = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            owner[id(child)] = node.name if isinstance(node, ast.FunctionDef) else owner.get(
                id(node), "<module>")
    return owner


def q_table_reads(tree):
    """(enclosing function, line) of every read of .q_table outside apply_Q
    that may reach its table: any but an `is None` test and an unpacking that
    drops the table into `_`, as in `_, upper, full = model.q_table`. Also
    every call of _tabulate_q but LiftedModel.__post_init__'s."""
    safe, owner = set(), enclosing_functions(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))):
            safe.add(id(node.left))
        elif (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
              and isinstance(node.targets[0].elts[0], ast.Name)
              and node.targets[0].elts[0].id == "_"):
            safe.add(id(node.value))
    for node in ast.walk(tree):
        name = owner.get(id(node))
        if (isinstance(node, ast.Attribute) and node.attr == "q_table"
                and id(node) not in safe and name != APPLIES_Q_TABLE):
            yield name, node.lineno
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_tabulate_q" and name != "__post_init__"):
            yield name, node.lineno


def test_only_apply_q_multiplies_by_the_table():
    """No function but lifted.apply_Q reads q_table's table: _tabulate_q
    builds it for LiftedModel, and any other function (_lifted_curve) may
    only test q_table for None or read its upper and full indices."""
    found = [f"{path.name}:{line} in {name}" for path in SOURCES
             for name, line in q_table_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


# the functions that may name lifted._apply_q_implicit: apply_Q, and the build
# of the table that apply_Q multiplies by. The benchmark's tracer counts
# apply_Q calls, so every application of Q goes through it
APPLIES_Q_IMPLICIT = {"apply_Q", "_tabulate_q"}


def test_only_apply_q_applies_q():
    """No function but lifted.apply_Q and lifted._tabulate_q names
    _apply_q_implicit: the curves, the solvers and the Lanczos runs apply Q by
    apply_Q, one counted call per application."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = enclosing_functions(tree)
        found += [f"{path.name}:{node.lineno} in {owner[id(node)]}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "_apply_q_implicit"
                  and owner[id(node)] not in APPLIES_Q_IMPLICIT]
    assert found == []
