"""Every threshold lives in the table at the top of ``linops``.

The guard walks the syntax tree of each package module.  Outside that table
it allows no float literal in (0, 1e-6) and no assignment to a ``*_TOL``,
``*_CLIP``, ``*_FLOOR`` or ``*_EPSILON`` name, so a new check has to name
its threshold in the table instead of hard-coding it next to the check.
"""
import ast
import re
from pathlib import Path

import pytest

import infotherm as it
from infotherm import blockcoding, bounds, linops, measurement, quantum, thermo

PACKAGE = Path(it.__file__).parent
THRESHOLD_NAME = re.compile(r"^[A-Z][A-Z_]*_(TOL|CLIP|FLOOR|EPSILON)$")


def table_nodes(tree):
    """The module-level constant assignments of ``linops``."""
    return [
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets)
    ]


def assigned_names(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def strays(path):
    """(line, what) for every threshold outside the table."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    if path.name == "linops.py":
        for node in table_nodes(tree):
            allowed.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (
            isinstance(node, ast.Constant)
            and type(node.value) is float
            and 0.0 < node.value < 1e-6
        ):
            found.append((node.lineno, f"literal {node.value!r}"))
        for name in assigned_names(node):
            if THRESHOLD_NAME.match(name):
                found.append((node.lineno, f"assignment to {name}"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_threshold_outside_the_linops_table(path):
    assert strays(path) == []


def test_the_guard_sees_a_stray_threshold(tmp_path):
    stray = tmp_path / "stray.py"
    stray.write_text("LOCAL_TOL = 0.5\n\ndef f(x):\n    return x > 1e-9\n")
    assert strays(stray) == [(1, "assignment to LOCAL_TOL"), (4, "literal 1e-09")]


def test_every_table_name_is_a_threshold_and_is_shared():
    tree = ast.parse((PACKAGE / "linops.py").read_text(encoding="utf-8"))
    names = [t.id for node in table_nodes(tree) for t in node.targets]
    assert all(THRESHOLD_NAME.match(name) for name in names)
    assert len(names) <= 16
    # modules read the table's objects; none keeps a private copy
    assert quantum.PSD_TOL is linops.PSD_TOL
    assert measurement.PSD_TOL is linops.PSD_TOL
    assert bounds.BOUND_TOL is linops.BOUND_TOL
    assert thermo.CYCLE_TOL is linops.CYCLE_TOL
    assert blockcoding.BOUND_TOL is linops.BOUND_TOL
