"""Every private function of the package is read by the package.

The guard walks the syntax tree of each package module and collects every
function and method whose name has one leading underscore, and every name
and attribute the modules read.  A private function that no module reads
outside its own definition is dead code, or code that only the tests
reach, so the guard fails: delete it, or move it into the tests.  An
import alone is not a read.
"""
import ast
from collections import defaultdict
from pathlib import Path

import infotherm as it

PACKAGE = Path(it.__file__).parent


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


class _Reader(ast.NodeVisitor):
    """The private functions a module defines, (name, line), and the names
    it reads, each outside the definitions of that name around it."""

    def __init__(self):
        self.defined, self.read, self.inside = [], set(), []

    def visit_FunctionDef(self, node):
        if is_private(node.name):
            self.defined.append((node.name, node.lineno))
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def note(self, name):
        if name not in self.inside:
            self.read.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.note(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.note(node.attr)
        self.generic_visit(node)


def unread(paths):
    """Each private function no module of ``paths`` reads, with its (file,
    line) definitions."""
    defined, read = defaultdict(list), set()
    for path in paths:
        reader = _Reader()
        reader.visit(ast.parse(path.read_text(encoding="utf-8")))
        for name, line in reader.defined:
            defined[name].append((path.name, line))
        read |= reader.read
    return {name: where for name, where in defined.items() if name not in read}


def test_every_private_function_is_read_in_the_package():
    assert unread(sorted(PACKAGE.glob("*.py"))) == {}


def test_the_guard_sees_unread_functions(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(
        "def _used():\n"
        "    return 1\n"
        "def _imported_only():\n"
        "    return 2\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._kept()\n"
        "    def _kept(self):\n"
        "        pass\n"
        "    def _dropped(self):\n"
        "        pass\n"
    )
    second.write_text(
        "from first import _imported_only, _used\n"
        "def public():\n"
        "    return _used()\n"
    )
    assert unread([first, second]) == {
        "_imported_only": [("first.py", 3)],
        "_recursive": [("first.py", 5)],
        "_dropped": [("first.py", 12)],
    }


def test_the_guard_reads_the_package():
    found = _Reader()
    found.visit(ast.parse((PACKAGE / "measurement.py").read_text(encoding="utf-8")))
    assert {"_group", "_analyse_groups", "_joint_distributions"} <= dict(found.defined).keys()
    assert "_povm_flags" in found.read
