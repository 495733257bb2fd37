"""Every test function written in the suite is one that pytest collects.

The guard walks the syntax tree of each test module.  A ``test_*`` def
inside a function body is never collected, and of two defs of one name in
one scope (a module or a class body) only the last one is, so either
leaves a test that never runs, and the guard fails.
"""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
BLOCKS = (ast.stmt, ast.excepthandler, ast.match_case)


def bound(statements):
    """The defs and classes a scope binds: in its statements, and in the
    blocks (if, for, while, with, try, match) among them."""
    for node in statements:
        if isinstance(node, DEFS):
            yield node
        else:
            yield from bound(c for c in ast.iter_child_nodes(node) if isinstance(c, BLOCKS))


def dead_tests(source: str) -> list[tuple[int, str, str]]:
    """(line, name, why) of each ``test_*`` def of ``source`` that pytest
    would not collect."""
    found = []

    def scope(statements, in_function):
        last = {}
        for node in bound(statements):
            if node.name.startswith("test_") and not isinstance(node, ast.ClassDef):
                if in_function:
                    found.append((node.lineno, node.name, "inside a function"))
            earlier = last.get(node.name)
            if earlier is not None and earlier.name.startswith("test_"):
                found.append((earlier.lineno, earlier.name, f"shadowed on line {node.lineno}"))
            last[node.name] = node
            scope(node.body, in_function or not isinstance(node, ast.ClassDef))

    scope(ast.parse(source).body, False)
    return sorted(found)


def test_every_test_is_collected():
    found = {
        path.name: dead_tests(path.read_text(encoding="utf-8"))
        for path in sorted(TESTS.glob("test_*.py"))
    }
    assert {name: dead for name, dead in found.items() if dead} == {}


def test_the_guard_sees_a_test_after_a_helper_placed_mid_class():
    # a module-level helper put in the middle of a class ends the class,
    # and the test indented after it becomes dead code after its return
    source = (
        "class TestThings:\n"
        "    def test_first(self):\n"
        "        assert True\n"
        "\n"
        "\n"
        "def _helper(folder):\n"
        "    folder.mkdir()\n"
        "    return folder\n"
        "\n"
        "    def test_after_the_helper(self):\n"
        "        assert True\n"
    )
    assert dead_tests(source) == [(10, "test_after_the_helper", "inside a function")]


def test_the_guard_sees_nested_and_shadowed_tests():
    source = (
        "def test_twice():\n"
        "    def test_inner():\n"
        "        pass\n"
        "\n"
        "\n"
        "if True:\n"
        "    def test_twice():\n"
        "        pass\n"
        "\n"
        "\n"
        "class TestPair:\n"
        "    def test_one(self):\n"
        "        pass\n"
        "\n"
        "    def test_one(self):\n"
        "        class Local:\n"
        "            def test_deep(self):\n"
        "                pass\n"
        "\n"
        "    def helper(self):\n"
        "        pass\n"
        "\n"
        "    def helper(self):\n"
        "        pass\n"
    )
    assert dead_tests(source) == [
        (1, "test_twice", "shadowed on line 7"),
        (2, "test_inner", "inside a function"),
        (12, "test_one", "shadowed on line 15"),
        (17, "test_deep", "inside a function"),
    ]
