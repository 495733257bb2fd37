"""Every error message is written once.

The guard walks the syntax tree of each package module and collects every
call of an exception class from ``errors.py`` whose message is a string
literal or an f-string, keyed by the message's constant parts.  A template
that appears twice means a check is written out twice, so the guard fails:
the second site has to call the first one's helper instead.
"""
import ast
from collections import defaultdict
from pathlib import Path

import infotherm as it
from infotherm import errors

PACKAGE = Path(it.__file__).parent
ERROR_CLASSES = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.ToolkitError)
}


def template(node):
    """The constant parts of a literal or f-string message, with ``{}`` for
    each formatted value, or ``None`` for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "{}" for part in node.values
        )
    return None


def error_templates(path):
    """(template, line) of every error-class call with a literal message."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ERROR_CLASSES
            and node.args
        ):
            text = template(node.args[0])
            if text is not None:
                found.append((text, node.lineno))
    return found


def duplicates(paths):
    """Each template written more than once, with its (file, line) sites."""
    sites = defaultdict(list)
    for path in paths:
        for text, line in error_templates(path):
            sites[text].append((path.name, line))
    return {text: where for text, where in sites.items() if len(where) > 1}


def test_no_error_message_is_written_twice():
    assert duplicates(sorted(PACKAGE.glob("*.py"))) == {}


def test_the_guard_sees_a_repeated_message(tmp_path):
    stray = tmp_path / "stray.py"
    stray.write_text(
        "def f(x, y):\n"
        "    if x:\n"
        "        raise ValidationError(f'value {x:.3e} too low')\n"
        "    if y:\n"
        "        raise NumericalFailure(f'value {y} too low')\n"
        "    raise ValidationError('once')\n"
        "    raise KeyError('once')\n"
    )
    assert duplicates([stray]) == {"value {} too low": [("stray.py", 3), ("stray.py", 5)]}


def test_the_guard_reads_every_error_class():
    assert {"ValidationError", "NumericalFailure", "DimensionMismatch"} <= ERROR_CLASSES
    assert len(error_templates(PACKAGE / "linops.py")) >= 5
