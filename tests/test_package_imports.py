"""What importing the package loads, and how its public names resolve.

``import infotherm`` loads no submodule; each public name is looked up in
its home module when asked for, and is never kept in the package, so a
patch of the home module's attribute is what ``infotherm.<name>`` reads.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infotherm as it

SRC = str(Path(it.__file__).resolve().parents[1])


def fresh(code: str):
    """The JSON that ``code`` prints from a fresh interpreter that finds
    the package under ``src``."""
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def test_the_bounds_and_cli_modules_load_only_what_they_read():
    loaded = fresh(
        "import json, sys\n"
        "import infotherm\n"
        "bare = sorted(k for k in sys.modules if k.startswith('infotherm'))\n"
        "import infotherm.bounds, infotherm.cli\n"
        "print(json.dumps([bare, sorted(sys.modules)]))\n"
    )
    bare, modules = loaded
    assert bare == ["infotherm"]
    for name in ("dataclasses", "infotherm.thermo", "infotherm.blockcoding", "infotherm.suite_rng"):
        assert name not in modules
    assert {k for k in modules if k.startswith("infotherm")} == {
        "infotherm", "infotherm.errors", "infotherm.linops", "infotherm.quantum",
        "infotherm.measurement", "infotherm.bounds", "infotherm.cli",
    }


def test_a_command_loads_the_modules_it_runs(tmp_path):
    spec = tmp_path / "spec.json"
    zero = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    plus = [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]
    spec.write_text(json.dumps({"ensemble": {"priors": [0.5, 0.5], "states": [zero, plus]}}))
    loaded = {}
    for command in (["pgm", "--spec", str(spec), "--max-m", "1"], ["suite", "--trials", "2"]):
        loaded[command[0]] = fresh(
            "import contextlib, io, json, sys\n"
            "from infotherm import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({command!r})\n"
            "loaded = sorted(k for k in sys.modules if k.startswith('infotherm.'))\n"
            "print(json.dumps([code, loaded]))\n"
        )
    assert loaded["pgm"][0] == 0 and "infotherm.blockcoding" in loaded["pgm"][1]
    assert "infotherm.thermo" not in loaded["pgm"][1]
    assert loaded["suite"][0] == 0
    assert {"infotherm.suite_rng", "infotherm.thermo"} <= set(loaded["suite"][1])
    assert "infotherm.blockcoding" not in loaded["suite"][1]


def test_every_public_name_is_its_home_modules_object():
    for name in it.__all__:
        home = importlib.import_module(f"infotherm.{it._HOMES[name]}")
        value = getattr(it, name)
        assert value is getattr(home, name), name
        assert name not in vars(it), name
        if callable(value):  # defined there, not imported into it
            assert value.__module__ == home.__name__, name


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from infotherm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(it.__all__)
    for name, value in namespace.items():
        assert value is getattr(it, name)


def test_a_patched_home_attribute_is_what_the_package_returns(monkeypatch):
    from infotherm import blockcoding, bounds

    def stand_in(*args):
        raise AssertionError("not called")

    for module, name in ((bounds, "evaluate_bounds"), (blockcoding, "BlockReport")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, stand_in)
        assert getattr(it, name) is stand_in
        monkeypatch.setattr(module, name, real)
        assert getattr(it, name) is real


def test_submodules_resolve_and_unknown_names_raise():
    assert it.thermo is importlib.import_module("infotherm.thermo")
    with pytest.raises(AttributeError, match="^module 'infotherm' has no attribute 'nothing'$"):
        it.nothing


def test_dir_lists_the_public_names_and_submodules_only():
    names = dir(it)
    assert set(it.__all__) <= set(names)
    modules = {"blockcoding", "bounds", "errors", "linops", "measurement", "quantum", "thermo"}
    assert modules <= set(names)
    assert not {"importlib", "_HOMES", "__getattr__", "__dir__"} & set(names)
    assert names == sorted(names)
