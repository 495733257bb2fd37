"""Smoke test of the pytest settings in ``pyproject.toml``: a failing
``@given`` test must fail on its own, not end the session."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIR = '''\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_leaves_the_next_test_running(tmp_path):
    # hypothesis reports the failing example through a path that raises a
    # DeprecationWarning, which filterwarnings = "error" would make an
    # INTERNALERROR that stops the session before the second test
    (tmp_path / "test_pair.py").write_text(PAIR)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_pair.py"],
        capture_output=True, text=True, timeout=120, check=False, cwd=tmp_path,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in result.stdout.splitlines()[-1]
