"""Smoke test of ``tools/ab.py``, the in-process A/B of two source trees."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_an_aa_run_of_two_pgm_blocks_reports_its_ratio():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--aa", "--workload", "pgm",
         "--blocks", "2", "--ops", "1"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert result.returncode == 0, result.stderr
    human, last = result.stdout.splitlines()
    assert human.startswith("pgm A/A: ") and human.endswith("blocks of 1 ops")
    report = json.loads(last)
    assert [report[key] for key in ("workload", "aa", "blocks", "ops")] == ["pgm", True, 2, 1]
    assert 0 < report["q1"] <= report["median"] <= report["q3"]
    assert 0 < report["ci_low"] <= report["median"] <= report["ci_high"]
    assert f"95% CI [{report['ci_low']:.3f}, {report['ci_high']:.3f}]" in human
    assert 0 <= report["wins"] <= 2


def test_it_needs_a_parent_or_aa():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--workload", "pgm"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert result.returncode == 2
    assert "give PARENT_CHECKOUT or --aa" in result.stderr
