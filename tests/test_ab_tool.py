"""Smoke test of ``tools/ab.py``, the in-process A/B of two source trees."""
import importlib.util
import json
import shutil
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
    assert human.startswith("pgm A/A, input seed 1: ") and "blocks of 1 ops, " in human
    report = json.loads(last)
    assert [report[key] for key in ("workload", "aa", "seed", "blocks", "ops")] == [
        "pgm", True, 1, 2, 1
    ]
    assert 0 < report["q1"] <= report["median"] <= report["q3"]
    assert 0 < report["ci_low"] <= report["median"] <= report["ci_high"]
    assert f"95% CI [{report['ci_low']:.3f}, {report['ci_high']:.3f}]" in human
    assert 0 <= report["wins"] <= 2
    # the warm-up op and two blocks of one op a side run inputs 0, 1 and 2
    assert (report["differing_inputs"], report["inputs"]) == (0, 3)
    assert "outputs differ on 0 of 3 inputs" in human
    # the call counts are deterministic, so a tree against itself counts the same
    calls = report["calls_per_op"]
    assert calls["parent"] == calls["change"]
    assert calls["parent"]["python"] > 0 and calls["parent"]["c"] > 0
    assert human.endswith(
        "Python and C calls per op: "
        f"parent {calls['parent']['python']:.1f} and {calls['parent']['c']:.1f}; "
        f"change {calls['change']['python']:.1f} and {calls['change']['c']:.1f}"
    )


def test_a_parent_that_prints_other_digits_differs_on_every_input(tmp_path):
    package = tmp_path / "src" / "infotherm"
    shutil.copytree(ROOT / "src" / "infotherm", package)
    cli = package / "cli.py"
    text = cli.read_text()
    assert text.count('_FLOAT = ".9g"') == 1
    cli.write_text(text.replace('_FLOAT = ".9g"', '_FLOAT = ".8g"'))
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(tmp_path), "--workload", "pgm",
         "--blocks", "2", "--ops", "1"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert (report["differing_inputs"], report["inputs"]) == (3, 3)


def test_it_needs_a_parent_or_aa():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--workload", "pgm"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert result.returncode == 2
    assert "give PARENT_CHECKOUT or --aa" in result.stderr


def load_ab(monkeypatch):
    """tools/ab.py as a module; the BLAS settings it makes on import are
    undone after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("_ab_under_test", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_another_input_seed_builds_other_inputs(tmp_path, monkeypatch):
    ab = load_ab(monkeypatch)
    workloads = ab.load_side(ROOT)
    seeds = {
        seed: [inp["seed"] for inp in ab.Side(workloads, "suite", seed, str(tmp_path)).inputs]
        for seed in (1, 2)
    }
    assert seeds[1] != seeds[2]
    assert seeds[1] == [
        inp["seed"] for inp in ab.Side(workloads, "suite", ab.INPUT_SEED, str(tmp_path)).inputs
    ]


def test_an_aa_run_on_another_seed_reports_it():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--aa", "--workload", "pgm",
         "--blocks", "2", "--ops", "1", "--seed", "7"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert result.returncode == 0, result.stderr
    human, last = result.stdout.splitlines()
    assert human.startswith("pgm A/A, input seed 7: ")
    report = json.loads(last)
    assert report["seed"] == 7
    assert (report["differing_inputs"], report["inputs"]) == (0, 3)


def test_a_negative_seed_is_refused():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--aa", "--workload", "pgm",
         "--seed", "-1"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert result.returncode == 2
    assert "--seed must be nonnegative" in result.stderr


def test_default_ascent_times_optimize_at_8_restarts_of_200_steps(tmp_path, monkeypatch):
    ab = load_ab(monkeypatch)
    workloads = ab.load_side(ROOT)
    bounds = workloads.infotherm.bounds
    configs = []
    real = bounds.maximize_accessible_information

    def spy(e, cfg):
        configs.append(cfg)
        return real(e, cfg)

    monkeypatch.setattr(bounds, "maximize_accessible_information", spy)
    side = ab.Side(workloads, "optimize", 1, str(tmp_path), ab.default_ascent(workloads))
    side.op()
    (cfg,) = configs
    assert (cfg.method, cfg.restarts, cfg.max_iterations) == ("random_restart_ascent", 8, 200)
    assert cfg.seed == side.inputs[0]["seed"]
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--aa", "--workload", "optimize",
         "--default-ascent", "--blocks", "2", "--ops", "1"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert result.returncode == 0, result.stderr
    human, last = result.stdout.splitlines()
    assert human.startswith("optimize at the default ascent A/A, input seed 1: ")
    report = json.loads(last)
    assert report["default_ascent"] is True
    assert (report["differing_inputs"], report["inputs"]) == (0, 3)


def test_default_ascent_is_for_optimize_only():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--aa", "--workload", "pgm",
         "--default-ascent"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert result.returncode == 2
    assert "--default-ascent needs --workload optimize" in result.stderr
