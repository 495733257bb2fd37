"""Tests of the benchmark itself: span counts and output checks.

Run with ``python -m pytest bench``; the repository's own suite under
``tests/`` does not collect them.
"""
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads, locates src/)

run.import_infotherm()

import infotherm.bounds  # noqa: E402
import infotherm.measurement  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_traced_suite_op_counts_delta_s_and_post_measurement_state(tmp_path):
    workload = workloads.SuiteWorkload()
    inp = workload.make_inputs(seed=0, work_dir=str(tmp_path))[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = workload.run(inp)
    finally:
        tracer.uninstall()
    assert workload.check(inp, code) is None
    totals = tracer.span_totals()
    # 50 trials: delta_s twice per trial (evaluate_bounds and run_cycle),
    # post_measurement_state once inside each and once more in run_cycle.
    assert totals["measurement.delta_s"]["calls"] == 100
    assert totals["measurement.post_measurement_state"]["calls"] == 150
    assert totals["cli.main"]["calls"] == 1
    # uninstall() puts back every binding, aliases included.
    assert infotherm.bounds.measurement_delta_s is infotherm.measurement.delta_s
    assert not hasattr(infotherm.measurement.delta_s, "__wrapped__")


def test_corrupted_suite_csv_is_a_failure(tmp_path):
    workload = workloads.SuiteWorkload()
    inp = workload.make_inputs(seed=0, work_dir=str(tmp_path))[0]
    code = workload.run(inp)
    assert workload.check(inp, code) is None
    assert workload.check(inp, 3) is not None
    csv = Path(inp["csv"])
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join(lines[:-1]) + "\n")
    assert workload.check(inp, code) is not None


def _perturb(csv: Path, row: int, col: int, delta: float) -> None:
    lines = csv.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = format(float(cells[col]) + delta, ".9g")
    lines[row] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")


def test_perturbed_per_letter_value_is_a_failure(tmp_path):
    workload = workloads.PgmWorkload()
    pure, mixed = workload.make_inputs(seed=0, work_dir=str(tmp_path))[:2]
    assert pure["pure"] and not mixed["pure"]
    for inp in (pure, mixed):
        for row, col in ((3, 1), (4, 2), (1, 1)):
            code = workload.run(inp)
            assert workload.check(inp, code) is None
            _perturb(Path(inp["csv"]), row, col, 1e-6)
            assert workload.check(inp, code) is not None, (inp["pure"], row, col)


def test_without_the_package_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_an_op_that_returns_0_without_writing_its_csv_is_a_failure(tmp_path):
    class SilentSuite(workloads.SuiteWorkload):
        def run(self, inp):
            return 0

    class SilentPgm(workloads.PgmWorkload):
        def run(self, inp):
            return 0

    for real, silent in ((workloads.SuiteWorkload(), SilentSuite()),
                         (workloads.PgmWorkload(), SilentPgm())):
        inp = real.make_inputs(seed=0, work_dir=str(tmp_path))[0]
        failures = []
        assert run.timed_op(real, inp, failures)[1] == 0 and not failures
        # The previous op's CSV is still there, and is removed before the op.
        _, result = run.timed_op(silent, inp, failures)
        assert result is None and len(failures) == 1, failures


def test_an_op_that_raises_or_exits_is_a_failed_op():
    class Exits:
        def prepare(self, inp):
            pass

        def run(self, inp):
            raise SystemExit(2)

    failures = []
    wall, result = run.timed_op(Exits(), None, failures)
    assert result is None and wall >= 0.0
    assert len(failures) == 1 and "SystemExit" in failures[0]
