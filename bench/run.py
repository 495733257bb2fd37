"""infotherm benchmark: one command, three closed-loop workloads, one client.

    python3 bench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Workloads: ``suite``, ``pgm`` and ``optimize`` (see NOTES.md).  A run
builds a pool of inputs from ``--seed``, sets up (import, inputs, one
untimed warm-up op), then runs the pool in passes, one op at a time, for
``--seconds`` and checks every output.

The machine this was built on is shared, and other tenants slow every
computation on it by up to 2x for seconds or minutes at a time, in CPU
time as much as in wall time.  So a fixed reference computation (numpy
and Python only, no infotherm) is timed right before and after each op,
and the gated times are normalised by it: an op's normalised time is its
wall time over the mean of its two neighbouring reference times, times
``REF_NOMINAL_S``, the reference's time on the quiet machine.  The raw
wall-clock figures are printed beside them.  Set-up is measured in fresh
interpreters, several times, each normalised by the reference timed right
after it, and the median reported.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, which
runs each op untraced and traced in turn (the pair gives
``trace.overhead_frac``) and writes every span to ``.bench_out/``.
Human-readable lines, including the error rate, sample counts and
provenance, come before the last line.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the command exits 2 and prints no result.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before anything can import numpy.
THREAD_SETTINGS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_SETTINGS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("suite", "pgm", "optimize")
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 150
#: Wall seconds of ``Reference.seconds()`` on a quiet 2-vCPU Xeon VM.  It only
#: scales normalised times back to seconds; it cancels in any comparison.
REF_NOMINAL_S = 0.009


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to an op that failed)."""


def import_infotherm():
    """Import infotherm from this checkout's ``src/`` only."""
    if not (SRC / "infotherm" / "__init__.py").is_file():
        raise BenchError(f"no infotherm package under {SRC}")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("infotherm")
    if Path(module.__file__).resolve().parent != SRC / "infotherm":
        raise BenchError(f"infotherm imported from {module.__file__}, not {SRC}")
    return module


def setup(workload_name: str, seed: int, work_dir: str):
    """Import, build the inputs and run one untimed warm-up op.

    Returns (workload, inputs, wall seconds taken).  In a fresh process
    this is the set-up cost a user pays; numpy is first imported inside it.
    """
    t0 = time.perf_counter()
    import_infotherm()
    import workloads

    workload = workloads.WORKLOADS[workload_name]()
    inputs = workload.make_inputs(seed, work_dir)
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        try:
            workload.run(inputs[0])
        except (Exception, SystemExit):  # the timed loop reports this input
            pass
    return workload, inputs, time.perf_counter() - t0


def probe_setup(workload_name: str, seed: int) -> tuple[float, float]:
    """(wall seconds, reference seconds) of set-up in a fresh interpreter;
    the reference is the median of three runs made right after set-up."""
    proc = subprocess.run(
        [sys.executable, __file__, "--probe-setup", "--workload", workload_name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.splitlines()[-1])
    return probe["wall_s"], probe["ref_s"]


class Reference:
    """A fixed computation, independent of infotherm, that mixes what the
    ops spend their time on: small Hermitian eigensolves and Kronecker
    products driven from Python, one 128x128 eigensolve, integer arithmetic
    in the interpreter and allocation of small objects.  Timing it beside
    each op measures how fast the machine runs at that moment.  No part
    alone, and no pair of parts, tracked the slowdowns of all three
    workloads as well as the mix (see NOTES.md)."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
        self.small, self.large = a + a.conj().T, b + b.conj().T
        self.seconds()  # first calls load LAPACK paths; not timed

    def _compute(self) -> float:
        np, acc = self.np, 0.0
        for _ in range(60):
            acc += float(np.linalg.eigvalsh(self.small)[0])
            acc += float(np.kron(self.small, self.small)[0, 0].real)
        acc += float(np.linalg.eigh(self.large)[0][0])
        acc += sum(i * i % 7 for i in range(30000))
        objects = {i: [i, str(i), (i, i)] for i in range(3000)}
        return acc + len(objects)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self._compute()
        return time.perf_counter() - t0


def timed_op(workload, inp, failures: list, tracer=None):
    """Run one op, then check it untraced.  Returns (wall seconds, result),
    with result None when the op raised or failed its check.  The op's
    output file is removed first, untimed."""
    workload.prepare(inp)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        result = workload.run(inp)
        reason = None
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        result, reason = None, f"raised {exc!r}"
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if reason is None:
        reason = workload.check(inp, result)
    if reason is not None:
        failures.append(reason)
        return wall, None
    return wall, result


def run_untraced(workload, inputs, seconds: float, failures: list, reference):
    """Closed loop over the input pool, in passes, for ``seconds`` (and at
    least one whole pass), timing the reference before and after each op.
    Returns the (wall, neighbouring reference mean) seconds of the ops that
    succeeded, the result of each input's first run and the ops attempted."""
    times, first = [], []
    deadline = time.perf_counter() + seconds
    attempted = 0
    ref_before = reference.seconds()
    while attempted < len(inputs) or time.perf_counter() < deadline:
        inp = inputs[attempted % len(inputs)]
        wall, result = timed_op(workload, inp, failures)
        ref_after = reference.seconds()
        if attempted < len(inputs):
            first.append(result)
        if result is not None:
            times.append((wall, (ref_before + ref_after) / 2))
        ref_before = ref_after
        attempted += 1
    return times, first, attempted


def run_traced(workload, inputs, seconds: float, failures: list, tracer):
    """Traced passes over the input pool for ``seconds`` (and at least one
    pass); whole passes, so per-op counts depend on the seed alone.  Each op
    runs untraced and traced, in alternating order.  Returns the
    (untraced, traced) wall-time pairs of ops that succeeded both times and
    the number of traced ops."""
    pairs, traced_ops = [], 0
    deadline = time.perf_counter() + seconds
    while traced_ops == 0 or time.perf_counter() < deadline:
        for inp in inputs:
            traced_first = traced_ops % 2 == 1
            runs = {}
            for traced in (traced_first, not traced_first):
                if traced:
                    tracer.op_id = traced_ops
                runs[traced] = timed_op(workload, inp, failures, tracer if traced else None)
            traced_ops += 1
            if runs[False][1] is not None and runs[True][1] is not None:
                pairs.append((runs[False][0], runs[True][0]))
    return pairs, traced_ops


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "infotherm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_settings": {var: os.environ.get(var) for var in THREAD_SETTINGS},
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, str(work_dir))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, work_dir: str) -> int:
    try:
        workload, inputs, setup_wall = setup(args.workload, args.seed, work_dir)
    except ImportError as exc:
        raise BenchError(f"cannot import infotherm: {exc}") from exc
    if args.probe_setup:
        reference = Reference()
        ref_s = statistics.median(reference.seconds() for _ in range(3))
        print(json.dumps({"wall_s": setup_wall, "ref_s": ref_s}))
        return 0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    failures: list[str] = []
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        checks = workload.run_checks(work_dir)
    for name, reason in checks:
        print(f"check {name}: {'ok' if reason is None else 'FAILED ' + reason}")
        if reason is not None:
            failures.append(f"{name}: {reason}")

    if args.trace:
        attempted, metrics = _traced_run(args, workload, inputs, failures)
    else:
        attempted, metrics = _untraced_run(args, workload, inputs, failures)
    attempted += len(checks)
    failed = len(failures)
    print(f"error_rate       {failed / attempted:.4f} ({failed} of {attempted})")
    for reason in failures[:20]:
        print(f"failure: {reason}")
    emit(failed == 0, attempted, failed, metrics)
    return 0


def _untraced_run(args, workload, inputs, failures):
    """The end-to-end metrics; returns (ops attempted, metrics).  The result
    carries the normalised times; the raw wall-clock ones are printed
    beside them."""
    reference = Reference()
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        times, first, attempted = run_untraced(
            workload, inputs, args.seconds, failures, reference
        )
    walls = [w for w, _ in times] or [float("nan")]
    norm = [REF_NOMINAL_S * w / r for w, r in times] or [float("nan")]
    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    setup_norm = [REF_NOMINAL_S * w / r for w, r in probes]
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "norm_ops_per_s": (len(norm) / sum(norm), "1/s"),
        "norm_latency_p50_ms": (1e3 * statistics.median(norm), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = len(times)
    refs = [r for _, r in times] or [float("nan")]
    print(f"ops completed        {n} of {attempted}, "
          f"{attempted / len(inputs):.1f} passes over {len(inputs)} inputs")
    print(f"reference            median {1e3 * statistics.median(refs):.3f} ms, "
          f"nominal {1e3 * REF_NOMINAL_S:.3f} ms")
    print(f"setup_s              {metrics['setup_s'][0]:.4f} s normalised (median of "
          f"{len(probes)} fresh processes: {', '.join(f'{v:.4f}' for v in setup_norm)}); "
          f"raw wall median {statistics.median(w for w, _ in probes):.4f} s")
    print(f"norm_ops_per_s       {metrics['norm_ops_per_s'][0]:.4f} 1/s "
          f"(raw ops_per_s {len(walls) / sum(walls):.4f} 1/s)")
    print(f"norm_latency_p50_ms  {metrics['norm_latency_p50_ms'][0]:.4f} ms "
          f"(raw latency_p50_ms {1e3 * statistics.median(walls):.4f} ms) n={n}")
    if n >= 100:
        print(f"norm_latency_p90_ms  {1e3 * percentile(norm, 90):.4f} ms "
              f"(raw latency_p90_ms {1e3 * percentile(walls, 90):.4f} ms) n={n}")
    else:
        print(f"latency_p90_ms       not reported: n={n} leaves fewer than 10 "
              "samples beyond it")
    print(f"peak_rss_mb          {metrics['peak_rss_mb'][0]:.1f} MB")
    if hasattr(workload, "solved"):
        solved = sum(r is not None and workload.solved(inp, r) for inp, r in zip(inputs, first))
        print(f"solved_frac          {solved / len(inputs):.4f} (of {len(inputs)} inputs)")
    return attempted, metrics


def _traced_run(args, workload, inputs, failures):
    """The per-layer metrics; returns (ops attempted, metrics)."""
    import spans

    tracer = spans.Tracer()
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        pairs, traced_ops = run_traced(workload, inputs, args.seconds, failures, tracer)
    overhead = [t / u - 1.0 for u, t in pairs]
    metrics = tracer.per_layer_metrics(traced_ops)
    metrics["trace.overhead_frac"] = (
        statistics.median(overhead) if overhead else float("nan"), "ratio"
    )
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    count = tracer.write_spans(span_file)
    print(f"traced ops {traced_ops}, each paired with an untraced run; "
          f"{count} spans written to {span_file.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        if value:
            print(f"{name:<48} {value:14.6g} {unit}")
    for mod, errors in tracer.module_errors().items():
        print(f"{mod + '.errors':<48} {errors / traced_ops:14.6g} count")
    return 2 * traced_ops, metrics


if __name__ == "__main__":
    sys.exit(main())
