"""In-process A/B of two infotherm source trees on one bench workload.

    python3 tools/ab.py PARENT_CHECKOUT --workload suite
    python3 tools/ab.py PARENT_CHECKOUT --workload suite --seed 2
    python3 tools/ab.py --aa --workload pgm --blocks 2 --ops 1
    python3 tools/ab.py PARENT_CHECKOUT --workload optimize --default-ascent --ops 1

Both trees' ``infotherm`` packages are loaded into this one interpreter:
the change tree is the checkout that holds this script, the parent tree
is ``PARENT_CHECKOUT`` (any directory with ``src/infotherm``), and with
``--aa`` the change tree is loaded a second time in the parent's place.
Each side gets its own copy of this checkout's ``bench/workloads.py``,
bound to its own package, whose modules are swapped into ``sys.modules``
around each of its ops, outside the timed region, so that a module the
package imports while an op runs comes from that side's tree.  Each side
builds its inputs with its copy from the input
seed (``--seed``, 1 by default), so a claim made on one seed can be
checked again on another; ``bench/`` is only read.  With
``--default-ascent`` an optimize op runs the ascent at
``OptimizerConfig``'s default restarts and max_iterations (8 x 200) on the
same inputs and seeds, in place of the benchmark's 1 x 20, so that a
change to how restarts run together shows.  After one untimed warm-up op a side, the run
times ``--blocks`` blocks.  A block times ``--ops`` ops on each side, one
side after the other, and the side that goes first alternates from block
to block, so a drift in machine speed falls on both sides alike.  Every
op's output is checked with the workload's own ``check``, untimed.

Printed: the median over blocks of the change/parent time ratio with its
quartiles [Q1, Q3], a 95% bootstrap confidence interval of that median
(percentiles of the medians of 2000 seeded resamples of the blocks), the
number of inputs whose outputs differ byte for byte between the sides
(the pgm and suite CSVs, optimize's returned elements and report), so a
change meant to keep every output shows that it did, the number of
blocks the change won (ratio below 1), and each side's Python and C calls
per op, counted by ``sys.setprofile`` over one untimed op on each input
after the timed blocks, with its calls per op of numpy's LAPACK entry
points (``LAPACK_ENTRIES``), counted in the same pass by wrapping them on
``np.linalg._umath_linalg`` (the profiler skips the wrappers' frames); the
last line is the same as JSON.  The counts do not depend on the
machine's speed, so they show a change in fixed per-op cost, or in the
kernels an op runs, that the ratio's noise can hide.
Separate processes misread few-percent moves on a shared machine; two
trees loaded in one process see the same machine state block by block.  Longer blocks have read the
suite more in the change's favour than the benchmark does (CHANGES.md),
so a ratio near a gate needs the benchmark's own pairs as well.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before anything can import numpy, as bench/run.py does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.util
import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_FILE = ROOT / "bench" / "workloads.py"
WORKLOAD_NAMES = ("suite", "pgm", "optimize")
#: numpy's LAPACK entry points whose calls the count pass counts: the
#: eigensolvers, the Cholesky factorisation and the QR factorisation.
LAPACK_ENTRIES = ("eigh_lo", "eigvalsh_lo", "cholesky_lo", "qr_r_raw")
INPUT_SEED = 1
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0


def _load(name: str, path: Path, package_dir: Path | None = None):
    """Execute the module (or, with ``package_dir``, the package) at
    ``path`` as ``name`` in ``sys.modules``."""
    locations = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _package_entries() -> dict:
    """The ``infotherm`` entries of ``sys.modules``."""
    return {k: v for k, v in sys.modules.items() if k == "infotherm" or k.startswith("infotherm.")}


@contextlib.contextmanager
def active(modules: dict):
    """``modules``, one tree's ``infotherm`` entries of ``sys.modules``, in
    place of the entries there for the block.  A module the block imports
    joins ``modules``, and the entries found are put back after it."""
    saved = _package_entries()
    for k in saved:
        del sys.modules[k]
    sys.modules.update(modules)
    try:
        yield
    finally:
        modules.update(_package_entries())
        for k in modules:
            sys.modules.pop(k, None)
        sys.modules.update(saved)


class Loaded(NamedTuple):
    """A copy of ``bench/workloads.py`` and the ``sys.modules`` entries of
    the ``infotherm`` package it is bound to."""

    workloads: object
    modules: dict


def load_side(tree: Path) -> Loaded:
    """A copy of ``bench/workloads.py`` bound to the ``infotherm`` package
    of ``tree``.  The package is loaded under its own name, as the
    workloads import it, with ``active``: its entries are kept apart from
    ``sys.modules`` outside that block."""
    package = tree / "src" / "infotherm"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no infotherm package under {tree / 'src'}")
    modules = {}
    with active(modules):
        _load("infotherm", package / "__init__.py", package)
        try:
            return Loaded(_load("_ab_workloads", WORKLOADS_FILE), modules)
        finally:
            del sys.modules["_ab_workloads"]


def default_ascent(workloads):
    """An optimize op that runs the ascent at ``OptimizerConfig``'s default
    restarts and max_iterations, with the input's seed, through the
    ``infotherm`` package the workloads copy is bound to."""
    bounds = workloads.infotherm.bounds

    def run(inp):
        cfg = bounds.OptimizerConfig(method="random_restart_ascent", seed=inp["seed"])
        return bounds.maximize_accessible_information(inp["ensemble"], cfg)

    return run


@contextlib.contextmanager
def counted_lapack(counts: dict):
    """numpy's ``LAPACK_ENTRIES`` on ``np.linalg._umath_linalg`` wrapped
    for the block, each call adding one to its name's entry of ``counts``,
    and put back after it; an entry numpy lacks (``qr_r_raw`` before numpy
    2.0) stays at 0.  Yields the wrappers' one code object, for the
    profiler to leave their frames uncounted."""
    import numpy as np

    solvers = np.linalg._umath_linalg
    originals = {name: getattr(solvers, name) for name in LAPACK_ENTRIES if hasattr(solvers, name)}

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    wrappers = [counted(name, real) for name, real in originals.items()]
    try:
        for name, wrapper in zip(originals, wrappers):
            setattr(solvers, name, wrapper)
        yield wrappers[0].__code__
    finally:
        for name, real in originals.items():
            setattr(solvers, name, real)


class Counts(NamedTuple):
    """A side's calls per op: Python and C function calls, and the calls
    of each of ``LAPACK_ENTRIES``, by name."""

    python: float
    c: float
    lapack: dict


class Side:
    """One tree's workload, its inputs and a cursor into them; with
    ``run`` given, an op calls it in place of the workload's own.  The
    tree's modules are active while the side builds its inputs, and while
    an op runs and is checked."""

    def __init__(self, loaded: Loaded, name: str, seed: int, work_dir: str, run=None):
        self.modules = loaded.modules
        self.workload = loaded.workloads.WORKLOADS[name]()
        with active(self.modules):
            self.inputs = self.workload.make_inputs(seed, work_dir)
        self.run = run or self.workload.run
        self.next = 0
        self.outputs: dict[int, set[bytes]] = {}  # input index -> its outputs' bytes

    def op(self) -> float:
        """Run the next input's op; returns its wall seconds.  The op's
        output is checked and kept after the clock stops."""
        index = self.next % len(self.inputs)
        inp = self.inputs[index]
        self.next += 1
        self.workload.prepare(inp)
        with active(self.modules):
            with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                t0 = time.perf_counter()
                result = self.run(inp)
                wall = time.perf_counter() - t0
            reason = self.workload.check(inp, result)
        if reason is not None:
            raise SystemExit(f"op failed its check: {reason}")
        self.outputs.setdefault(index, set()).add(output_bytes(inp, result))
        return wall

    def calls_per_op(self) -> Counts:
        """Python and C function calls and LAPACK calls per op, counted by
        ``sys.setprofile`` and ``counted_lapack`` over one untimed op on
        each input; the outputs are checked, not kept."""
        counts = {"call": 0, "c_call": 0}
        lapack = dict.fromkeys(LAPACK_ENTRIES, 0)
        for inp in self.inputs:
            self.workload.prepare(inp)
            with active(self.modules):
                with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                    with counted_lapack(lapack) as wrapper:
                        sys.setprofile(profiler(counts, wrapper))
                        try:
                            result = self.run(inp)
                        finally:
                            sys.setprofile(None)
                reason = self.workload.check(inp, result)
            if reason is not None:
                raise SystemExit(f"op failed its check: {reason}")
        ops = len(self.inputs)
        return Counts(
            counts["call"] / ops, counts["c_call"] / ops, {k: v / ops for k, v in lapack.items()}
        )


def profiler(counts: dict, skipped):
    """A ``sys.setprofile`` function that counts each "call" and "c_call"
    event in ``counts``, but not those of frames that run the code object
    ``skipped``."""

    def profile(frame, event, arg):
        if event in counts and frame.f_code is not skipped:
            counts[event] += 1

    return profile


def output_bytes(inp, result) -> bytes:
    """An op's output: the CSV it wrote (suite, pgm), or the elements and
    the report it returned (optimize)."""
    if "csv" in inp:
        return Path(inp["csv"]).read_bytes()
    best, report = result
    return b"".join(el.tobytes() for el in best.elements) + repr(report).encode()


def differing_inputs(parent: Side, change: Side) -> tuple[int, int]:
    """How many of the inputs either side ran gave outputs that differ
    byte for byte between the sides, and how many inputs ran."""
    ran = parent.outputs.keys() | change.outputs.keys()
    return sum(parent.outputs.get(i) != change.outputs.get(i) for i in ran), len(ran)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile (linear interpolation)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def bootstrap_ci(values: list[float]) -> tuple[float, float]:
    """The 2.5th and 97.5th percentiles of the medians of
    ``BOOTSTRAP_RESAMPLES`` resamples of ``values``, drawn with replacement
    from a generator seeded with ``BOOTSTRAP_SEED``."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = [
        statistics.median(rng.choices(values, k=len(values)))
        for _ in range(BOOTSTRAP_RESAMPLES)
    ]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")
    return cuts[0], cuts[-1]


def run(parent: Side, change: Side, blocks: int, ops: int) -> list[float]:
    """The change/parent time ratio of each block, the first side
    alternating from block to block."""
    parent.op()
    change.op()
    ratios = []
    for block in range(blocks):
        order = (parent, change) if block % 2 == 0 else (change, parent)
        seconds = {}
        for side in order:
            seconds[id(side)] = sum(side.op() for _ in range(ops))
        ratios.append(seconds[id(change)] / seconds[id(parent)])
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path, help="parent checkout, with src/infotherm")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--aa", action="store_true", help="run this tree against itself")
    parser.add_argument("--blocks", type=int, default=60)
    parser.add_argument("--ops", type=int, default=6, help="ops a side in each block")
    parser.add_argument(
        "--seed", type=int, default=INPUT_SEED, help="input seed both sides build their inputs from"
    )
    parser.add_argument(
        "--default-ascent", action="store_true",
        help="optimize only: run the ascent at its default 8 restarts x 200 steps",
    )
    args = parser.parse_args(argv)
    if (args.parent is None) != args.aa:
        parser.error("give PARENT_CHECKOUT or --aa, not both")
    if args.blocks < 1 or args.ops < 1:
        parser.error("--blocks and --ops must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.default_ascent and args.workload != "optimize":
        parser.error("--default-ascent needs --workload optimize")
    parent_tree = ROOT if args.aa else args.parent.resolve()
    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as change_dir:
        sides = [load_side(tree) for tree in (parent_tree, ROOT)]
        runs = [default_ascent(side.workloads) if args.default_ascent else None for side in sides]
        parent = Side(sides[0], args.workload, args.seed, parent_dir, runs[0])
        change = Side(sides[1], args.workload, args.seed, change_dir, runs[1])
        ratios = run(parent, change, args.blocks, args.ops)
        differing, inputs = differing_inputs(parent, change)
        calls = {"parent": parent.calls_per_op(), "change": change.calls_per_op()}
    median, q1, q3 = quartiles(ratios)
    ci_low, ci_high = bootstrap_ci(ratios)
    wins = sum(r < 1.0 for r in ratios)
    label = "A/A" if args.aa else f"change/parent ({parent_tree})"
    workload = args.workload + (" at the default ascent" if args.default_ascent else "")
    print(
        f"{workload} {label}, input seed {args.seed}: "
        f"{median:.3f} [Q1 {q1:.3f}, Q3 {q3:.3f}], "
        f"95% CI [{ci_low:.3f}, {ci_high:.3f}], "
        f"outputs differ on {differing} of {inputs} inputs, "
        f"change faster in {wins}/{len(ratios)} blocks of {args.ops} ops, "
        "Python and C calls per op: "
        + "; ".join(f"{side} {n.python:.1f} and {n.c:.1f}" for side, n in calls.items())
        + f", LAPACK calls per op ({', '.join(LAPACK_ENTRIES)}): "
        + "; ".join(
            f"{side} " + ", ".join(f"{x:.2f}" for x in n.lapack.values())
            for side, n in calls.items()
        )
    )
    print(json.dumps({
        "workload": args.workload, "default_ascent": args.default_ascent,
        "aa": args.aa, "seed": args.seed,
        "blocks": len(ratios), "ops": args.ops,
        "median": median, "q1": q1, "q3": q3, "ci_low": ci_low, "ci_high": ci_high,
        "wins": wins, "differing_inputs": differing, "inputs": inputs,
        "calls_per_op": {side: {"python": n.python, "c": n.c} for side, n in calls.items()},
        "lapack_calls_per_op": {side: n.lapack for side, n in calls.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
