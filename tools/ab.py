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
bound to its own package, and builds its inputs with it from the input
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
after the timed blocks; the last line is the same as JSON.  The call
counts do not depend on the machine's speed, so they show a change in
fixed per-op cost that the ratio's noise can hide.
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

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_FILE = ROOT / "bench" / "workloads.py"
WORKLOAD_NAMES = ("suite", "pgm", "optimize")
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


def load_side(tree: Path):
    """A copy of ``bench/workloads.py`` bound to the ``infotherm`` package
    of ``tree``.  The package is loaded under its own name, as the
    workloads import it, and every ``infotherm`` entry of ``sys.modules``
    is restored afterwards: the side's modules stay alive through the
    workloads copy that holds them."""
    package = tree / "src" / "infotherm"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no infotherm package under {tree / 'src'}")
    saved = {k: v for k, v in sys.modules.items() if k == "infotherm" or k.startswith("infotherm.")}
    for k in saved:
        del sys.modules[k]
    try:
        _load("infotherm", package / "__init__.py", package)
        return _load("_ab_workloads", WORKLOADS_FILE)
    finally:
        for k in [k for k in sys.modules if k == "infotherm" or k.startswith("infotherm.")]:
            del sys.modules[k]
        del sys.modules["_ab_workloads"]
        sys.modules.update(saved)


def default_ascent(workloads):
    """An optimize op that runs the ascent at ``OptimizerConfig``'s default
    restarts and max_iterations, with the input's seed, through the
    ``infotherm`` package the workloads copy is bound to."""
    bounds = workloads.infotherm.bounds

    def run(inp):
        cfg = bounds.OptimizerConfig(method="random_restart_ascent", seed=inp["seed"])
        return bounds.maximize_accessible_information(inp["ensemble"], cfg)

    return run


class Side:
    """One tree's workload, its inputs and a cursor into them; with
    ``run`` given, an op calls it in place of the workload's own."""

    def __init__(self, workloads, name: str, seed: int, work_dir: str, run=None):
        self.workload = workloads.WORKLOADS[name]()
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
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            t0 = time.perf_counter()
            result = self.run(inp)
            wall = time.perf_counter() - t0
        reason = self.workload.check(inp, result)
        if reason is not None:
            raise SystemExit(f"op failed its check: {reason}")
        self.outputs.setdefault(index, set()).add(output_bytes(inp, result))
        return wall

    def calls_per_op(self) -> tuple[float, float]:
        """Python and C function calls per op, counted by ``sys.setprofile``
        over one untimed op on each input; the outputs are checked, not
        kept."""
        counts = {"call": 0, "c_call": 0}

        def profile(frame, event, arg):
            if event in counts:
                counts[event] += 1

        for inp in self.inputs:
            self.workload.prepare(inp)
            with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                sys.setprofile(profile)
                try:
                    result = self.run(inp)
                finally:
                    sys.setprofile(None)
            reason = self.workload.check(inp, result)
            if reason is not None:
                raise SystemExit(f"op failed its check: {reason}")
        return counts["call"] / len(self.inputs), counts["c_call"] / len(self.inputs)


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
        runs = [default_ascent(w) if args.default_ascent else None for w in sides]
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
        + "; ".join(f"{side} {py:.1f} and {c:.1f}" for side, (py, c) in calls.items())
    )
    print(json.dumps({
        "workload": args.workload, "default_ascent": args.default_ascent,
        "aa": args.aa, "seed": args.seed,
        "blocks": len(ratios), "ops": args.ops,
        "median": median, "q1": q1, "q3": q3, "ci_low": ci_low, "ci_high": ci_high,
        "wins": wins, "differing_inputs": differing, "inputs": inputs,
        "calls_per_op": {side: {"python": py, "c": c} for side, (py, c) in calls.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
