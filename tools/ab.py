"""In-process A/B of two infotherm source trees on one bench workload.

    python3 tools/ab.py PARENT_CHECKOUT --workload suite
    python3 tools/ab.py --aa --workload pgm --blocks 2 --ops 1

Both trees' ``infotherm`` packages are loaded into this one interpreter:
the change tree is the checkout that holds this script, the parent tree
is ``PARENT_CHECKOUT`` (any directory with ``src/infotherm``), and with
``--aa`` the change tree is loaded a second time in the parent's place.
Each side gets its own copy of this checkout's ``bench/workloads.py``,
bound to its own package, and builds its inputs from input seed 1 with
it; ``bench/`` is only read.  After one untimed warm-up op a side, the run
times ``--blocks`` blocks.  A block times ``--ops`` ops on each side, one
side after the other, and the side that goes first alternates from block
to block, so a drift in machine speed falls on both sides alike.  Every
op's output is checked with the workload's own ``check``, untimed.

Printed: the median over blocks of the change/parent time ratio with its
quartiles [Q1, Q3], a 95% bootstrap confidence interval of that median
(percentiles of the medians of 2000 seeded resamples of the blocks), and
the number of blocks the change won (ratio below 1); the last line is the
same as JSON.  Separate processes misread
few-percent moves on a shared machine; two trees loaded in one process
see the same machine state block by block.  Longer blocks have read the
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


class Side:
    """One tree's workload, its inputs and a cursor into them."""

    def __init__(self, workloads, name: str, seed: int, work_dir: str):
        self.workload = workloads.WORKLOADS[name]()
        self.inputs = self.workload.make_inputs(seed, work_dir)
        self.next = 0

    def op(self) -> float:
        """Run the next input's op; returns its wall seconds.  The op's
        output is checked after the clock stops."""
        inp = self.inputs[self.next % len(self.inputs)]
        self.next += 1
        self.workload.prepare(inp)
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            t0 = time.perf_counter()
            result = self.workload.run(inp)
            wall = time.perf_counter() - t0
        reason = self.workload.check(inp, result)
        if reason is not None:
            raise SystemExit(f"op failed its check: {reason}")
        return wall


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
    args = parser.parse_args(argv)
    if (args.parent is None) != args.aa:
        parser.error("give PARENT_CHECKOUT or --aa, not both")
    if args.blocks < 1 or args.ops < 1:
        parser.error("--blocks and --ops must be positive")
    parent_tree = ROOT if args.aa else args.parent.resolve()
    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as change_dir:
        parent = Side(load_side(parent_tree), args.workload, INPUT_SEED, parent_dir)
        change = Side(load_side(ROOT), args.workload, INPUT_SEED, change_dir)
        ratios = run(parent, change, args.blocks, args.ops)
    median, q1, q3 = quartiles(ratios)
    ci_low, ci_high = bootstrap_ci(ratios)
    wins = sum(r < 1.0 for r in ratios)
    label = "A/A" if args.aa else f"change/parent ({parent_tree})"
    print(
        f"{args.workload} {label}: {median:.3f} [Q1 {q1:.3f}, Q3 {q3:.3f}], "
        f"95% CI [{ci_low:.3f}, {ci_high:.3f}], "
        f"change faster in {wins}/{len(ratios)} blocks of {args.ops} ops"
    )
    print(json.dumps({
        "workload": args.workload, "aa": args.aa, "blocks": len(ratios), "ops": args.ops,
        "median": median, "q1": q1, "q3": q3, "ci_low": ci_low, "ci_high": ci_high,
        "wins": wins,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
