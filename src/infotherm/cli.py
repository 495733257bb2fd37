"""Command line front end.

Subcommands::

    bounds    score a problem file's measurement against both ceilings
    optimize  search for the best measurement of the ensemble
    cycle     run the engine cycle and print its work ledger
    pgm       scan block lengths with the square-root measurement
    suite     hammer random instances and tally bound violations

Problem files are JSON; every complex entry is a two-element ``[re, im]``
array.  Exit codes: 0 success, 2 invalid input, 3 bound or second-law
violation, 4 unsupported method/dimension, 5 budget exceeded.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .blockcoding import DIM_CAP, block_scan
from .bounds import (
    _KINDS,
    METHODS,
    BoundReport,
    OptimizerConfig,
    _random_instances,
    _report,
    evaluate_bounds,
    maximize_accessible_information,
)
from .errors import (
    BudgetExceeded,
    SecondLawViolation,
    ToolkitError,
    UnsupportedDimension,
    ValidationError,
)
from .measurement import Povm, _analyse_pairs
from .quantum import DensityMatrix, Ensemble
from .thermo import _book_cycle, run_cycle


def _fmt(x: float) -> str:
    """Floats go out with 9 significant digits."""
    return format(float(x), ".9g")


@dataclass(frozen=True)
class ProblemSpec:
    """One problem file: an ensemble, optionally a measurement and labels."""

    ensemble: Ensemble
    measurement: Povm | None
    preparation_labels: tuple[str, ...]
    outcome_labels: tuple[str, ...]


def _is_number(x) -> bool:
    """A JSON number; ``bool`` is an ``int`` subclass, so true/false are not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_entry(entry, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(_is_number(part) for part in entry)
    ):
        raise ValidationError(
            f"{where}: complex entries must be [re, im] number pairs, got {entry!r}"
        )
    return complex(entry[0], entry[1])


def _parse_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{where}: expected a non-empty list of rows")
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            raise ValidationError(f"{where}: row {r} does not make the matrix square")
        rows.append([_parse_entry(x, f"{where}[{r}]") for x in row])
    return np.array(rows, dtype=complex)


def _parse_labels(obj, count: int, where: str) -> tuple[str, ...]:
    if obj is None:
        return tuple(str(i) for i in range(count))
    if not isinstance(obj, list) or len(obj) != count or not all(
        isinstance(s, str) for s in obj
    ):
        raise ValidationError(f"{where}: expected a list of {count} strings")
    return tuple(obj)


def parse_problem_spec(data) -> ProblemSpec:
    """Build a validated ProblemSpec out of decoded JSON."""
    if not isinstance(data, dict):
        raise ValidationError("problem file must decode to a JSON object")
    unknown = set(data) - {"ensemble", "measurement", "labels"}
    if unknown:
        raise ValidationError(f"unknown problem file keys {sorted(unknown)}")
    ens = data.get("ensemble")
    if not isinstance(ens, dict) or "priors" not in ens or "states" not in ens:
        raise ValidationError("'ensemble' must be an object with priors and states")
    priors = ens["priors"]
    if not isinstance(priors, list) or not all(_is_number(p) for p in priors):
        raise ValidationError("'ensemble.priors' must be a list of numbers")
    if not isinstance(ens["states"], list) or not ens["states"]:
        raise ValidationError("'ensemble.states' must be a non-empty list")
    states = tuple(
        DensityMatrix(_parse_matrix(s, f"ensemble.states[{i}]"))
        for i, s in enumerate(ens["states"])
    )
    ensemble = Ensemble(np.asarray(priors, dtype=float), states)

    measurement = None
    if data.get("measurement") is not None:
        meas = data["measurement"]
        if not isinstance(meas, dict) or "elements" not in meas:
            raise ValidationError("'measurement' must be an object with elements")
        if not isinstance(meas["elements"], list) or not meas["elements"]:
            raise ValidationError("'measurement.elements' must be a non-empty list")
        elements = tuple(
            _parse_matrix(el, f"measurement.elements[{j}]")
            for j, el in enumerate(meas["elements"])
        )
        projective = meas.get("projective")
        if projective is not None and not isinstance(projective, bool):
            raise ValidationError("'measurement.projective' must be a boolean")
        measurement = Povm(elements, projective=projective)

    labels = data.get("labels") or {}
    if not isinstance(labels, dict):
        raise ValidationError("'labels' must be an object")
    prep = _parse_labels(labels.get("preparations"), ensemble.size, "labels.preparations")
    if measurement is not None:
        out = _parse_labels(labels.get("outcomes"), measurement.size, "labels.outcomes")
    else:
        out = ()
    return ProblemSpec(ensemble, measurement, prep, out)


def load_problem_spec(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    return parse_problem_spec(data)


def _require_measurement(spec: ProblemSpec, command: str) -> Povm:
    if spec.measurement is None:
        raise ValidationError(f"'{command}' needs a measurement in the problem file")
    return spec.measurement


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _bound_lines(report: BoundReport) -> list[str]:
    return [
        f"accessible information I : {_fmt(report.accessible_info)}",
        f"information ceiling chi  : {_fmt(report.chi)}",
        f"entropy increase delta_s : {_fmt(report.delta_s)}",
        f"slack chi - I            : {_fmt(report.holevo_slack)}",
        f"slack chi + delta_s - I  : {_fmt(report.thermo_slack)}",
        f"I <= chi                 : {'PASS' if report.holevo_satisfied else 'FAIL'}",
        f"I <= chi + delta_s       : {'PASS' if report.thermo_satisfied else 'FAIL'}",
    ]


_BOUND_CSV_HEADER = [
    "accessible_info",
    "chi",
    "delta_s",
    "holevo_slack",
    "thermo_slack",
    "holevo_satisfied",
    "thermo_satisfied",
]


def _bound_csv_row(report: BoundReport) -> list[str]:
    return [
        _fmt(report.accessible_info),
        _fmt(report.chi),
        _fmt(report.delta_s),
        _fmt(report.holevo_slack),
        _fmt(report.thermo_slack),
        "true" if report.holevo_satisfied else "false",
        "true" if report.thermo_satisfied else "false",
    ]


def cmd_bounds(args) -> int:
    spec = load_problem_spec(args.spec)
    report = evaluate_bounds(spec.ensemble, _require_measurement(spec, "bounds"))
    for line in _bound_lines(report):
        print(line)
    if args.csv:
        _write_csv(args.csv, _BOUND_CSV_HEADER, [_bound_csv_row(report)])
    return 0 if (report.holevo_satisfied and report.thermo_satisfied) else 3


def cmd_optimize(args) -> int:
    if args.method not in METHODS:
        raise UnsupportedDimension(
            f"unsupported optimizer method {args.method!r}; choose from {METHODS}"
        )
    spec = load_problem_spec(args.spec)
    cfg = OptimizerConfig(
        method=args.method,
        grid_points=args.grid,
        restarts=args.restarts,
        seed=args.seed,
    )
    best, report = maximize_accessible_information(spec.ensemble, cfg)
    print(f"method                   : {cfg.method}")
    print(f"best I found             : {_fmt(report.accessible_info)}")
    for line in _bound_lines(report)[1:]:
        print(line)
    if args.out:
        payload = {
            "elements": [_matrix_to_json(el) for el in best.elements],
            "projective": bool(best.projective),
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"measurement written to {args.out}")
    if args.csv:
        _write_csv(
            args.csv,
            ["method"] + _BOUND_CSV_HEADER,
            [[cfg.method] + _bound_csv_row(report)],
        )
    return 0 if (report.holevo_satisfied and report.thermo_satisfied) else 3


def cmd_cycle(args) -> int:
    spec = load_problem_spec(args.spec)
    ledger = run_cycle(spec.ensemble, _require_measurement(spec, "cycle"))
    width = max(len(en.stage) for en in ledger.entries)
    for en in ledger.entries:
        print(f"{en.stage:<{width}}  {_fmt(en.work_bits):>15}  {en.description}")
    print(f"net extracted work       : {_fmt(ledger.net_bits)} bits")
    print(f"accessible information I : {_fmt(ledger.i_ab)}")
    print(f"information ceiling chi  : {_fmt(ledger.chi)}")
    print(f"entropy increase delta_s : {_fmt(ledger.delta_s)}")
    print("SECOND LAW OK (net <= 0)")
    if args.csv:
        rows = [
            [en.stage, en.description, _fmt(en.work_bits)] for en in ledger.entries
        ]
        _write_csv(args.csv, ["stage", "description", "work_bits"], rows)
    return 0


def cmd_pgm(args) -> int:
    spec = load_problem_spec(args.spec)
    reports = block_scan(spec.ensemble, args.max_m)
    header = ["m", "per_letter_info", "per_letter_delta_s", "chi"]
    print("  ".join(header))
    rows = []
    for rep in reports:
        row = [
            str(rep.m),
            _fmt(rep.per_letter_info),
            _fmt(rep.per_letter_delta_s),
            _fmt(rep.chi),
        ]
        rows.append(row)
        print("  ".join(row))
    if args.csv:
        _write_csv(args.csv, header, rows)
    return 0


_SUITE_CSV_HEADER = [
    "trial",
    "dim",
    "n_states",
    "m_outcomes",
    "kind",
    "projective",
    "accessible_info",
    "chi",
    "delta_s",
    "holevo_slack",
    "thermo_slack",
    "cycle_net",
]


#: The suite scores its trials in chunks of consecutive trials whose states
#: and elements hold at most this many matrix entries ((n + m) d^2 a
#: trial), so the stacks of a chunk stay near a megabyte at any --trials.
_CHUNK_ENTRIES = 1 << 16


def _pick(seed: int, trial: int, dims: list[int], kinds: tuple[str, ...]):
    """A trial's (kind, dim, n_states, m_outcomes); everything derives from
    (seed, trial), so a trial's row does not depend on the trials before it."""
    picker = np.random.default_rng([seed, trial, 0])
    kind = kinds[int(picker.integers(0, len(kinds)))]
    dim = dims[int(picker.integers(0, len(dims)))]
    n_states = int(picker.integers(2, 5))
    if kind == "commuting":
        m_outcomes = int(picker.integers(2, dim + 1))
    else:
        m_outcomes = int(picker.integers(2, 7))
    return kind, dim, n_states, m_outcomes


def _suite_results(seed: int, trials: int, dims: list[int], kinds: tuple[str, ...]):
    """(row, report, second_law_ok) of every trial, in trial order."""
    results, chunk, entries = [], [], 0
    for trial in range(trials):
        kind, dim, n_states, m_outcomes = _pick(seed, trial, dims, kinds)
        size = (n_states + m_outcomes) * dim * dim
        if chunk and entries + size > _CHUNK_ENTRIES:
            results += _score_chunk(seed, chunk)
            chunk, entries = [], 0
        chunk.append((trial, kind, dim, n_states, m_outcomes))
        entries += size
    return results + _score_chunk(seed, chunk)


def _score_chunk(seed: int, chunk: list[tuple]) -> list[tuple]:
    """Draw and analyse a chunk's trials as one stack per dimension, then
    book each trial's cycle and build its row, in trial order."""
    scored = {}
    for dim in sorted({pick[2] for pick in chunk}):
        picks = [pick for pick in chunk if pick[2] == dim]
        pairs = _random_instances(
            [(dim, n, m, kind, [seed, trial, 1]) for trial, kind, _, n, m in picks]
        )
        for pick, pair, analysis in zip(picks, pairs, _analyse_pairs(pairs)):
            scored[pick[0]] = (pair, analysis)
    results = []
    for trial, kind, dim, n_states, m_outcomes in chunk:
        (ensemble, povm), a = scored[trial]
        try:
            _, cycle_net = _book_cycle(ensemble, povm, a)
            second_law_ok = True
        except SecondLawViolation:
            cycle_net = float("nan")
            second_law_ok = False
        report = _report(a.info, a.chi, a.delta_s)
        row = [
            str(trial),
            str(dim),
            str(n_states),
            str(m_outcomes),
            kind,
            "true" if povm.projective else "false",
            *_bound_csv_row(report)[:5],
            _fmt(cycle_net),
        ]
        results.append((row, report, second_law_ok))
    return results


def cmd_suite(args) -> int:
    try:
        dims = [int(part) for part in args.dims.split(",") if part]
    except ValueError as exc:
        raise ValidationError(f"--dims must be comma-separated integers: {exc}") from exc
    if not dims or any(d < 2 for d in dims):
        raise ValidationError("--dims needs dimensions of at least 2")
    if any(d > DIM_CAP for d in dims):
        raise ValidationError(f"--dims allows dimensions up to the cap {DIM_CAP}")
    if args.trials < 1:
        raise ValidationError("--trials must be positive")
    if args.workers < 1:
        raise ValidationError("--workers must be positive")
    if args.seed < 0:
        raise ValidationError("--seed must be nonnegative")
    kinds = _KINDS if args.kind == "all" else (args.kind,)
    results = _suite_results(args.seed, args.trials, dims, kinds)

    rows = [row for row, _, _ in results]
    reports = [rep for _, rep, _ in results]
    holevo_bad = sum(1 for rep in reports if not rep.holevo_satisfied)
    thermo_bad = sum(1 for rep in reports if not rep.thermo_satisfied)
    second_law_bad = sum(1 for _, _, ok in results if not ok)
    holevo_slacks = np.array([rep.holevo_slack for rep in reports])
    thermo_slacks = np.array([rep.thermo_slack for rep in reports])
    mixing = np.mean([rep.delta_s > 1e-6 for rep in reports])

    print(f"trials                   : {args.trials}")
    print(f"I <= chi violations      : {holevo_bad}")
    print(f"I <= chi+delta_s viol.   : {thermo_bad}")
    print(f"second-law violations    : {second_law_bad}")
    print(f"min/mean holevo slack    : {_fmt(holevo_slacks.min())} / {_fmt(holevo_slacks.mean())}")
    print(f"min/mean thermo slack    : {_fmt(thermo_slacks.min())} / {_fmt(thermo_slacks.mean())}")
    print(f"fraction delta_s > 1e-6  : {_fmt(mixing)}")
    if args.csv:
        _write_csv(args.csv, _SUITE_CSV_HEADER, rows)
    return 3 if (holevo_bad or thermo_bad or second_law_bad) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infotherm",
        description="Accessible information, entropy ceilings, and engine-cycle work ledgers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="score a problem file's measurement")
    p_bounds.add_argument("--spec", required=True, help="problem JSON file")
    p_bounds.add_argument("--csv", help="write the report as one CSV row")
    p_bounds.set_defaults(func=cmd_bounds)

    p_opt = sub.add_parser("optimize", help="search for the best measurement")
    p_opt.add_argument("--spec", required=True, help="problem JSON file")
    p_opt.add_argument(
        "--method",
        default="qubit_grid",
        help="qubit_grid (lattice optimum over projective qubit measurements only) "
        "or random_restart_ascent (rank-one fixed-point ascent over general POVMs)",
    )
    p_opt.add_argument("--grid", type=int, default=100, help="qubit_grid lattice size")
    p_opt.add_argument("--restarts", type=int, default=8, help="ascent restarts")
    p_opt.add_argument("--seed", type=int, default=42, help="ascent RNG seed")
    p_opt.add_argument("--out", help="write the best measurement as JSON")
    p_opt.add_argument("--csv", help="write the report as one CSV row")
    p_opt.set_defaults(func=cmd_optimize)

    p_cycle = sub.add_parser("cycle", help="run the engine cycle ledger")
    p_cycle.add_argument("--spec", required=True, help="problem JSON file")
    p_cycle.add_argument("--csv", help="write the ledger entries as CSV")
    p_cycle.set_defaults(func=cmd_cycle)

    p_pgm = sub.add_parser("pgm", help="block scan with the square-root measurement")
    p_pgm.add_argument("--spec", required=True, help="problem JSON file")
    p_pgm.add_argument("--max-m", type=int, default=3, help="largest block length")
    p_pgm.add_argument("--csv", help="write the per-block table as CSV")
    p_pgm.set_defaults(func=cmd_pgm)

    p_suite = sub.add_parser("suite", help="random-instance bound sweep")
    p_suite.add_argument("--trials", type=int, default=100, help="number of instances")
    p_suite.add_argument("--dims", default="2,3,4", help="comma-separated dimensions")
    p_suite.add_argument(
        "--kind", default="all", choices=("all",) + _KINDS, help="ensemble kind"
    )
    p_suite.add_argument("--seed", type=int, default=42, help="base RNG seed")
    p_suite.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; trials always run in order in one thread",
    )
    p_suite.add_argument("--csv", help="write one CSV row per trial")
    p_suite.set_defaults(func=cmd_suite)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reads every argv with, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except UnsupportedDimension as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SecondLawViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
