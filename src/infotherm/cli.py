"""Command line front end.

Subcommands::

    bounds    score a problem file's measurement against both ceilings
    optimize  search for the best measurement of the ensemble
    cycle     run the engine cycle and print its work ledger
    pgm       scan block lengths with the square-root measurement
    suite     hammer random instances and tally bound violations

Problem files are JSON; every complex entry is a two-element ``[re, im]``
array.  Exit codes (``_EXIT_CODES``): 0 success, 2 invalid input, 3 bound
or second-law violation, 4 unsupported method/dimension, 5 budget exceeded.
A suite trial's streams come from ``suite_rng``; ``_pick`` alone maps its
picker to its instance's kind and sizes.
"""
from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import os
import stat
import sys
from typing import NamedTuple

import numpy as np

from .bounds import (
    _KINDS,
    METHODS,
    BoundReport,
    OptimizerConfig,
    _random_instances,
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
from .linops import BOUND_TOL, _Frozen
from .measurement import Povm, _analyse_groups
from .quantum import DIM_CAP, DensityMatrix, Ensemble, _density_matrices


#: Floats go out with 9 significant digits.
_FLOAT = ".9g"
#: A suite CSV row: trial, dim, n_states, m_outcomes, kind and projective
#: as they are, then the six value columns as floats.
_SUITE_ROW = ",".join(["{}"] * 6 + ["{:" + _FLOAT + "}"] * 6).format


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT)


class ProblemSpec(_Frozen):
    """One problem file: an ensemble, optionally a measurement and labels."""

    _fields = ("ensemble", "measurement", "preparation_labels", "outcome_labels")

    def __init__(
        self,
        ensemble: Ensemble,
        measurement: Povm | None,
        preparation_labels: tuple[str, ...],
        outcome_labels: tuple[str, ...],
    ):
        self._assign(
            ensemble=ensemble,
            measurement=measurement,
            preparation_labels=preparation_labels,
            outcome_labels=outcome_labels,
        )


def _is_number(x) -> bool:
    """A JSON number; ``bool`` is an ``int`` subclass, so true/false are not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _floats(numbers, where: str) -> np.ndarray:
    """JSON numbers, checked by ``_is_number``, as a float array.  A float
    literal past the float range already reads as inf, which the checks
    downstream reject; an integer past it raises here, naming its field."""
    try:
        return np.array(numbers, dtype=float)
    except OverflowError:
        raise ValidationError(f"{where}: number too large for a float") from None


def _check_entry(entry, where: str) -> None:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(_is_number(part) for part in entry)
    ):
        raise ValidationError(
            f"{where}: complex entries must be [re, im] number pairs, got {entry!r}"
        )


def _plain_pairs(row: list) -> bool:
    """Whether every entry of a row is a list of two ints or floats, the
    form JSON decodes to, by type passes over the whole row.  A row that
    fails may still be valid (tuples, numpy scalars); ``_check_entry``
    decides it entry by entry."""
    return (
        set(map(type, row)) == {list}
        and set(map(len, row)) == {2}
        and set(map(type, itertools.chain.from_iterable(row))) <= {int, float}
    )


def _parse_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{where}: expected a non-empty list of rows")
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            raise ValidationError(f"{where}: row {r} does not make the matrix square")
        if not _plain_pairs(row):
            for x in row:
                _check_entry(x, f"{where}[{r}]")
    # each [re, im] pair read as the complex number of the same bits
    return _floats(obj, where).view(complex)[..., 0]


def _parse_labels(obj, count: int | None, where: str) -> tuple[str, ...]:
    """Labels given as a list of strings, ``count`` of them where the count
    is known (``None`` where it is not); absent, they are "0", "1", ..."""
    if obj is None:
        return tuple(str(i) for i in range(count or 0))
    if (
        not isinstance(obj, list)
        or count not in (None, len(obj))
        or not all(isinstance(s, str) for s in obj)
    ):
        expected = "strings" if count is None else f"{count} strings"
        raise ValidationError(f"{where}: expected a list of {expected}")
    return tuple(obj)


def _checked_states(matrices: list) -> tuple[DensityMatrix, ...]:
    """Parsed square matrices as states: one ``_density_matrices`` stack
    where they share a shape and are finite, else one ``DensityMatrix``
    each.  Either way the first failing matrix raises its own error."""
    if len({m.shape for m in matrices}) == 1:
        stack = np.array(matrices)
        if np.isfinite(stack).all():
            return _density_matrices(stack)
    return tuple(DensityMatrix(m) for m in matrices)


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
    matrices = []
    for i, s in enumerate(ens["states"]):
        try:
            matrices.append(_parse_matrix(s, f"ensemble.states[{i}]"))
        except ValidationError:
            # the states before it are checked first, as parsing and
            # checking one state at a time would
            _checked_states(matrices)
            raise
    states = _checked_states(matrices)
    ensemble = Ensemble(_floats(priors, "ensemble.priors"), states)

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

    labels = data.get("labels")
    if labels is None:
        labels = {}
    if not isinstance(labels, dict):
        raise ValidationError("'labels' must be an object")
    unknown = set(labels) - {"preparations", "outcomes"}
    if unknown:
        raise ValidationError(f"unknown 'labels' keys {sorted(unknown)}")
    prep = _parse_labels(labels.get("preparations"), ensemble.size, "labels.preparations")
    outcomes = None if measurement is None else measurement.size
    out = _parse_labels(labels.get("outcomes"), outcomes, "labels.outcomes")
    return ProblemSpec(ensemble, measurement, prep, out)


def load_problem_spec(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"problem file {path} is not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise ValidationError(f"problem file {path} nests too deeply to parse") from None
    return parse_problem_spec(data)


def _require_measurement(spec: ProblemSpec, command: str) -> Povm:
    if spec.measurement is None:
        raise ValidationError(f"'{command}' needs a measurement in the problem file")
    return spec.measurement


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _unwritable(path: str, exc: OSError) -> ValidationError:
    return ValidationError(f"cannot write output file {path}: {exc.strerror or exc}")


def _write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is invalid input."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _check_output_path(path: str) -> None:
    """Refuse, before any work and without creating a file, an output path
    that names a directory or whose directory is missing, with the error
    ``_write_text`` would raise for it; any other failure to write is
    found when the file is written."""
    try:
        try:
            if stat.S_ISDIR(os.stat(path).st_mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        except FileNotFoundError:
            # a new file: its directory must be there
            os.stat(os.path.dirname(path) or os.curdir)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


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
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
        print(f"measurement written to {args.out}")
    if args.csv:
        _write_csv(
            args.csv,
            ["method"] + _BOUND_CSV_HEADER,
            [[cfg.method] + _bound_csv_row(report)],
        )
    return 0 if (report.holevo_satisfied and report.thermo_satisfied) else 3


def cmd_cycle(args) -> int:
    from .thermo import run_cycle

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
    from .blockcoding import block_scan

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
#: The suite's work cap.  A trial costs about 0.15-0.2 us for each of the
#: d^3 terms of the largest --dims d, plus numpy's fixed cost, counted as
#: SUITE_TRIAL_WORK more terms: about 0.05-0.1 ms, less as a chunk fills
#: (0.05 ms at --dims 2, 0.07 at 2,3,4, 0.10 at 4, 0.8 at 16 and 5.0 at
#: 32, one BLAS thread on a 2-vCPU VM), so an admitted run takes at most
#: about 10 s (about 7 s at --dims 32), and its rows are held until it
#: ends.
SUITE_WORK_CAP = 5 * 10**7
SUITE_TRIAL_WORK = 1200


def _pick(picker, dims: list[int], kinds: tuple[str, ...]):
    """A trial's (kind, dim, n_states, m_outcomes), drawn from its picker:
    a ``Generator``, or the ``_PickSource`` of the same stream."""
    kind = kinds[int(picker.integers(0, len(kinds)))]
    dim = dims[int(picker.integers(0, len(dims)))]
    n_states = int(picker.integers(2, 5))
    if kind == "commuting":
        m_outcomes = int(picker.integers(2, dim + 1))
    else:
        m_outcomes = int(picker.integers(2, 7))
    return kind, dim, n_states, m_outcomes


class _Scores(NamedTuple):
    """Scored suite trials, in trial order: each CSV row, both slacks (a
    ``BoundReport``'s ``chi - I`` and ``chi - I + delta_s``), ``delta_s``
    and whether the cycle kept the second law."""

    rows: list[str]
    holevo_slacks: np.ndarray
    thermo_slacks: np.ndarray
    delta_s: np.ndarray
    second_law_ok: np.ndarray


def _suite_results(seed: int, trials: int, dims: list[int], kinds: tuple[str, ...]) -> _Scores:
    """The ``_Scores`` of every trial.  Trial t is picked by
    ``default_rng([seed, t, 0])`` and drawn by ``default_rng([seed, t,
    1])``, so a trial's row does not depend on the trials before it.  The
    generators' states come from one seeding pass over the whole run."""
    from .suite_rng import _PickSource, _trial_states

    states = _trial_states(seed, trials)
    scored, chunk, entries = [], [], 0
    for trial, (picker, draw) in enumerate(states):
        kind, dim, n_states, m_outcomes = _pick(_PickSource(picker), dims, kinds)
        size = (n_states + m_outcomes) * dim * dim
        if chunk and entries + size > _CHUNK_ENTRIES:
            scored.append(_score_chunk(chunk))
            chunk, entries = [], 0
        chunk.append((trial, kind, dim, n_states, m_outcomes, draw))
        entries += size
    scored.append(_score_chunk(chunk))
    rows, *arrays = zip(*scored)
    return _Scores([row for part in rows for row in part], *map(np.concatenate, arrays))


@np.errstate(all="ignore")
def _score_chunk(chunk: list[tuple]) -> _Scores:
    """Draw and analyse a chunk's trials in one stage-major pass, one
    ``_Group`` per dimension and one ``_Analysis`` of them all, book every
    trial's cycle in the analysis's order, then take the values and nets
    to trial order once and build the rows.  A trial's pick is (trial,
    kind, dim, n_states, m_outcomes, state); it draws from the generator
    of that ``_trial_states`` row.  The chunk computes with numpy's
    floating-point errors ignored, as ``evaluate_bounds`` and ``run_cycle``
    do."""
    from .suite_rng import _generators
    from .thermo import _book_cycles

    rngs = _generators([pick[5] for pick in chunk])
    specs = [(dim, n, m, kind, rng) for (_, kind, dim, n, m, _), rng in zip(chunk, rngs)]
    a = _analyse_groups(_random_instances(specs))
    booking = _book_cycles(a)
    # the analysis holds the trials by dimension, each dimension's in chunk order
    order = sorted(range(len(chunk)), key=lambda k: chunk[k][2])
    place = np.empty(len(chunk), dtype=int)
    place[order] = np.arange(len(chunk))
    info, chi, ds, projective, breaks, nets = (
        x[place] for x in (a.info, a.chi, a.delta_s, a.projective, booking.breaks, booking.nets)
    )
    holevo = chi - info
    thermo = holevo + ds
    nets = np.where(breaks, np.nan, nets)
    trials, kinds, dims, sizes, counts, _ = zip(*chunk)
    flags = map(("false", "true").__getitem__, projective.tolist())
    values = (x.tolist() for x in (info, chi, ds, holevo, thermo, nets))
    rows = list(map(_SUITE_ROW, trials, dims, sizes, counts, kinds, flags, *values))
    return _Scores(rows, holevo, thermo, ds, ~breaks)


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
    work = args.trials * (max(dims) ** 3 + SUITE_TRIAL_WORK)
    if work > SUITE_WORK_CAP:
        raise BudgetExceeded(
            f"suite work {work} ({args.trials} trials, dimension up to {max(dims)}) "
            f"exceeds the cap {SUITE_WORK_CAP}"
        )
    kinds = _KINDS if args.kind == "all" else (args.kind,)
    scores = _suite_results(args.seed, args.trials, dims, kinds)
    # a slack that is not >= -BOUND_TOL (nan too) fails, as in BoundReport
    holevo_bad = int(np.count_nonzero(~(scores.holevo_slacks >= -BOUND_TOL)))
    thermo_bad = int(np.count_nonzero(~(scores.thermo_slacks >= -BOUND_TOL)))
    second_law_bad = int(np.count_nonzero(~scores.second_law_ok))
    holevo_slacks, thermo_slacks = scores.holevo_slacks, scores.thermo_slacks
    mixing = np.mean(scores.delta_s > 1e-6)

    print(f"trials                   : {args.trials}")
    print(f"I <= chi violations      : {holevo_bad}")
    print(f"I <= chi+delta_s viol.   : {thermo_bad}")
    print(f"second-law violations    : {second_law_bad}")
    print(f"min/mean holevo slack    : {_fmt(holevo_slacks.min())} / {_fmt(holevo_slacks.mean())}")
    print(f"min/mean thermo slack    : {_fmt(thermo_slacks.min())} / {_fmt(thermo_slacks.mean())}")
    print(f"fraction delta_s > 1e-6  : {_fmt(mixing)}")
    if args.csv:
        _write_text(args.csv, "\n".join([",".join(_SUITE_CSV_HEADER)] + scores.rows) + "\n")
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


#: The exit code of each error ``main`` reports, read in order: the first type it is wins.
_EXIT_CODES = (
    (BudgetExceeded, 5), (UnsupportedDimension, 4), (SecondLawViolation, 3), (ToolkitError, 2)
)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for path in (getattr(args, "out", None), args.csv):
            if path:
                _check_output_path(path)
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
