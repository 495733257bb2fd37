"""The benchmark's workloads: seeded inputs, one op each, and output checks.

Every op goes through infotherm's public API, looked up on its module at
call time so that the traced run's wrappers see it.  ``make_inputs``
builds a pool of inputs from the benchmark seed only; the program receives
nothing else.  ``check`` returns ``None`` for a correct output or a short
reason for a failed one.  See NOTES.md for why each workload was chosen.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import infotherm
import infotherm.bounds
import infotherm.cli

#: sha256 of ``suite --trials 100 --seed 42 --csv``, at any worker count.
SUITE_SEED42_SHA256 = "7fc56957cb9631380641eb0aaf5ec8b46dc1ca289b63cec4322b95be108849db"
SUITE_HEADER = (
    "trial,dim,n_states,m_outcomes,kind,projective,accessible_info,chi,"
    "delta_s,holevo_slack,thermo_slack,cycle_net"
)
PGM_HEADER = "m,per_letter_info,per_letter_delta_s,chi"
SUITE_TRIALS = 50
PGM_MAX_M = 4
#: Per-letter values at every m must equal their m=1 values within this.
PGM_TOL = 1e-8
#: An optimize op "solves" its ensemble within this many bits of the optimum.
SOLVED_TOL = 1e-3


def _binary_entropy(x: float) -> float:
    return -sum(v * math.log2(v) for v in (x, 1.0 - x) if v > 0.0)


def _printed_quantum(value: float) -> float:
    """One unit in the ninth significant digit, the CSV's print precision."""
    if value == 0.0:
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - 8)


def _read_csv(path: str) -> list[str] | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError:
        return None


def _remove(path: str) -> None:
    """Delete an op's output file, so that a check never reads an earlier op's."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class SuiteWorkload:
    """op = ``cli.main(["suite", "--trials", "50", "--seed", s, ...])``."""

    #: About 3 s a pass.
    pool_size = 24

    def make_inputs(self, seed: int, work_dir: str) -> list:
        rng = np.random.default_rng([seed, 101])
        csv = os.path.join(work_dir, "suite.csv")
        return [
            {"seed": int(s), "csv": csv}
            for s in rng.integers(0, 2**31 - 1, size=self.pool_size)
        ]

    def prepare(self, inp) -> None:
        _remove(inp["csv"])

    def run(self, inp):
        return infotherm.cli.main(
            [
                "suite",
                "--trials", str(SUITE_TRIALS),
                "--seed", str(inp["seed"]),
                "--workers", "1",
                "--csv", inp["csv"],
            ]
        )

    def check(self, inp, code) -> str | None:
        if code != 0:
            return f"suite seed {inp['seed']} exited {code}"
        lines = _read_csv(inp["csv"])
        if lines is None or len(lines) != SUITE_TRIALS + 1 or lines[0] != SUITE_HEADER:
            return f"suite seed {inp['seed']} wrote a malformed CSV"
        return None

    def run_checks(self, work_dir: str) -> list[tuple[str, str | None]]:
        """The seed-42, 100-trial CSV hash at one and at two workers."""
        results = []
        for workers in (1, 2):
            csv = os.path.join(work_dir, f"suite-seed42-w{workers}.csv")
            code = infotherm.cli.main(
                ["suite", "--trials", "100", "--seed", "42",
                 "--workers", str(workers), "--csv", csv]
            )
            digest = sha256_of(csv) if code == 0 else None
            name = f"suite seed-42 sha256 at --workers {workers}"
            ok = digest == SUITE_SEED42_SHA256
            results.append((name, None if ok else f"exit {code}, sha256 {digest}"))
        return results


def _bloch_matrix(r) -> list:
    """(I + r.sigma)/2 as a problem-file matrix of [re, im] pairs."""
    x, y, z = (float(c) for c in r)
    return [
        [[(1 + z) / 2, 0.0], [x / 2, -y / 2]],
        [[x / 2, y / 2], [(1 - z) / 2, 0.0]],
    ]


def _bloch_pair(rng, lengths: tuple[float, float]):
    """Two Bloch vectors of the given lengths, 60 to 150 degrees apart."""
    a = rng.normal(size=3)
    a /= np.linalg.norm(a)
    b = rng.normal(size=3)
    b -= (b @ a) * a
    b /= np.linalg.norm(b)
    angle = rng.uniform(np.pi / 3, 5 * np.pi / 6)
    return lengths[0] * a, lengths[1] * (np.cos(angle) * a + np.sin(angle) * b)


class PgmWorkload:
    """op = ``cli.main(["pgm", "--spec", f, "--max-m", "4", "--csv", tmp])``.

    Input i is a pure qubit pair when i % 3 == 0 and a mixed pair otherwise.
    """

    #: Fifteen pure and thirty mixed pairs, about 2 s a pass.
    pool_size = 45

    def make_inputs(self, seed: int, work_dir: str) -> list:
        rng = np.random.default_rng([seed, 202])
        csv = os.path.join(work_dir, "pgm.csv")
        inputs = []
        for i in range(self.pool_size):
            pure = i % 3 == 0
            if pure:
                ra, rb = _bloch_pair(rng, (1.0, 1.0))
                prior = 0.5
                overlap_sq = (1.0 + float(ra @ rb)) / 2.0
                p_correct = (1.0 + math.sqrt(1.0 - overlap_sq)) / 2.0
                expected_info = 1.0 - _binary_entropy(p_correct)
            else:
                ra, rb = _bloch_pair(rng, tuple(rng.uniform(0.5, 0.9, size=2)))
                prior = float(rng.uniform(0.3, 0.7))
                expected_info = None
            spec = os.path.join(work_dir, f"pgm-{i}.json")
            with open(spec, "w", encoding="utf-8") as fh:
                json.dump(
                    {"ensemble": {"priors": [prior, 1.0 - prior],
                                  "states": [_bloch_matrix(ra), _bloch_matrix(rb)]}},
                    fh,
                )
            inputs.append(
                {"spec": spec, "csv": csv, "pure": pure, "expected_info": expected_info}
            )
        return inputs

    def prepare(self, inp) -> None:
        _remove(inp["csv"])

    def run(self, inp):
        return infotherm.cli.main(
            ["pgm", "--spec", inp["spec"], "--max-m", str(PGM_MAX_M), "--csv", inp["csv"]]
        )

    def check(self, inp, code) -> str | None:
        """Per-letter I and delta_s at every m equal their m=1 values (the
        PGM of a product ensemble is a product); for a pure pair the m=1 I
        equals the Helstrom closed form.  The tolerance adds one unit of the
        ninth significant digit, which is all the CSV prints."""
        where = os.path.basename(inp["spec"])
        if code != 0:
            return f"pgm {where} exited {code}"
        lines = _read_csv(inp["csv"])
        if lines is None or len(lines) != PGM_MAX_M + 1 or lines[0] != PGM_HEADER:
            return f"pgm {where} wrote a malformed CSV"
        try:
            rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        except ValueError:
            return f"pgm {where} wrote a non-numeric CSV"
        if [int(r[0]) for r in rows] != list(range(1, PGM_MAX_M + 1)):
            return f"pgm {where} has the wrong block lengths"

        def close(a, b):
            return abs(a - b) <= PGM_TOL + _printed_quantum(a) + _printed_quantum(b)

        info1, ds1 = rows[0][1], rows[0][2]
        for m, info, ds, _ in rows[1:]:
            if not (close(info, info1) and close(ds, ds1)):
                return f"pgm {where} m={int(m)} per-letter values drift from m=1"
        if inp["expected_info"] is not None and not close(info1, inp["expected_info"]):
            return f"pgm {where} m=1 I {info1} != closed form {inp['expected_info']}"
        return None

    def run_checks(self, work_dir: str) -> list:
        return []


def _qubit_ket(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])


def _haar_qubit_unitary(rng) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


#: Closed-form optima: the {|0>,|+>} pair (Helstrom), the trine
#: (log2 3/2) and the SIC tetrahedron (log2 4/3), all with equal priors.
_TETRA_THETA = math.acos(-1.0 / 3.0)
ENSEMBLES = (
    ("pair", [_qubit_ket(0, 0), _qubit_ket(math.pi / 2, 0)],
     1.0 - _binary_entropy((1.0 + math.sqrt(0.5)) / 2.0)),
    ("trine", [_qubit_ket(2 * math.pi * k / 3, 0) for k in range(3)],
     math.log2(1.5)),
    ("sic", [_qubit_ket(0, 0)]
     + [_qubit_ket(_TETRA_THETA, 2 * math.pi * k / 3) for k in range(3)],
     math.log2(4.0 / 3.0)),
)


class OptimizeWorkload:
    """op = ``maximize_accessible_information(e, OptimizerConfig(
    method="random_restart_ascent", restarts=1, max_iterations=20, seed=s))``.

    Input i takes ensemble i % 3, rotated by a seeded random unitary (which
    leaves the optimum unchanged), and a seeded optimizer seed.
    """

    #: Eight of each ensemble, about 20 s a pass, so that a run's median
    #: rests on some 24 distinct inputs.
    pool_size = 24

    def make_inputs(self, seed: int, work_dir: str) -> list:
        rng = np.random.default_rng([seed, 303])
        inputs = []
        for i in range(self.pool_size):
            name, kets, optimum = ENSEMBLES[i % len(ENSEMBLES)]
            u = _haar_qubit_unitary(rng)
            states = tuple(infotherm.pure_state(u @ k) for k in kets)
            ensemble = infotherm.Ensemble(np.full(len(states), 1.0 / len(states)), states)
            inputs.append(
                {"name": name, "ensemble": ensemble, "optimum": optimum,
                 "seed": int(rng.integers(0, 2**31 - 1))}
            )
        return inputs

    def prepare(self, inp) -> None:
        pass

    def run(self, inp):
        cfg = infotherm.bounds.OptimizerConfig(
            method="random_restart_ascent", restarts=1, max_iterations=20, seed=inp["seed"]
        )
        return infotherm.bounds.maximize_accessible_information(inp["ensemble"], cfg)

    def check(self, inp, result) -> str | None:
        best, report = result
        if report.accessible_info > report.chi + 1e-9:
            return f"optimize {inp['name']} seed {inp['seed']}: I exceeds chi"
        try:
            infotherm.Povm(best.elements)
        except infotherm.ToolkitError as exc:
            return f"optimize {inp['name']} seed {inp['seed']}: returned POVM invalid: {exc}"
        return None

    @staticmethod
    def solved(inp, result) -> bool:
        return abs(result[1].accessible_info - inp["optimum"]) <= SOLVED_TOL

    def run_checks(self, work_dir: str) -> list:
        return []


WORKLOADS = {
    "suite": SuiteWorkload,
    "pgm": PgmWorkload,
    "optimize": OptimizeWorkload,
}
