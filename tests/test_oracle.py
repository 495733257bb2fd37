"""The package against ``tests/oracle.py``, which computes I, chi and
delta_s from their definitions and shares no code with the package.

Checked here, to 1e-10: every row of the seed-42 suite table, rebuilt as
its trial draws it (trial t is ``random_instance(dim, n, m, kind,
[42, t, 1])``), and the closed forms: the two-state pair in the
computational and Helstrom bases, and chi = 1 bit for the equal-prior trine
and SIC tetrahedron.  ``tests/test_stacked_analysis.py`` checks each pair of
its stacked sets against the oracle too.  The guard below keeps the oracle
independent.
"""
import ast
import csv
import math
from pathlib import Path

import numpy as np
import pytest

import infotherm as it
import oracle

from conftest import (
    CHI_TWO_STATE,
    DS_COMPUTATIONAL,
    DS_HELSTROM,
    INFO_COMPUTATIONAL,
    INFO_HELSTROM,
    ORACLE_TOL,
    oracle_bounds,
)


def assert_bounds_match_the_oracle(e, v):
    """``evaluate_bounds`` and the public one-pair functions within
    ORACLE_TOL of the oracle; returns the oracle's values."""
    expected = oracle_bounds(e, v)
    rep = it.evaluate_bounds(e, v)
    alone = (
        it.mutual_information(it.joint_distribution(e, v)),
        it.holevo_chi(e),
        it.delta_s(it.average_state(e), v),
    )
    for got in ((rep.accessible_info, rep.chi, rep.delta_s), alone):
        assert got == pytest.approx(expected, rel=0.0, abs=ORACLE_TOL)
    return expected


class TestOracleStaysIndependent:
    ALLOWED = {"math", "numpy"}

    @staticmethod
    def imports(path):
        """Every module ``path`` imports, at any depth of its code; a
        relative import counts as ``.``."""
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                found.add("." if node.level else node.module.split(".")[0])
        return found

    def test_the_oracle_imports_only_math_and_numpy(self):
        assert self.imports(Path(oracle.__file__)) == self.ALLOWED

    def test_the_guard_sees_every_import(self, tmp_path):
        stray = tmp_path / "stray.py"
        stray.write_text(
            "import math, numpy.linalg as la\n"
            "from infotherm.quantum import _entropies\n"
            "from . import conftest\n"
            "def f():\n"
            "    import infotherm\n"
        )
        assert self.imports(stray) == {"math", "numpy", "infotherm", "."}


def test_every_seed42_row_matches_the_oracle():
    table = Path(__file__).parent / "data" / "suite_seed42.csv"
    with table.open(newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 100
    for row in rows:
        dim, n, m = (int(row[c]) for c in ("dim", "n_states", "m_outcomes"))
        e, v = it.random_instance(dim, n, m, row["kind"], [42, int(row["trial"]), 1])
        assert v.projective == (row["projective"] == "true")
        expected = assert_bounds_match_the_oracle(e, v)
        # the row is this trial's: its printed values are the oracle's
        printed = [float(row[c]) for c in ("accessible_info", "chi", "delta_s")]
        assert printed == pytest.approx(expected, rel=1e-8, abs=1e-12)


def _binary_entropy(x):
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _equal_prior_kets(kets):
    return it.Ensemble(np.full(len(kets), 1.0 / len(kets)), tuple(it.pure_state(k) for k in kets))


def _bloch_ket(theta, phi):
    return [math.cos(theta / 2), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)]


class TestClosedForms:
    def test_the_two_state_pair(self, two_state_ensemble, computational_basis, helstrom_basis):
        # chi = b((1 + 1/sqrt 2)/2); I = b(3/4) - 1/2 in the computational
        # basis and 1 - chi in the Helstrom basis (conftest)
        assert CHI_TWO_STATE == pytest.approx(_binary_entropy((1 + 2**-0.5) / 2), abs=1e-15)
        cases = [
            (computational_basis, INFO_COMPUTATIONAL, DS_COMPUTATIONAL),
            (helstrom_basis, INFO_HELSTROM, DS_HELSTROM),
        ]
        for v, info, ds in cases:
            expected = assert_bounds_match_the_oracle(two_state_ensemble, v)
            assert expected == pytest.approx((info, CHI_TWO_STATE, ds), rel=0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kets",
        [
            # the trine: three real kets 120 degrees apart on the Bloch circle
            [_bloch_ket(2 * math.pi * k / 3, 0.0) for k in range(3)],
            # the SIC tetrahedron
            [_bloch_ket(0.0, 0.0)]
            + [_bloch_ket(math.acos(-1 / 3), 2 * math.pi * k / 3) for k in range(3)],
        ],
        ids=["trine", "sic"],
    )
    def test_chi_is_one_bit(self, kets):
        # equal-prior pure qubit states averaging to I/2: S(rho) = 1, S(rho_i) = 0
        e = _equal_prior_kets(kets)
        assert oracle.holevo_chi(e.probs.tolist(), [s.matrix for s in e.states]) == (
            pytest.approx(1.0, rel=0.0, abs=1e-12)
        )
        # scored with its own square-root measurement and in a basis
        for v in (it.pretty_good_measurement(e), it.basis_measurement(np.eye(2))):
            assert assert_bounds_match_the_oracle(e, v)[1] == pytest.approx(1.0, abs=1e-12)
