import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import infotherm as it
from infotherm import blockcoding, bounds, cli, measurement, quantum, suite_rng, thermo
from infotherm.errors import SecondLawViolation

from conftest import fail_solver, seed_states


def _mat(m):
    arr = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in arr]


KET0 = [[1.0, 0.0], [0.0, 0.0]]
PLUS = [[0.5, 0.5], [0.5, 0.5]]
COMPUTATIONAL = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]


def _two_state_payload(measurement=COMPUTATIONAL, **extra):
    payload = {
        "ensemble": {"priors": [0.5, 0.5], "states": [_mat(KET0), _mat(PLUS)]}
    }
    if measurement is not None:
        payload["measurement"] = {"elements": [_mat(e) for e in measurement]}
    payload.update(extra)
    return payload


def _helstrom_elements():
    axis = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2)
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    pointer = sum(c * p for c, p in zip(axis, paulis))
    return [(np.eye(2) + s * pointer) / 2 for s in (+1, -1)]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestProblemParsing:
    def test_valid_file_round_trips(self, tmp_path):
        path = _write(tmp_path, "p.json", _two_state_payload())
        spec = cli.load_problem_spec(path)
        assert spec.ensemble.size == 2
        assert spec.measurement is not None and spec.measurement.size == 2
        assert spec.preparation_labels == ("0", "1")

    def test_labels_pass_through(self, tmp_path):
        payload = _two_state_payload(
            labels={"preparations": ["zero", "plus"], "outcomes": ["up", "down"]}
        )
        spec = cli.load_problem_spec(_write(tmp_path, "p.json", payload))
        assert spec.preparation_labels == ("zero", "plus")
        assert spec.outcome_labels == ("up", "down")

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["bounds", "--spec", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["bounds", "--spec", str(tmp_path / "nope.json")]) == 2

    def test_a_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(_two_state_payload()).encode("utf-16-le"))
        assert cli.main(["bounds", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: problem file {path} is not UTF-8 text: " in err
        assert "Traceback" not in err

    def test_a_file_nested_past_the_recursion_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert cli.main(["bounds", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: problem file {path} nests too deeply to parse\n"

    def test_bare_numbers_exit_2(self, tmp_path):
        payload = {
            "ensemble": {"priors": [0.5, 0.5], "states": [KET0, PLUS]},
            "measurement": {"elements": COMPUTATIONAL},
        }
        path = _write(tmp_path, "bare.json", payload)
        assert cli.main(["bounds", "--spec", str(path)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        path = _write(
            tmp_path, "extra.json", _two_state_payload(temperature=300)
        )
        assert cli.main(["bounds", "--spec", str(path)]) == 2

    def test_non_square_matrix_exits_2(self, tmp_path):
        payload = _two_state_payload()
        payload["ensemble"]["states"][0] = [[[1.0, 0.0]]]
        path = _write(tmp_path, "rect.json", payload)
        assert cli.main(["bounds", "--spec", str(path)]) == 2

    def test_wrong_label_count_exits_2(self, tmp_path):
        payload = _two_state_payload(labels={"preparations": ["only-one"]})
        path = _write(tmp_path, "lbl.json", payload)
        assert cli.main(["bounds", "--spec", str(path)]) == 2

    @pytest.mark.parametrize("labels", [[], False, 0, "", ["zero", "plus"]])
    def test_labels_that_are_not_an_object_exit_2(self, tmp_path, capsys, labels):
        path = _write(tmp_path, "lbl.json", _two_state_payload(labels=labels))
        assert cli.main(["bounds", "--spec", str(path)]) == 2
        assert "error: 'labels' must be an object" in capsys.readouterr().err

    def test_unknown_label_keys_exit_2(self, tmp_path, capsys):
        payload = _two_state_payload(labels={"outcome": ["up", "down"]})
        path = _write(tmp_path, "lbl.json", payload)
        assert cli.main(["bounds", "--spec", str(path)]) == 2
        assert "error: unknown 'labels' keys ['outcome']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pgm", "optimize"])
    @pytest.mark.parametrize("measured", [True, False], ids=["measured", "unmeasured"])
    @pytest.mark.parametrize("outcomes", [5, [1, 2], "ab"], ids=["number", "numbers", "string"])
    def test_outcome_labels_that_are_not_strings_exit_2(
        self, tmp_path, capsys, outcomes, measured, command
    ):
        # checked whether or not the file has a measurement; their count
        # only where it has one
        payload = _two_state_payload(
            measurement=COMPUTATIONAL if measured else None, labels={"outcomes": outcomes}
        )
        path = _write(tmp_path, "lbl.json", payload)
        assert cli.main([command, "--spec", path]) == 2
        expected = "a list of 2 strings" if measured else "a list of strings"
        assert capsys.readouterr().err == f"error: labels.outcomes: expected {expected}\n"

    def test_outcome_labels_without_a_measurement_pass_through(self):
        labels = {"outcomes": ["up", "down", "sideways"]}
        spec = cli.parse_problem_spec(_two_state_payload(measurement=None, labels=labels))
        assert spec.measurement is None
        assert spec.outcome_labels == ("up", "down", "sideways")
        assert cli.parse_problem_spec(_two_state_payload(measurement=None)).outcome_labels == ()

    def test_null_labels_read_as_absent(self, tmp_path):
        # as with "measurement": null, a null value means the key is absent
        spec = cli.parse_problem_spec(_two_state_payload(labels=None))
        assert spec.preparation_labels == ("0", "1")
        assert spec.outcome_labels == ("0", "1")

    def test_false_projective_claim_exits_2(self, tmp_path):
        payload = _two_state_payload()
        payload["measurement"]["elements"] = [
            _mat(np.eye(2) / 2), _mat(np.eye(2) / 2)
        ]
        payload["measurement"]["projective"] = True
        path = _write(tmp_path, "claim.json", payload)
        assert cli.main(["bounds", "--spec", str(path)]) == 2

    def test_bad_priors_exit_2(self, tmp_path):
        payload = _two_state_payload()
        payload["ensemble"]["priors"] = [0.9, 0.9]
        path = _write(tmp_path, "priors.json", payload)
        assert cli.main(["bounds", "--spec", str(path)]) == 2

    def test_nan_prior_exits_2(self, tmp_path, capsys):
        payload = _two_state_payload()
        payload["ensemble"]["priors"] = [float("nan"), 1.0]
        path = _write(tmp_path, "nan.json", payload)
        assert "NaN" in (tmp_path / "nan.json").read_text()
        assert cli.main(["bounds", "--spec", str(path)]) == 2
        assert "error: priors have non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, field",
        [
            ("prior", "ensemble.priors"),
            ("state", "ensemble.states[0]"),
            ("element", "measurement.elements[1]"),
        ],
    )
    def test_integers_past_the_float_range_exit_2(self, tmp_path, capsys, where, field):
        huge = 10**400
        payload = _two_state_payload()
        if where == "prior":
            payload["ensemble"]["priors"][1] = huge
        elif where == "state":
            payload["ensemble"]["states"][0][1][0] = [0.0, huge]
        else:
            payload["measurement"]["elements"][1][0][0] = [huge, 0.0]
        path = _write(tmp_path, "huge.json", payload)
        assert str(huge) in (tmp_path / "huge.json").read_text()
        command = "pgm" if where == "prior" else "bounds"
        assert cli.main([command, "--spec", str(path)]) == 2
        assert f"error: {field}: number too large for a float" in capsys.readouterr().err

    def test_float_literals_past_the_float_range_read_as_inf_and_exit_2(self, tmp_path, capsys):
        text = json.dumps(_two_state_payload())
        assert text.count('"priors": [0.5, 0.5]') == 1
        path = tmp_path / "inf.json"
        path.write_text(text.replace('"priors": [0.5, 0.5]', '"priors": [1e400, 0.5]'))
        assert cli.main(["bounds", "--spec", str(path)]) == 2
        assert "error: priors have non-finite entries" in capsys.readouterr().err

    def test_matrix_entries_keep_their_bits(self):
        obj = [[[1, 2], [0.1, -0.0]], [[-3, 1e-300], [2**60 + 1, 0.7]]]
        expected = np.array([[complex(*x) for x in row] for row in obj])
        assert cli._parse_matrix(obj, "m").tobytes() == expected.tobytes()

    @pytest.mark.parametrize("where", ["priors", "entry"])
    def test_booleans_are_not_numbers(self, tmp_path, where):
        payload = _two_state_payload()
        if where == "priors":
            payload["ensemble"]["priors"] = [True, False]
        else:
            payload["ensemble"]["states"][0][0][0] = [True, 0.0]
        path = _write(tmp_path, "bool.json", payload)
        assert cli.main(["bounds", "--spec", str(path)]) == 2


def per_entry_parse(obj, where):
    """``_parse_matrix`` as it checked every entry on its own."""
    if not isinstance(obj, list) or not obj:
        raise it.ValidationError(f"{where}: expected a non-empty list of rows")
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            raise it.ValidationError(f"{where}: row {r} does not make the matrix square")
        for x in row:
            cli._check_entry(x, f"{where}[{r}]")
    return cli._floats(obj, where).view(complex)[..., 0]


class TestMatrixEntries:
    """``_parse_matrix`` checks a row of plain JSON pairs with one type pass
    and any other row entry by entry: it accepts what the per-entry check
    accepted, with the same bits, and raises its messages."""

    ENTRIES = [
        [True, 0.0], [0.5, False], [1.0], [1, 2, 3], [], "x", None, 1.0, {}, [1.0, "2"],
        [1.0, None], [[1.0], 0.0], [float("nan"), 0.0], (1.0, 2.0), [np.float64(0.25), 2],
        [np.int64(3), 0.5], (np.float32(1.5), -1), [2**70, 0.0],
    ]

    @staticmethod
    def outcome(parse, obj):
        try:
            return parse(obj, "m").tobytes()
        except it.ValidationError as exc:
            return str(exc)

    @pytest.mark.parametrize("place", [(0, 0), (1, 2), (2, 2)])
    @pytest.mark.parametrize("entry", range(len(ENTRIES)))
    def test_an_entry_parses_as_it_did_alone(self, entry, place):
        obj = [[[r + 0.5, c - 1] for c in range(3)] for r in range(3)]
        obj[place[0]][place[1]] = self.ENTRIES[entry]
        expected = self.outcome(per_entry_parse, obj)
        assert self.outcome(cli._parse_matrix, obj) == expected
        # a later row that does not make the matrix square raises after it
        obj[2] = obj[2][:2]
        assert self.outcome(cli._parse_matrix, obj) == self.outcome(per_entry_parse, obj)

    def test_the_messages_name_the_entry(self):
        obj = [[[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.0], [True, 0.0]]]
        with pytest.raises(it.ValidationError) as info:
            cli._parse_matrix(obj, "ensemble.states[3]")
        assert str(info.value) == (
            "ensemble.states[3][1]: complex entries must be [re, im] number pairs, "
            "got [True, 0.0]"
        )


def _random_density(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w = g @ g.conj().T
    return w / np.trace(w).real


class TestProblemFileStates:
    """A problem file's states raise as parsing and checking them one state
    at a time raises: the first state that fails either step, with its own
    error.  Valid states are checked with one stacked ``eigvalsh``."""

    NOT_HERMITIAN = np.array([[0.5, 1.0], [0.0, 0.5]])  # deviates by 1.0
    BAD = {
        "not-hermitian": NOT_HERMITIAN,
        "trace": np.diag([0.6, 0.6]),
        "not-psd": np.diag([1.2, -0.2]),
        "non-finite": np.diag([np.inf, 0.0]),
    }

    @staticmethod
    def unparsable():
        state = _mat(PLUS)
        state[0][1] = "x"
        return state

    @staticmethod
    def error(states, priors=None):
        payload = {
            "ensemble": {"priors": priors or [1 / len(states)] * len(states), "states": states}
        }
        with pytest.raises(it.ToolkitError) as info:
            cli.parse_problem_spec(payload)
        return type(info.value), str(info.value)

    def test_a_state_check_comes_before_a_later_parse_error(self):
        assert self.error([_mat(self.NOT_HERMITIAN), self.unparsable()]) == (
            it.ValidationError,
            "density matrix deviates from Hermitian by 1.000e+00",
        )

    def test_a_parse_error_comes_before_a_later_state_check(self):
        assert self.error([_mat(KET0), self.unparsable(), _mat(self.NOT_HERMITIAN)]) == (
            it.ValidationError,
            "ensemble.states[1][0]: complex entries must be [re, im] number pairs, got 'x'",
        )

    def test_valid_states_of_two_dimensions_raise_the_dimension_mismatch(self):
        assert self.error([_mat(KET0), _mat(np.eye(3) / 3)]) == (
            it.DimensionMismatch,
            "states have mixed dimensions [2, 3]",
        )

    def test_an_invalid_state_of_another_dimension_raises_its_own_check(self):
        assert self.error([_mat(KET0), _mat(np.eye(3) / 2)]) == (
            it.ValidationError,
            "density matrix has trace 1.5, expected 1",
        )

    def test_a_state_check_comes_before_the_prior_checks(self):
        assert self.error([_mat(KET0), _mat(self.BAD["trace"])], priors=[0.9, 0.9]) == (
            it.ValidationError,
            "density matrix has trace 1.2, expected 1",
        )

    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_the_lowest_failing_state_raises_its_own_error(self, index, bad):
        states = [_mat(KET0), _mat(PLUS), _mat(np.eye(2) / 2), _mat(self.NOT_HERMITIAN)]
        states[index] = _mat(self.BAD[bad])
        with pytest.raises(it.ToolkitError) as info:
            it.DensityMatrix(self.BAD[bad])
        assert self.error(states) == (type(info.value), str(info.value))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_n_states_take_one_eigvalsh_and_equal_the_single_checks(self, monkeypatch, n):
        matrices = [_random_density(3, seed) for seed in range(n)]
        payload = {"ensemble": {"priors": [1 / n] * n, "states": [_mat(m) for m in matrices]}}
        counts = _count_decompositions(monkeypatch)
        spec = cli.parse_problem_spec(payload)
        assert counts == [1, n]
        monkeypatch.undo()
        for s, m in zip(spec.ensemble.states, matrices):
            single = it.DensityMatrix(np.array(_mat(m)).view(complex)[..., 0])
            assert s.matrix.tobytes() == single.matrix.tobytes()
            assert s.spectrum().tobytes() == single.spectrum().tobytes()
            assert not s.matrix.flags.writeable


class TestBounds:
    def test_computational_report(self, tmp_path, capsys):
        path = _write(tmp_path, "p.json", _two_state_payload())
        rc = cli.main(["bounds", "--spec", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "accessible information I : 0.311278124" in out
        assert "information ceiling chi  : 0.600876037" in out
        assert "entropy increase delta_s : 0.210402088" in out
        assert out.count("PASS") == 2 and "FAIL" not in out

    def test_csv_row(self, tmp_path):
        path = _write(tmp_path, "p.json", _two_state_payload())
        csv = tmp_path / "report.csv"
        assert cli.main(["bounds", "--spec", path, "--csv", str(csv)]) == 0
        assert csv.read_text() == (
            "accessible_info,chi,delta_s,holevo_slack,thermo_slack,"
            "holevo_satisfied,thermo_satisfied\n"
            "0.311278124,0.600876037,0.210402088,0.289597912,0.5,true,true\n"
        )

    def test_needs_measurement(self, tmp_path):
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        assert cli.main(["bounds", "--spec", path]) == 2


class TestOptimize:
    def test_grid_finds_the_best_basis(self, tmp_path, capsys):
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        rc = cli.main(["optimize", "--spec", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "method                   : qubit_grid" in out
        assert "best I found             : 0.399123963" in out

    def test_out_file_round_trips(self, tmp_path, capsys):
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        dest = tmp_path / "best.json"
        rc = cli.main(["optimize", "--spec", path, "--out", str(dest)])
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(dest.read_text())
        povm = it.Povm(
            tuple(np.array([[complex(re, im) for re, im in row] for row in el])
                  for el in payload["elements"]),
            projective=payload["projective"],
        )
        e = it.Ensemble(
            [0.5, 0.5],
            (it.DensityMatrix(np.array(KET0, dtype=complex)),
             it.DensityMatrix(np.array(PLUS, dtype=complex))),
        )
        rep = it.evaluate_bounds(e, povm)
        np.testing.assert_allclose(rep.accessible_info, 0.399123963, atol=1e-9)

    def test_csv_includes_method(self, tmp_path, capsys):
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        csv = tmp_path / "opt.csv"
        assert cli.main(["optimize", "--spec", path, "--csv", str(csv)]) == 0
        capsys.readouterr()
        header, row = csv.read_text().splitlines()
        assert header.startswith("method,accessible_info,")
        assert row.startswith("qubit_grid,0.399123963,")

    def test_unknown_method_exits_4(self, tmp_path):
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        assert cli.main(["optimize", "--spec", path, "--method", "newton"]) == 4

    def test_grid_beyond_qubits_exits_4(self, tmp_path):
        payload = {
            "ensemble": {
                "priors": [0.5, 0.5],
                "states": [
                    _mat(np.diag([1.0, 0.0, 0.0])),
                    _mat(np.diag([0.0, 1.0, 0.0])),
                ],
            }
        }
        path = _write(tmp_path, "qutrit.json", payload)
        assert cli.main(["optimize", "--spec", path]) == 4

    @pytest.mark.parametrize("method", ["qubit_grid", "random_restart_ascent"])
    def test_negative_seed_exits_2(self, method, tmp_path, capsys):
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        assert cli.main(["optimize", "--spec", path, "--method", method, "--seed", "-1"]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err

    def test_grid_above_the_cap_exits_2_before_the_lattice(self, monkeypatch, tmp_path, capsys):
        def lattice(*args):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(bounds, "_qubit_grid_search", lattice)
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        assert cli.main(["optimize", "--spec", path, "--grid", "1001"]) == 2
        assert f"cap {bounds.GRID_CAP}" in capsys.readouterr().err

    def test_ascent_method_flag(self, tmp_path, capsys):
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        rc = cli.main([
            "optimize", "--spec", path,
            "--method", "random_restart_ascent", "--restarts", "2",
            "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "method                   : random_restart_ascent" in out
        best = float(out.split("best I found             : ")[1].splitlines()[0])
        assert 0.39 <= best <= 0.3991239633071438 + 1e-9


class TestUnwritableOutput:
    """An output path that names a directory or whose directory is missing
    exits 2 with the path named before any work, printing nothing and
    creating no file; a path that fails only when written exits 2 after
    the run's own report is printed."""

    @staticmethod
    def unwritable(tmp_path):
        (tmp_path / "file").write_text("")
        return [
            str(tmp_path / "missing" / "out.csv"),
            str(tmp_path),
            str(tmp_path / "file" / "out.csv"),
        ]

    def assert_exits_2(self, argv, path, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write output file {path}: ")
        assert captured.err.count("\n") == 1
        return captured.out

    def test_bounds_csv(self, tmp_path, capsys):
        spec = _write(tmp_path, "p.json", _two_state_payload())
        for path in self.unwritable(tmp_path):
            out = self.assert_exits_2(["bounds", "--spec", spec, "--csv", path], path, capsys)
            assert out == ""

    def test_suite_csv(self, tmp_path, capsys):
        for path in self.unwritable(tmp_path):
            out = self.assert_exits_2(["suite", "--trials", "3", "--csv", path], path, capsys)
            assert out == ""

    def test_optimize_out(self, tmp_path, capsys):
        spec = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        csv = tmp_path / "report.csv"
        for path in self.unwritable(tmp_path):
            argv = ["optimize", "--spec", spec, "--out", path, "--csv", str(csv)]
            out = self.assert_exits_2(argv, path, capsys)
            assert out == ""
            assert not csv.exists()

    def test_the_messages_are_the_write_time_messages(self, tmp_path):
        for path in self.unwritable(tmp_path):
            with pytest.raises(it.ToolkitError) as early:
                cli._check_output_path(path)
            with pytest.raises(it.ToolkitError) as late:
                cli._write_text(path, "x")
            assert str(early.value) == str(late.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_a_largest_suite_exits_2_at_once(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "x.csv")
        start = time.perf_counter()
        self.assert_exits_2(["suite", "--trials", "39556", "--csv", path], path, capsys)
        assert time.perf_counter() - start < 1.0

    def test_a_long_ascent_exits_2_at_once(self, tmp_path, capsys):
        spec = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        path = str(tmp_path / "missing" / "povm.json")
        argv = [
            "optimize", "--spec", spec, "--method", "random_restart_ascent",
            "--restarts", "200", "--out", path,
        ]
        start = time.perf_counter()
        self.assert_exits_2(argv, path, capsys)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_a_failed_write_exits_2_after_the_report(self, capsys):
        # /dev/full opens, and every write to it fails
        argv = ["suite", "--trials", "3", "--csv", "/dev/full"]
        out = self.assert_exits_2(argv, "/dev/full", capsys)
        assert "trials                   : 3" in out


class TestOptimizeRuntime:
    def test_ascent_on_four_levels_finishes_within_budget(self, tmp_path, capsys):
        kets = np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1j]])
        kets = kets / np.linalg.norm(kets, axis=1, keepdims=True)
        payload = {
            "ensemble": {
                "priors": [0.25] * 4,
                "states": [_mat(np.outer(k, k.conj())) for k in kets],
            }
        }
        path = _write(tmp_path, "ququart.json", payload)
        start = time.perf_counter()
        rc = cli.main(["optimize", "--spec", path, "--method", "random_restart_ascent"])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert rc == 0
        assert elapsed <= 10.0


class TestOptimizeAscentGolden:
    # sha256 of `optimize --method random_restart_ascent --restarts 2
    # --seed 7 --out povm.json` stdout and of povm.json, as the ascent that
    # scored each step through a validating JointDistribution and
    # mutual_information and normalised it with psd_function wrote them
    @pytest.mark.parametrize(
        "spec, stdout_digest, out_digest",
        [
            (
                "qubit pair",
                "f8b5b799a3ba61b7e8045e4e2bd76172ca026a8285da697b89d4e68c24cc2e15",
                "086aaafa410cc9159ad13e4e48bf599007a798ee5fea7d3d9196f4e4887cd746",
            ),
            (
                "mixed qutrit triple",
                "7c8f12cfd2fc66aa9e758009d32c1034b68339fa64e6ab1f34be0a475d18a4bf",
                "d6bbe83487a9169116a2326e69c13161eeee0dd3777b5f157e7b0bc859bf589d",
            ),
        ],
    )
    def test_stdout_and_out_are_pinned(
        self, spec, stdout_digest, out_digest, tmp_path, monkeypatch, capsys
    ):
        if spec == "qubit pair":
            payload = _two_state_payload(measurement=None)
        else:
            payload = _ensemble_payload(it.random_instance(3, 3, 4, "mixed", 1)[0])
        monkeypatch.chdir(tmp_path)
        _write(tmp_path, "p.json", payload)
        rc = cli.main([
            "optimize", "--spec", "p.json", "--method", "random_restart_ascent",
            "--restarts", "2", "--seed", "7", "--out", "povm.json",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
        assert hashlib.sha256((tmp_path / "povm.json").read_bytes()).hexdigest() == out_digest

    @pytest.mark.parametrize(
        "spec, info",
        [("qubit pair", 0.3991237584263576), ("mixed qutrit triple", 0.0897995345091509)],
    )
    def test_information_matches_the_pinned_value(self, spec, info, tmp_path):
        # the value-level pin beside the byte pins: the I that run reports,
        # to 1e-10 bits, so that a last-bit change (another BLAS kernel)
        # passes and a wrong value does not
        if spec == "qubit pair":
            payload = _two_state_payload(measurement=None)
        else:
            payload = _ensemble_payload(it.random_instance(3, 3, 4, "mixed", 1)[0])
        ensemble = cli.load_problem_spec(_write(tmp_path, "p.json", payload)).ensemble
        cfg = it.OptimizerConfig(method="random_restart_ascent", restarts=2, seed=7)
        _, report = it.maximize_accessible_information(ensemble, cfg)
        assert abs(report.accessible_info - info) <= 1e-10


class TestOptimizeBudget:
    """Ascent runs past ``bounds.ASCENT_WORK_CAP`` exit 5 before any step."""

    def _refused_quickly(self, argv, capsys):
        start = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - start
        assert rc == 5
        assert f"exceeds the cap {bounds.ASCENT_WORK_CAP}" in capsys.readouterr().err
        assert elapsed <= 1.0

    def test_a_billion_restarts_exit_5(self, tmp_path, capsys):
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        self._refused_quickly(
            ["optimize", "--spec", path, "--method", "random_restart_ascent",
             "--restarts", "1000000000"],
            capsys,
        )

    def test_sixty_four_levels_exit_5(self, tmp_path, capsys):
        basis = np.eye(64)
        payload = {
            "ensemble": {
                "priors": [0.5, 0.5],
                "states": [_mat(np.diag(basis[0])), _mat(np.diag(basis[1]))],
            }
        }
        path = _write(tmp_path, "d64.json", payload)
        self._refused_quickly(
            ["optimize", "--spec", path, "--method", "random_restart_ascent"], capsys
        )


class TestCycle:
    def test_computational_ledger(self, tmp_path, capsys):
        path = _write(tmp_path, "p.json", _two_state_payload())
        rc = cli.main(["cycle", "--spec", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "net extracted work       : -0.5 bits" in out
        assert "SECOND LAW OK (net <= 0)" in out
        assert "extraction" in out and "rho_compression" in out

    def test_helstrom_ledger(self, tmp_path, capsys):
        payload = _two_state_payload(measurement=_helstrom_elements())
        path = _write(tmp_path, "h.json", payload)
        rc = cli.main(["cycle", "--spec", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "net extracted work       : -0.600876037 bits" in out

    def test_csv_ledger(self, tmp_path, capsys):
        path = _write(tmp_path, "p.json", _two_state_payload())
        csv = tmp_path / "ledger.csv"
        assert cli.main(["cycle", "--spec", path, "--csv", str(csv)]) == 0
        capsys.readouterr()
        lines = csv.read_text().splitlines()
        assert lines[0] == "stage,description,work_bits"
        assert len(lines) > 4

    def test_needs_measurement(self, tmp_path):
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        assert cli.main(["cycle", "--spec", path]) == 2


class TestCycleGolden:
    # sha256 of `cycle` stdout and of its --csv ledger for the |0>,|+> pair
    # measured in the computational and in the Helstrom basis; any change to
    # an entry's stage, description, work or order moves them
    @pytest.mark.parametrize(
        "basis, stdout_digest, csv_digest",
        [
            (
                "computational",
                "7195401727a761033e0ca0f378d46d32add499f3826c4f17d6c4843b82b896c3",
                "a7d6da6f0131938bacc345defbe59fc8e1350d9431661c3f0ec54413eed0eb63",
            ),
            (
                "helstrom",
                "58bd6cd386f34afb687f55c4f65c4f13e9904f3b08c3d1d1f4f86dce40cfbab8",
                "20b9cf3402110c846591b60830fc241303d421ba76d85e86071ca85896d5aed3",
            ),
        ],
    )
    def test_stdout_and_csv_are_pinned(self, basis, stdout_digest, csv_digest, tmp_path, capsys):
        measurement = COMPUTATIONAL if basis == "computational" else _helstrom_elements()
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=measurement))
        csv = tmp_path / "ledger.csv"
        assert cli.main(["cycle", "--spec", path, "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_digest


class TestUnconvergedSolveExits2:
    """An eigenvalue solve that does not converge, the first or the last of
    a run, exits 2 with numpy's message, not a traceback."""

    @pytest.mark.parametrize("command", ["pgm", "bounds"])
    @pytest.mark.parametrize("which", ["first", "last"])
    def test_exit_2(self, command, which, tmp_path, monkeypatch, capsys):
        e, v = it.random_instance(2, 2, 3, "mixed", 4)
        payload = _ensemble_payload(e)
        payload["measurement"] = {"elements": [_mat(el) for el in v.elements]}
        argv = [command, "--spec", _write(tmp_path, "p.json", payload)]
        calls = fail_solver(monkeypatch, "eigvalsh_lo", first=10**9)
        assert cli.main(argv) == 0
        assert len(calls) > 1
        monkeypatch.undo()
        fail_solver(monkeypatch, "eigvalsh_lo", first=0 if which == "first" else len(calls) - 1)
        capsys.readouterr()
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: eigendecomposition failed: Eigenvalues did not converge\n"

    @pytest.mark.parametrize("invalid", ["ignore", "warn", "raise"])
    def test_an_ascent_step_exits_2(self, invalid, tmp_path, monkeypatch, capsys):
        # a step's solve fails mid-ascent; whatever the caller's numpy
        # setting, the steps read its NaNs, and the run exits 2
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        argv = ["optimize", "--spec", path, "--method", "random_restart_ascent", "--restarts", "3"]
        calls = fail_solver(monkeypatch, "eigh_lo", first=5)
        with np.errstate(invalid=invalid):
            assert cli.main(argv) == 2
        assert len(calls) > 5
        captured = capsys.readouterr()
        assert captured.err == "error: eigendecomposition failed: Eigenvalues did not converge\n"


class TestPgm:
    def test_block_table(self, tmp_path, capsys):
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        rc = cli.main(["pgm", "--spec", path, "--max-m", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "m  per_letter_info  per_letter_delta_s  chi"
        assert lines[1].startswith("1  0.399123963")
        assert lines[2].startswith("2  0.399123963")

    def test_budget_exits_5(self, tmp_path):
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        assert cli.main(["pgm", "--spec", path, "--max-m", "6"]) == 5

    def test_csv(self, tmp_path, capsys):
        path = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        csv = tmp_path / "blocks.csv"
        assert cli.main(["pgm", "--spec", path, "--csv", str(csv)]) == 0
        capsys.readouterr()
        lines = csv.read_text().splitlines()
        assert lines[0] == "m,per_letter_info,per_letter_delta_s,chi"
        assert len(lines) == 4  # default max block length 3


def _ensemble_payload(e):
    return {"ensemble": {"priors": e.probs.tolist(), "states": [_mat(s.matrix) for s in e.states]}}


class TestPgmRunsEveryValidPair:
    # measuring the whole block used to fail the square-root measurement's
    # element checks on these pure qubit pairs (exit 2)
    def test_the_first_failing_pair(self, tmp_path, capsys):
        e, _ = it.random_instance(2, 2, 2, "pure", 3)
        path = _write(tmp_path, "p.json", _ensemble_payload(e))
        assert cli.main(["pgm", "--spec", path, "--max-m", "4"]) == 0
        capsys.readouterr()

    def test_a_hundred_pure_qubit_pairs_at_m_5(self, tmp_path, capsys):
        codes = []
        for seed in range(100):
            e, _ = it.random_instance(2, 2, 2, "pure", seed)
            path = _write(tmp_path, f"p{seed}.json", _ensemble_payload(e))
            codes.append(cli.main(["pgm", "--spec", path, "--max-m", "5"]))
        capsys.readouterr()
        assert codes == [0] * 100


class TestPgmBudget:
    ONE_DIMENSIONAL = {"ensemble": {"priors": [1.0], "states": [[[[1.0, 0.0]]]]}}

    @pytest.mark.parametrize(
        "pair, max_m, message",
        [
            ("qubit", "6", "sequence dimension 2^6 = 64 exceeds the cap 32"),
            ("qubit", "1000000000", "sequence dimension 2^6 = 64 exceeds the cap 32"),
            ("one-dimensional", "13", "block length 13: 2^13 exceeds the cap 4096"),
            ("one-dimensional", "1000000000", "block length 13: 2^13 exceeds the cap 4096"),
        ],
    )
    def test_exits_5_at_the_first_failing_length(self, pair, max_m, message, tmp_path, capsys):
        payload = (
            _two_state_payload(measurement=None) if pair == "qubit" else self.ONE_DIMENSIONAL
        )
        path = _write(tmp_path, "p.json", payload)
        start = time.perf_counter()
        assert cli.main(["pgm", "--spec", path, "--max-m", max_m]) == 5
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_one_dimensional_ensemble_below_the_budget(self, tmp_path, capsys):
        path = _write(tmp_path, "p.json", self.ONE_DIMENSIONAL)
        assert cli.main(["pgm", "--spec", path, "--max-m", "12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [f"{m}  0  0  0" for m in range(1, 13)]


class TestPgmCsv:
    # sha256 of `pgm --max-m 5 --csv` for a pure and a mixed qubit pair, as
    # the per-element measurement loops wrote it; the stacked kernels must
    # reproduce it byte for byte
    MIXED = {
        "ensemble": {
            "priors": [0.25, 0.75],
            "states": [
                _mat([[0.8, 0.1 - 0.2j], [0.1 + 0.2j, 0.2]]),
                _mat([[0.35, 0.25], [0.25, 0.65]]),
            ],
        }
    }

    @pytest.mark.parametrize(
        "pair, digest",
        [
            ("pure", "f893a10cbcb5a52fce5a3b2a9601e910c96a04588dceba15fa7e58639ca47ee9"),
            ("mixed", "0a497464a1319ff5e323bd00dfbbf18b52555b7d23160225b65a18187e05a72b"),
        ],
    )
    def test_csv_sha256_is_pinned(self, pair, digest, tmp_path, capsys):
        payload = _two_state_payload(measurement=None) if pair == "pure" else self.MIXED
        path = _write(tmp_path, "p.json", payload)
        csv = tmp_path / "blocks.csv"
        assert cli.main(["pgm", "--spec", path, "--max-m", "5", "--csv", str(csv)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


class TestSuite:
    def test_summary_and_exit_code(self, capsys):
        rc = cli.main(["suite", "--trials", "20", "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trials                   : 20" in out
        assert "I <= chi violations      : 0" in out
        assert "second-law violations    : 0" in out

    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["suite", "--trials", "25", "--seed", "3",
                         "--csv", str(a)]) == 0
        assert cli.main(["suite", "--trials", "25", "--seed", "3",
                         "--csv", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_workers_match_serial(self, tmp_path, capsys):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert cli.main(["suite", "--trials", "30", "--seed", "11",
                         "--csv", str(serial)]) == 0
        assert cli.main(["suite", "--trials", "30", "--seed", "11",
                         "--workers", "4", "--csv", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_different_seeds_differ(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["suite", "--trials", "10", "--seed", "1", "--csv", str(a)])
        cli.main(["suite", "--trials", "10", "--seed", "2", "--csv", str(b)])
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_commuting_kind_never_mixes(self, tmp_path, capsys):
        csv = tmp_path / "comm.csv"
        rc = cli.main(["suite", "--trials", "25", "--kind", "commuting",
                       "--seed", "5", "--csv", str(csv)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fraction delta_s > 1e-6  : 0" in out
        header, *rows = csv.read_text().splitlines()
        cols = header.split(",")
        i_ds = cols.index("delta_s")
        i_h, i_t = cols.index("holevo_slack"), cols.index("thermo_slack")
        for row in rows:
            parts = row.split(",")
            assert abs(float(parts[i_ds])) <= 1e-9
            assert abs(float(parts[i_t]) - float(parts[i_h])) <= 1e-9

    def test_csv_schema(self, tmp_path, capsys):
        csv = tmp_path / "rows.csv"
        cli.main(["suite", "--trials", "5", "--csv", str(csv)])
        capsys.readouterr()
        lines = csv.read_text().splitlines()
        assert lines[0] == (
            "trial,dim,n_states,m_outcomes,kind,projective,accessible_info,"
            "chi,delta_s,holevo_slack,thermo_slack,cycle_net"
        )
        assert len(lines) == 6

    def test_bad_dims_exit_2(self):
        assert cli.main(["suite", "--trials", "5", "--dims", "2,x"]) == 2
        assert cli.main(["suite", "--trials", "5", "--dims", "1"]) == 2

    def test_dims_above_the_cap_exit_2(self, capsys):
        assert cli.main(["suite", "--trials", "2", "--dims", "2,33"]) == 2
        assert f"cap {blockcoding.DIM_CAP}" in capsys.readouterr().err

    def test_dims_at_the_cap_run(self, capsys):
        assert cli.main(["suite", "--trials", "2", "--dims", "32"]) == 0
        capsys.readouterr()

    def test_bad_trials_exit_2(self):
        assert cli.main(["suite", "--trials", "0"]) == 2

    def test_negative_seed_exits_2(self, capsys):
        assert cli.main(["suite", "--trials", "2", "--seed", "-1"]) == 2
        assert "--seed must be nonnegative" in capsys.readouterr().err

    def test_unknown_kind_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            cli.main(["suite", "--kind", "thermal"])


def _count_calls(monkeypatch, original):
    """Wrap ``original`` under every name any infotherm module binds it to;
    returns the list that grows by one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for module in (it, quantum, measurement, bounds, thermo, blockcoding, cli):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def _count_decompositions(monkeypatch):
    """Wrap numpy's solvers eigh_lo and eigvalsh_lo, which every eigensolve
    of the package calls; returns [calls, matrices passed]."""
    counts = [0, 0]

    def counted(original):
        def wrapper(a, *args, **kwargs):
            counts[0] += 1
            counts[1] += int(np.prod(np.shape(a)[:-2]))
            return original(a, *args, **kwargs)

        return wrapper

    solvers = np.linalg._umath_linalg
    for name in ("eigh_lo", "eigvalsh_lo"):
        monkeypatch.setattr(solvers, name, counted(getattr(solvers, name)))
    return counts


def _count_factorisations(monkeypatch):
    """Wrap numpy's cholesky_lo, which certifies element stacks; returns
    [calls, matrices passed]."""
    counts, real = [0, 0], np.linalg._umath_linalg.cholesky_lo

    def wrapper(a, *args, **kwargs):
        counts[0] += 1
        counts[1] += int(np.prod(np.shape(a)[:-2]))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg._umath_linalg, "cholesky_lo", wrapper)
    return counts


def _csv_rows(path):
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


class TestSuiteBudget:
    """trials * (d^3 + SUITE_TRIAL_WORK), for the largest --dims d, against
    ``cli.SUITE_WORK_CAP``, checked before any draw."""

    @staticmethod
    def work(trials, d):
        return trials * (d**3 + cli.SUITE_TRIAL_WORK)

    def test_a_trillion_trials_exit_5_before_any_draw(self, monkeypatch, capsys):
        def draw(*args, **kwargs):
            raise AssertionError("the suite drew a trial")

        monkeypatch.setattr(suite_rng, "_trial_states", draw)
        monkeypatch.setattr(cli, "_pick", draw)
        monkeypatch.setattr(suite_rng, "_PickSource", draw)
        monkeypatch.setattr(suite_rng, "_generators", draw)
        monkeypatch.setattr(cli, "_random_instances", draw)
        start = time.perf_counter()
        assert cli.main(["suite", "--trials", "1000000000000"]) == 5
        assert time.perf_counter() - start <= 1.0
        err = capsys.readouterr().err
        assert f"suite work {self.work(10**12, 4)} " in err
        assert f"exceeds the cap {cli.SUITE_WORK_CAP}" in err

    def test_work_at_the_cap_runs_and_one_past_it_exits_5(self, monkeypatch, capsys):
        argv = ["suite", "--trials", "2", "--dims", "3,32"]
        monkeypatch.setattr(cli, "SUITE_WORK_CAP", self.work(2, 32))
        assert cli.main(argv) == 0
        monkeypatch.setattr(cli, "SUITE_WORK_CAP", self.work(2, 32) - 1)
        assert cli.main(argv) == 5
        capsys.readouterr()

    @pytest.mark.parametrize(
        "trials, d",
        [(600, 4), (200, 16), (260, 8), (2, 32)],
        ids=["seed-42 600 trials", "dims 5,8,16", "dims 5,8", "dims 32"],
    )
    def test_runs_in_use_are_admitted(self, trials, d):
        assert self.work(trials, d) <= cli.SUITE_WORK_CAP


class TestSuiteDecomposesEachMatrixOnce:
    def test_matrices_decomposed_equal_the_per_trial_sum(
        self, monkeypatch, tmp_path, capsys
    ):
        csv = tmp_path / "suite.csv"
        joints = _count_calls(monkeypatch, measurement.joint_distribution)
        tables = _count_calls(monkeypatch, measurement._joint_distributions)
        draws = _count_calls(monkeypatch, bounds._random_instances)
        analyses = _count_calls(monkeypatch, measurement._analyse_groups)
        chunk_dims = []
        real_score_chunk = cli._score_chunk

        def recording(chunk):
            chunk_dims.append({pick[2] for pick in chunk})
            return real_score_chunk(chunk)

        monkeypatch.setattr(cli, "_score_chunk", recording)
        counts = _count_decompositions(monkeypatch)
        factorisations = _count_factorisations(monkeypatch)
        assert cli.main(["suite", "--trials", "20", "--seed", "7", "--csv", str(csv)]) == 0
        capsys.readouterr()
        # the draw, the analysis and the joint tables run once a chunk,
        # whatever dimensions it holds, and none per trial
        assert joints == []
        assert len(chunk_dims) == len(draws) == len(analyses) == len(tables) == 1
        assert chunk_dims == [{2, 3, 4}]
        assert counts[0] <= 7 * 3
        expected, elements = 0, {}
        for row in _csv_rows(csv):
            n, m = int(row["n_states"]), int(row["m_outcomes"])
            # n states, m elements and the average state are each checked
            # once; a projective trial adds its dephased state, a general
            # one its raw-element sum, sqrt(rho) and the m record blocks.
            expected += n + m + 1 + (1 if row["projective"] == "true" else 2 + m)
            elements[row["dim"]] = elements.get(row["dim"], 0) + m
        # a dimension's element stack, if it holds enough elements, is
        # factorised in place of its eigensolve, every element certified
        stacks = [
            k for dim, k in elements.items() if k * int(dim) ** 2 >= measurement._CERTIFIED_ENTRIES
        ]
        assert stacks
        assert factorisations == [len(stacks), sum(stacks)]
        assert counts[1] == expected - sum(stacks)

    def test_calls_do_not_grow_with_the_trial_count(self, monkeypatch, capsys):
        calls = []
        for trials in (20, 200):
            counts = _count_decompositions(monkeypatch)
            factorisations = _count_factorisations(monkeypatch)
            # seed 0: its first 20 trials already hold a projective and a
            # general trial at every dimension, so both runs need every stack
            assert cli.main(["suite", "--trials", str(trials), "--seed", "0"]) == 0
            calls.append(counts[0] + factorisations[0])
            monkeypatch.undo()
        capsys.readouterr()
        # per dimension: states, elements (eigensolved or, in a stack of
        # enough entries, certified), raw-element sums, average states,
        # dephased states, sqrt(rho) and the record blocks; 7, as every
        # element of these draws is certified (an element the factorisation
        # leaves would add an 8th call, its eigensolve)
        assert calls[0] == calls[1] <= 7 * 3


def per_trial(scores):
    """A chunk's ``_Scores`` as one (row, holevo slack, thermo slack,
    delta_s, second-law flag) tuple a trial."""
    return list(zip(scores.rows, *(column.tolist() for column in scores[1:])))


class TestSuiteChunkPass:
    """A chunk runs each matrix kernel once per dimension it holds and every
    other stage once, and scores each trial as its dimension's trials
    alone would."""

    @staticmethod
    def chunk(seed, trials, dims):
        """The suite's picks for trials 0..trials-1, with their draw states."""
        pairs = suite_rng._trial_states(seed, trials)
        pickers = suite_rng._generators(pairs[:, 0])
        return [
            (t, *cli._pick(picker, dims, cli._KINDS), draw)
            for t, (picker, draw) in enumerate(zip(pickers, pairs[:, 1]))
        ]

    def test_a_chunk_scores_as_its_dimensions_alone(self):
        chunk = self.chunk(5, 30, [2, 3, 4])
        dims = [pick[2] for pick in chunk]
        assert set(dims) == {2, 3, 4} and dims != sorted(dims)
        alone = {}
        for dim in (2, 3, 4):
            sub = [pick for pick in chunk if pick[2] == dim]
            alone.update(zip((pick[0] for pick in sub), per_trial(cli._score_chunk(sub))))
        scores = per_trial(cli._score_chunk(chunk))
        # row, both slacks, delta_s and the second-law flag of each trial
        assert scores == [alone[t] for t in range(30)]
        assert len(scores[0]) == 5

    def test_flat_stages_run_once_a_chunk_and_kernels_once_a_dimension(
        self, monkeypatch, tmp_path, capsys
    ):
        flat = {
            name: _count_calls(monkeypatch, getattr(module, name))
            for module, name in (
                (bounds, "_random_instances"),
                (quantum, "_probability_checks"),
                (measurement, "_analyse_groups"),
                (measurement, "_joint_distributions"),
                (measurement, "_post_measurement_spectra"),
                (quantum, "_entropies"),
                (thermo, "_book_cycles"),
            )
        }
        kernels = {
            name: _count_calls(monkeypatch, getattr(module, name))
            for module, name in (
                (bounds, "_dimension_states"),
                (bounds, "_instance_elements"),
                (measurement, "_povm_flags"),
            )
        }
        rhos = _count_calls(monkeypatch, quantum._density_eigenvalues)
        chunk_dims = []
        real_score_chunk = cli._score_chunk

        def recording(chunk):
            chunk_dims.append({pick[2] for pick in chunk})
            return real_score_chunk(chunk)

        monkeypatch.setattr(cli, "_score_chunk", recording)
        monkeypatch.setattr(cli, "_CHUNK_ENTRIES", 600)
        eigensolves = _count_decompositions(monkeypatch)
        argv = ["suite", "--trials", "40", "--seed", "3", "--csv", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 0
        capsys.readouterr()
        present = sum(len(dims) for dims in chunk_dims)
        assert len(chunk_dims) > 2 and present > 2 * len(chunk_dims)
        assert {name: len(calls) for name, calls in flat.items()} == dict.fromkeys(
            flat, len(chunk_dims)
        )
        assert {name: len(calls) for name, calls in kernels.items()} == dict.fromkeys(
            kernels, present
        )
        # the states' and the average states' density checks
        assert len(rhos) == 2 * present
        assert eigensolves[0] <= 7 * present


class TestSuiteStageOrder:
    """Of several failing trials in a chunk, the first stage that fails
    raises, then its lowest failing dimension, then the lowest trial in it;
    a failing chunk exits 2 with that trial's error."""

    PICKS = [("commuting", 3, 2, 2), ("mixed", 2, 2, 3), ("commuting", 2, 3, 2)]
    # the commuting diagonals' and the priors' standard exponentials: each
    # corrupted row has one negative entry that its Dirichlet row keeps
    STATE_3 = "density matrix has eigenvalue -3.333e-01 below -1.0e-09"
    STATE_2 = "density matrix has eigenvalue -1.000e+00 below -1.0e-09"
    PRIOR_2 = "negative prior -1.000e+00"

    def corrupt(self, monkeypatch, trials):
        """Corrupt the draws of the given trials (by pick index)."""
        real = bounds._draw_instance
        bad = {self.PICKS[t][1:3] for t in trials}

        def draw(dim, n_states, m_outcomes, kind, rng):
            probs, states, unitary, raw = real(dim, n_states, m_outcomes, kind, rng)
            if (dim, n_states) in bad and kind == "commuting":
                states = states.copy()
                states[0] = [-0.5, 1.0, 1.0] if dim == 3 else [-0.5, 1.0]
            elif (dim, n_states) in bad:
                probs = np.array([-0.5, 1.0])
            return probs, states, unitary, raw

        monkeypatch.setattr(bounds, "_draw_instance", draw)

    def error(self, trials, monkeypatch):
        self.corrupt(monkeypatch, trials)
        chunk = [
            (t, kind, dim, n, m, state)
            for t, ((kind, dim, n, m), state) in enumerate(
                zip(self.PICKS, seed_states([[9, t] for t in range(3)]))
            )
        ]
        with pytest.raises(it.ValidationError) as info:
            cli._score_chunk(chunk)
        return str(info.value)

    def test_the_earliest_stage_raises_before_a_lower_dimension(self, monkeypatch):
        # trial 1 (d = 2) fails the prior check, trial 0 (d = 3) the states'
        # density check, which runs first for every dimension
        assert self.error([0, 1], monkeypatch) == self.STATE_3

    def test_in_one_stage_the_lowest_dimension_raises(self, monkeypatch):
        # trials 0 (d = 3) and 2 (d = 2) both fail the states' density check
        assert self.error([0, 2], monkeypatch) == self.STATE_2

    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_each_failure_alone(self, trial, monkeypatch):
        expected = (self.STATE_3, self.PRIOR_2, self.STATE_2)[trial]
        assert self.error([trial], monkeypatch) == expected

    def test_a_failing_chunk_exits_2(self, monkeypatch, capsys):
        self.corrupt(monkeypatch, [0, 1])
        picks = iter(self.PICKS)
        monkeypatch.setattr(cli, "_pick", lambda *args: next(picks))
        assert cli.main(["suite", "--trials", "2", "--seed", "9"]) == 2
        assert capsys.readouterr().err == f"error: {self.STATE_3}\n"


class TestSuiteBuildsNoLedgerEntries:
    # the suite reads only each cycle's net, so it books the rows and
    # formats no entry; run_cycle, as a control, builds them
    def test_a_suite_run_constructs_no_ledger_entry(self, monkeypatch, capsys):
        built = []
        real_init = thermo.LedgerEntry.__init__

        def counting(self, stage, *args):
            built.append(stage)
            real_init(self, stage, *args)

        monkeypatch.setattr(thermo.LedgerEntry, "__init__", counting)
        assert cli.main(["suite", "--trials", "20", "--seed", "3"]) == 0
        capsys.readouterr()
        assert built == []
        it.run_cycle(*it.random_instance(2, 2, 2, "pure", 0))
        assert built


class TestSuiteBuildsNoAverageStates:
    # the suite keeps each dimension group stacked from the draw to the
    # booking, so it builds no per-trial object at all: no state (checked
    # or a view), measurement, ensemble or joint table; drawing one pair,
    # analysing it and taking its joint table, as a control, builds each
    # of them
    BUILDERS = (
        quantum.DensityMatrix, measurement.Povm, quantum.Ensemble, measurement.JointDistribution
    )

    def count_builds(self, monkeypatch):
        built = []
        for cls in self.BUILDERS:
            real_init = cls.__init__
            real_checked = cls._checked.__func__

            def counting_init(obj, *args, _real=real_init, **kwargs):
                built.append(type(obj).__name__)
                _real(obj, *args, **kwargs)

            def counting_view(c, *args, _real=real_checked):
                built.append(c.__name__)
                return _real(c, *args)

            monkeypatch.setattr(cls, "__init__", counting_init)
            monkeypatch.setattr(cls, "_checked", classmethod(counting_view))
        return built

    def test_a_suite_run_builds_no_per_trial_object(self, monkeypatch, tmp_path, capsys):
        built = self.count_builds(monkeypatch)
        csv = tmp_path / "suite.csv"
        assert cli.main(["suite", "--trials", "50", "--seed", "42", "--csv", str(csv)]) == 0
        capsys.readouterr()
        assert len(_csv_rows(csv)) == 50
        assert built == []
        pair = it.random_instance(2, 2, 2, "pure", 0)
        assert set(built) == {"DensityMatrix", "Povm", "Ensemble"}
        # the one-pair analysis builds none either
        drawn = len(built)
        it.evaluate_bounds(*pair)
        assert len(built) == drawn
        it.joint_distribution(*pair)
        assert set(built) == {"DensityMatrix", "Povm", "Ensemble", "JointDistribution"}


class TestSuiteSecondLawPath:
    def test_a_violating_cycle_exits_3_and_keeps_the_bound_columns(
        self, monkeypatch, tmp_path, capsys
    ):
        real_book_cycles = thermo._book_cycles
        # the analysis holds the trials by dimension, each dimension's in
        # trial order
        # (built before the patch, which run_cycle in thermo would read too)
        reference = [reference_row(7, t, [2, 3, 4], cli._KINDS) for t in range(5)]
        dims = [int(row.split(",")[1]) for row in reference]
        k = sorted(range(5), key=lambda t: dims[t]).index(2)

        def violates_on_trial_2(a):
            # trial 2's cycle is booked as if undoing the dephasing were
            # free (its stacked sigma spectrum all zeros), so it nets
            # I + sum_i p_i S(rho_i) > 0
            start = int(a.sigma_sizes[:k].sum())
            sigma = a.sigma_spectra.copy()
            sigma[start:start + a.sigma_sizes[k]] = 0.0
            return real_book_cycles(a._replace(sigma_spectra=sigma))

        monkeypatch.setattr(thermo, "_book_cycles", violates_on_trial_2)
        csv = tmp_path / "suite.csv"
        rc = cli.main(["suite", "--trials", "5", "--seed", "7", "--csv", str(csv)])
        out = capsys.readouterr().out
        assert rc == 3
        assert "second-law violations    : 1" in out
        rows = _csv_rows(csv)
        assert [row["cycle_net"] == "nan" for row in rows] == [
            False, False, True, False, False
        ]
        row = rows[2]
        pair = it.random_instance(
            int(row["dim"]), int(row["n_states"]), int(row["m_outcomes"]), row["kind"], [7, 2, 1]
        )
        report = it.evaluate_bounds(*pair)
        for column, value in (
            ("accessible_info", report.accessible_info),
            ("chi", report.chi),
            ("delta_s", report.delta_s),
            ("holevo_slack", report.holevo_slack),
            ("thermo_slack", report.thermo_slack),
        ):
            assert row[column] == format(value, ".9g"), column
        # the other trials keep their nets
        for t in (0, 1, 3, 4):
            assert rows[t]["cycle_net"] == reference[t].split(",")[-1]


def reference_row(seed, trial, dims, kinds):
    """One suite row built per trial from the public API: the picker, then
    random_instance, then run_cycle (evaluate_bounds where the cycle raises)."""
    picker = np.random.default_rng([seed, trial, 0])
    kind = kinds[int(picker.integers(0, len(kinds)))]
    dim = dims[int(picker.integers(0, len(dims)))]
    n_states = int(picker.integers(2, 5))
    if kind == "commuting":
        m_outcomes = int(picker.integers(2, dim + 1))
    else:
        m_outcomes = int(picker.integers(2, 7))
    e, v = it.random_instance(dim, n_states, m_outcomes, kind, seed=[seed, trial, 1])
    try:
        ledger = it.run_cycle(e, v)
        info, chi, ds, net = ledger.i_ab, ledger.chi, ledger.delta_s, ledger.net_bits
    except SecondLawViolation:
        report = it.evaluate_bounds(e, v)
        info, chi, ds, net = report.accessible_info, report.chi, report.delta_s, float("nan")
    holevo_slack = chi - info
    cells = [trial, dim, n_states, m_outcomes, kind, "true" if v.projective else "false"]
    values = [info, chi, ds, holevo_slack, holevo_slack + ds, net]
    return ",".join([str(c) for c in cells] + [format(x, ".9g") for x in values])


class TestSuiteBatchInvariance:
    """The suite draws and analyses each chunk's trials in one stage-major
    pass, a stack per dimension for the matrix kernels and one for the
    rest; every row must equal, byte for byte, the row built per trial."""

    @staticmethod
    def assert_rows_match(tmp_path, seed, trials, dims, kind):
        csv = tmp_path / "suite.csv"
        cli.main(["suite", "--trials", str(trials), "--seed", str(seed), "--dims", dims,
                  "--kind", kind, "--csv", str(csv)])
        kinds = cli._KINDS if kind == "all" else (kind,)
        dim_list = [int(d) for d in dims.split(",")]
        expected = [reference_row(seed, t, dim_list, kinds) for t in range(trials)]
        assert csv.read_text().splitlines()[1:] == expected

    @pytest.mark.parametrize("dims", ["2,3,4", "5,8"])
    @pytest.mark.parametrize("kind", ["all", "pure", "mixed", "commuting"])
    @pytest.mark.parametrize("seed", [1, 42])
    def test_rows_equal_the_per_trial_rows(self, seed, kind, dims, tmp_path, capsys):
        self.assert_rows_match(tmp_path, seed, 24, dims, kind)
        capsys.readouterr()

    @pytest.mark.parametrize("seed", [3, 9])
    def test_rows_equal_across_small_chunks(self, seed, monkeypatch, tmp_path, capsys):
        chunks = []
        real_score_chunk = cli._score_chunk

        def recording(chunk):
            chunks.append(len(chunk))
            return real_score_chunk(chunk)

        monkeypatch.setattr(cli, "_score_chunk", recording)
        monkeypatch.setattr(cli, "_CHUNK_ENTRIES", 150)
        self.assert_rows_match(tmp_path, seed, 40, "2,3,4", "all")
        capsys.readouterr()
        assert sum(chunks) == 40 and len(chunks) > 5

    def test_rows_equal_across_full_size_chunks(self, monkeypatch, tmp_path, capsys):
        chunks = []
        real_score_chunk = cli._score_chunk

        def recording(chunk):
            chunks.append(len(chunk))
            return real_score_chunk(chunk)

        monkeypatch.setattr(cli, "_score_chunk", recording)
        self.assert_rows_match(tmp_path, 5, 260, "5,8", "all")
        capsys.readouterr()
        assert sum(chunks) == 260 and len(chunks) >= 2


class TestParserReuse:
    # main reads every argv with one parser, built once per process; each
    # call must still see only its own flags and its subcommand's defaults
    def test_suite_pgm_suite_see_only_their_own_arguments(self, monkeypatch, tmp_path, capsys):
        parser = cli._parser()
        assert cli._parser() is parser
        real_parse_args = parser.parse_args
        seen = []

        def recording(argv=None):
            args = real_parse_args(argv)
            seen.append(dict(vars(args)))
            return args

        monkeypatch.setattr(parser, "parse_args", recording)
        spec = _write(tmp_path, "p.json", _two_state_payload(measurement=None))
        csv = tmp_path / "suite.csv"
        argvs = [
            ["suite", "--trials", "3", "--seed", "5", "--kind", "pure", "--csv", str(csv)],
            ["pgm", "--spec", spec, "--max-m", "2"],
            ["suite", "--trials", "2", "--dims", "3"],
        ]
        assert cli.main(argvs[0]) == 0
        assert len(csv.read_text().splitlines()) == 4
        csv.unlink()
        assert cli.main(argvs[1]) == 0
        assert cli.main(argvs[2]) == 0
        out = capsys.readouterr().out
        assert not csv.exists()
        assert "trials                   : 3" in out and "trials                   : 2" in out
        assert seen == [
            {"command": "suite", "trials": 3, "dims": "2,3,4", "kind": "pure", "seed": 5,
             "workers": 1, "csv": str(csv), "func": cli.cmd_suite},
            {"command": "pgm", "spec": spec, "max_m": 2, "csv": None, "func": cli.cmd_pgm},
            {"command": "suite", "trials": 2, "dims": "3", "kind": "all", "seed": 42,
             "workers": 1, "csv": None, "func": cli.cmd_suite},
        ]
        assert seen == [vars(cli.build_parser().parse_args(argv)) for argv in argvs]


class TestSuiteSeed42Csv:
    @pytest.mark.parametrize(
        "trials, digest",
        [
            (100, "7fc56957cb9631380641eb0aaf5ec8b46dc1ca289b63cec4322b95be108849db"),
            (600, "a78ce94c4493efbfc124adece1dacee0c5bd1c6a9fbf2bfead83447438620357"),
        ],
    )
    def test_csv_sha256_is_pinned(self, trials, digest, tmp_path, capsys):
        csv = tmp_path / "suite.csv"
        assert cli.main(["suite", "--trials", str(trials), "--seed", "42",
                         "--csv", str(csv)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest

    ARGV = ["suite", "--trials", "100", "--seed", "42", "--csv"]

    def test_every_cell_matches_the_checked_in_table(self, tmp_path, capsys):
        # the value-level pin beside the byte pin
        csv = tmp_path / "suite.csv"
        assert cli.main(self.ARGV + [str(csv)]) == 0
        capsys.readouterr()
        self.assert_matches_the_table(csv)

    def test_the_table_holds_on_other_openblas_kernels(self, tmp_path):
        # the value table, where the bytes differ: each run in a child
        # process under another kernel of numpy's OpenBLAS, both at once
        # (OpenBLAS reads OPENBLAS_CORETYPE as it loads; a BLAS that is not
        # OpenBLAS ignores it, and the child runs as this process does)
        src = str(Path(it.__file__).resolve().parents[1])
        code = "import sys; from infotherm.cli import main; sys.exit(main(sys.argv[1:]))"
        children = {}
        for kernel in ("Haswell", "Prescott"):
            csv = tmp_path / f"{kernel}.csv"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": kernel}
            children[csv] = subprocess.Popen(
                [sys.executable, "-c", code, *self.ARGV, str(csv)], env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
        for csv, child in children.items():
            _, err = child.communicate(timeout=300)
            assert child.returncode == 0, err
            self.assert_matches_the_table(csv)

    @staticmethod
    def assert_matches_the_table(csv):
        """The label columns exactly and the six value columns to 1e-12
        absolute, so a last-bit change in a noise-level value passes and a
        wrong value does not."""
        table = Path(__file__).parent / "data" / "suite_seed42.csv"
        assert csv.read_text().splitlines()[0] == table.read_text().splitlines()[0]
        ours, pinned = _csv_rows(csv), _csv_rows(table)
        assert len(ours) == len(pinned) == 100
        labels, values = cli._SUITE_CSV_HEADER[:6], cli._SUITE_CSV_HEADER[6:]
        assert len(values) == 6
        assert [[row[c] for c in labels] for row in ours] == [
            [row[c] for c in labels] for row in pinned
        ]
        npt.assert_allclose(
            [[float(row[c]) for c in values] for row in ours],
            [[float(row[c]) for c in values] for row in pinned],
            rtol=0, atol=1e-12, equal_nan=True,
        )

    def test_csv_sha256_past_dimension_four_is_pinned(self, tmp_path, capsys):
        csv = tmp_path / "suite.csv"
        assert cli.main(["suite", "--trials", "200", "--seed", "42", "--dims", "5,8,16",
                         "--csv", str(csv)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "b0f4072a71a93327fb54183cbfb485c59daeb7ba8709a976529dc9a06f67e8dd"
        )
