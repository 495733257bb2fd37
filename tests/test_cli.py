import hashlib
import json
import time

import numpy as np
import pytest

import infotherm as it
from infotherm import blockcoding, bounds, cli, measurement, quantum, thermo
from infotherm.errors import SecondLawViolation


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

    @pytest.mark.parametrize("where", ["priors", "entry"])
    def test_booleans_are_not_numbers(self, tmp_path, where):
        payload = _two_state_payload()
        if where == "priors":
            payload["ensemble"]["priors"] = [True, False]
        else:
            payload["ensemble"]["states"][0][0][0] = [True, 0.0]
        path = _write(tmp_path, "bool.json", payload)
        assert cli.main(["bounds", "--spec", str(path)]) == 2


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
    """Wrap np.linalg.eigh and eigvalsh; returns [calls, matrices passed]."""
    counts = [0, 0]

    def counted(original):
        def wrapper(a, *args, **kwargs):
            counts[0] += 1
            counts[1] += int(np.prod(np.shape(a)[:-2]))
            return original(a, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    return counts


def _csv_rows(path):
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


class TestSuiteDecomposesEachMatrixOnce:
    def test_matrices_decomposed_equal_the_per_trial_sum(
        self, monkeypatch, tmp_path, capsys
    ):
        csv = tmp_path / "suite.csv"
        joints = _count_calls(monkeypatch, measurement.joint_distribution)
        counts = _count_decompositions(monkeypatch)
        assert cli.main(["suite", "--trials", "20", "--seed", "7", "--csv", str(csv)]) == 0
        capsys.readouterr()
        assert len(joints) == 20
        expected = 0
        for row in _csv_rows(csv):
            n, m = int(row["n_states"]), int(row["m_outcomes"])
            # n states, m elements and the average state are each checked
            # once; a projective trial adds its dephased state, a general
            # one its raw-element sum, sqrt(rho) and the m record blocks.
            expected += n + m + 1 + (1 if row["projective"] == "true" else 2 + m)
        assert counts[1] == expected

    def test_calls_do_not_grow_with_the_trial_count(self, monkeypatch, capsys):
        calls = []
        for trials in (20, 200):
            counts = _count_decompositions(monkeypatch)
            # seed 0: its first 20 trials already hold a projective and a
            # general trial at every dimension, so both runs need every stack
            assert cli.main(["suite", "--trials", str(trials), "--seed", "0"]) == 0
            calls.append(counts[0])
            monkeypatch.undo()
        capsys.readouterr()
        # per dimension: states, elements, raw-element sums, average states,
        # dephased states, sqrt(rho) and the record blocks
        assert calls[0] == calls[1] <= 7 * 3


class TestSuiteBuildsNoLedgerEntries:
    # the suite reads only each cycle's net, so it books the rows and
    # formats no entry; run_cycle, as a control, builds them
    def test_a_suite_run_constructs_no_ledger_entry(self, monkeypatch, capsys):
        built = []
        real_post_init = thermo.LedgerEntry.__post_init__

        def counting(self):
            built.append(self.stage)
            real_post_init(self)

        monkeypatch.setattr(thermo.LedgerEntry, "__post_init__", counting)
        assert cli.main(["suite", "--trials", "20", "--seed", "3"]) == 0
        capsys.readouterr()
        assert built == []
        it.run_cycle(*it.random_instance(2, 2, 2, "pure", 0))
        assert built


class TestSuiteSecondLawPath:
    def test_a_violating_cycle_exits_3_and_keeps_the_bound_columns(
        self, monkeypatch, tmp_path, capsys
    ):
        real_book_cycle = cli._book_cycle
        seen = []

        def violates_on_trial_2(e, v, a):
            seen.append((e, v))
            if len(seen) == 3:
                raise SecondLawViolation("forced for the test")
            return real_book_cycle(e, v, a)

        monkeypatch.setattr(cli, "_book_cycle", violates_on_trial_2)
        csv = tmp_path / "suite.csv"
        rc = cli.main(["suite", "--trials", "5", "--seed", "7", "--csv", str(csv)])
        out = capsys.readouterr().out
        assert rc == 3
        assert "second-law violations    : 1" in out
        rows = _csv_rows(csv)
        assert [row["cycle_net"] == "nan" for row in rows] == [
            False, False, True, False, False
        ]
        report = it.evaluate_bounds(*seen[2])
        for column, value in (
            ("accessible_info", report.accessible_info),
            ("chi", report.chi),
            ("delta_s", report.delta_s),
            ("holevo_slack", report.holevo_slack),
            ("thermo_slack", report.thermo_slack),
        ):
            assert rows[2][column] == format(value, ".9g"), column


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
    """The suite draws and analyses its trials as one stack per dimension
    and chunk; every row must equal, byte for byte, the row built per trial."""

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

        def recording(seed, chunk):
            chunks.append(len(chunk))
            return real_score_chunk(seed, chunk)

        monkeypatch.setattr(cli, "_score_chunk", recording)
        monkeypatch.setattr(cli, "_CHUNK_ENTRIES", 150)
        self.assert_rows_match(tmp_path, seed, 40, "2,3,4", "all")
        capsys.readouterr()
        assert sum(chunks) == 40 and len(chunks) > 5

    def test_rows_equal_across_full_size_chunks(self, monkeypatch, tmp_path, capsys):
        chunks = []
        real_score_chunk = cli._score_chunk

        def recording(seed, chunk):
            chunks.append(len(chunk))
            return real_score_chunk(seed, chunk)

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
