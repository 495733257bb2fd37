import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import infotherm as it
from infotherm import cli, measurement, thermo
from infotherm.errors import NonPositiveVolume, NumericalFailure, ValidationError
from infotherm.linops import WEIGHT_FLOOR

from conftest import (
    CHI_TWO_STATE,
    DS_COMPUTATIONAL,
    H_THREE_QUARTERS,
    INFO_COMPUTATIONAL,
    NET_COMPUTATIONAL,
    NET_HELSTROM,
    analyse,
    mixed_kind_instances,
    seed_states,
)


class TestWorkIsothermal:
    @pytest.mark.parametrize(
        "fraction, v0, v1, expected",
        [
            (1.0, 0.5, 1.0, 1.0),
            (0.25, 0.25, 1.0, 0.5),
            (1.0, 1.0, 1.0, 0.0),
            (0.5, 1.0, 0.5, -0.5),
            (0.0, 0.5, 1.0, 0.0),
        ],
    )
    def test_values(self, fraction, v0, v1, expected):
        npt.assert_allclose(it.work_isothermal(fraction, v0, v1), expected, atol=1e-12)

    def test_rejects_nonpositive_volumes(self):
        with pytest.raises(NonPositiveVolume):
            it.work_isothermal(0.5, 0.0, 1.0)
        with pytest.raises(NonPositiveVolume):
            it.work_isothermal(0.5, 1.0, -2.0)

    @pytest.mark.parametrize(
        "v0, v1", [(float("nan"), 0.5), (1.0, float("inf")), (float("inf"), 1.0)]
    )
    def test_rejects_non_finite_volumes(self, v0, v1):
        with pytest.raises(NonPositiveVolume, match="finite and positive"):
            it.work_isothermal(0.5, v0, v1)

    @pytest.mark.parametrize(
        "v0, v1, expected", [(1e300, 1e-300, -996.578428466), (1e-300, 1e300, 996.578428466)]
    )
    def test_volume_ratio_beyond_the_float_range(self, v0, v1, expected):
        npt.assert_allclose(it.work_isothermal(0.5, v0, v1), expected, rtol=0, atol=1e-9)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValidationError):
            it.work_isothermal(1.5, 0.5, 1.0)
        with pytest.raises(ValidationError):
            it.work_isothermal(-0.1, 0.5, 1.0)


class TestLedgerEntry:
    def test_rejects_unknown_stage(self):
        with pytest.raises(ValidationError):
            it.LedgerEntry("afterburner", "nope", 0.1)

    def test_isentropic_must_be_free(self):
        with pytest.raises(ValidationError):
            it.LedgerEntry(it.STAGE_ISENTROPIC, "rotate", 0.25)
        entry = it.LedgerEntry(it.STAGE_ISENTROPIC, "rotate", 0.0)
        assert entry.work_bits == 0.0


class TestExtractionStage:
    def test_orthogonal_states_pay_one_bit(self, orthogonal_ensemble, computational_basis):
        entries = it.extraction_stage(orthogonal_ensemble, computational_basis)
        npt.assert_allclose(it.stage_total(entries), 1.0, atol=1e-12)

    def test_two_state_computational(self, two_state_ensemble, computational_basis):
        entries = it.extraction_stage(two_state_ensemble, computational_basis)
        npt.assert_allclose(it.stage_total(entries), INFO_COMPUTATIONAL, atol=1e-9)

    def test_single_preparation_pays_nothing(self, computational_basis):
        e = it.Ensemble([1.0], (it.maximally_mixed(2),))
        entries = it.extraction_stage(e, computational_basis)
        npt.assert_allclose(it.stage_total(entries), 0.0, atol=1e-12)

    def test_all_entries_are_extraction(self, two_state_ensemble, computational_basis):
        entries = it.extraction_stage(two_state_ensemble, computational_basis)
        assert all(en.stage == it.STAGE_EXTRACTION for en in entries)


class TestSigmaToRhoStage:
    def test_identical_states_cost_nothing(self):
        r = it.maximally_mixed(2)
        entries = it.sigma_to_rho_stage(r, r)
        npt.assert_allclose(it.stage_total(entries), 0.0, atol=1e-12)

    def test_dephased_two_state(self, two_state_ensemble):
        rho = it.average_state(two_state_ensemble)
        sigma = it.DensityMatrix(np.diag([0.75, 0.25]))
        entries = it.sigma_to_rho_stage(sigma, rho)
        npt.assert_allclose(
            it.stage_total(entries), -DS_COMPUTATIONAL, atol=1e-9
        )
        # compression legs pay S(sigma), expansion legs recover S(rho)
        npt.assert_allclose(
            it.stage_total(entries, it.STAGE_SIGMA_COMPRESSION),
            -H_THREE_QUARTERS,
            atol=1e-9,
        )
        npt.assert_allclose(
            it.stage_total(entries, it.STAGE_RHO_EXPANSION),
            CHI_TWO_STATE,
            atol=1e-9,
        )

    def test_fully_mixed_to_pure_costs_one_bit(self):
        entries = it.sigma_to_rho_stage(
            it.maximally_mixed(2), it.pure_state([1.0, 0.0])
        )
        npt.assert_allclose(it.stage_total(entries), -1.0, atol=1e-12)

    def test_isentropic_legs_are_free(self):
        entries = it.sigma_to_rho_stage(
            it.maximally_mixed(2), it.pure_state([0.6, 0.8])
        )
        for en in entries:
            if en.stage == it.STAGE_ISENTROPIC:
                assert en.work_bits == 0.0


class TestRhoToInitialStage:
    def test_two_state_costs_chi(self, two_state_ensemble):
        entries = it.rho_to_initial_stage(two_state_ensemble)
        npt.assert_allclose(it.stage_total(entries), -CHI_TWO_STATE, atol=1e-9)

    def test_single_state_free(self):
        e = it.Ensemble([1.0], (it.maximally_mixed(3),))
        entries = it.rho_to_initial_stage(e)
        npt.assert_allclose(it.stage_total(entries), 0.0, atol=1e-12)

    def test_orthogonal_pair_costs_one_bit(self, orthogonal_ensemble):
        entries = it.rho_to_initial_stage(orthogonal_ensemble)
        npt.assert_allclose(it.stage_total(entries), -1.0, atol=1e-9)


class TestRunCycle:
    def test_computational_net(self, two_state_ensemble, computational_basis):
        led = it.run_cycle(two_state_ensemble, computational_basis)
        npt.assert_allclose(led.net_bits, NET_COMPUTATIONAL, atol=1e-9)
        npt.assert_allclose(led.i_ab, INFO_COMPUTATIONAL, atol=1e-9)
        npt.assert_allclose(led.chi, CHI_TWO_STATE, atol=1e-9)
        npt.assert_allclose(led.delta_s, DS_COMPUTATIONAL, atol=1e-9)

    def test_helstrom_net(self, two_state_ensemble, helstrom_basis):
        led = it.run_cycle(two_state_ensemble, helstrom_basis)
        npt.assert_allclose(led.net_bits, NET_HELSTROM, atol=1e-9)

    def test_orthogonal_cycle_breaks_even(self, orthogonal_ensemble, computational_basis):
        led = it.run_cycle(orthogonal_ensemble, computational_basis)
        npt.assert_allclose(led.net_bits, 0.0, atol=1e-9)

    def test_net_reconciles_with_entries(self, two_state_ensemble, helstrom_basis):
        led = it.run_cycle(two_state_ensemble, helstrom_basis)
        npt.assert_allclose(it.stage_total(led.entries), led.net_bits, atol=1e-12)

    def test_net_is_info_minus_costs(self, two_state_ensemble, computational_basis):
        led = it.run_cycle(two_state_ensemble, computational_basis)
        npt.assert_allclose(
            led.net_bits, led.i_ab - led.delta_s - led.chi, atol=1e-9
        )

    def test_stage_totals_match_entropies(self, two_state_ensemble, computational_basis):
        led = it.run_cycle(two_state_ensemble, computational_basis)
        npt.assert_allclose(
            it.stage_total(led.entries, it.STAGE_EXTRACTION),
            INFO_COMPUTATIONAL,
            atol=1e-9,
        )
        npt.assert_allclose(
            it.stage_total(led.entries, it.STAGE_SIGMA_COMPRESSION),
            -H_THREE_QUARTERS,
            atol=1e-9,
        )
        npt.assert_allclose(
            it.stage_total(led.entries, it.STAGE_RHO_EXPANSION),
            CHI_TWO_STATE,
            atol=1e-9,
        )
        npt.assert_allclose(
            it.stage_total(led.entries, it.STAGE_RHO_COMPRESSION),
            -CHI_TWO_STATE,
            atol=1e-9,
        )
        # pure preparations: nothing to recompress
        npt.assert_allclose(
            it.stage_total(led.entries, it.STAGE_ENSEMBLE_RECOMPRESSION),
            0.0,
            atol=1e-12,
        )

    def test_mixed_preparations_recompress(self):
        e = it.Ensemble(
            [0.5, 0.5],
            (it.maximally_mixed(2), it.pure_state([1.0, 0.0])),
        )
        v = it.basis_measurement(np.eye(2))
        led = it.run_cycle(e, v)
        npt.assert_allclose(
            it.stage_total(led.entries, it.STAGE_ENSEMBLE_RECOMPRESSION),
            0.5,
            atol=1e-9,
        )
        assert led.net_bits <= 1e-9

    def test_uninformative_coin_povm(self, two_state_ensemble):
        half = np.eye(2) / 2
        coin = it.Povm((half, half))
        led = it.run_cycle(two_state_ensemble, coin)
        npt.assert_allclose(led.i_ab, 0.0, atol=1e-12)
        npt.assert_allclose(led.delta_s, 1.0, atol=1e-9)
        npt.assert_allclose(led.net_bits, -1.0 - CHI_TWO_STATE, atol=1e-9)

    def test_general_povm_books_balance(self, two_state_ensemble):
        thirds = [
            np.array([np.cos(k * 2 * np.pi / 3), np.sin(k * 2 * np.pi / 3)])
            for k in range(3)
        ]
        trine = it.Povm(
            tuple((2.0 / 3.0) * np.outer(t, t.conj()) for t in thirds)
        )
        led = it.run_cycle(two_state_ensemble, trine)
        npt.assert_allclose(
            led.net_bits, led.i_ab - led.delta_s - led.chi, atol=1e-9
        )
        npt.assert_allclose(it.stage_total(led.entries), led.net_bits, atol=1e-12)
        assert led.net_bits <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_never_profit(self, seed):
        kind = ("pure", "mixed", "commuting")[seed % 3]
        e, v = it.random_instance(3, 3, 3, kind, seed)
        led = it.run_cycle(e, v)
        assert led.net_bits <= 1e-9
        npt.assert_allclose(
            led.net_bits, led.i_ab - led.delta_s - led.chi, atol=1e-9
        )

    @pytest.mark.parametrize("work", [float("nan"), float("inf")])
    def test_non_finite_net_is_a_numerical_failure(
        self, work, two_state_ensemble, computational_basis, monkeypatch
    ):
        # a NaN net would pass `net > CYCLE_TOL` and read as "second law OK";
        # every ratio's log comes out `work`, so every work and the net do
        monkeypatch.setattr(thermo, "log2", lambda ratio: work)
        with pytest.raises(NumericalFailure, match="net work"):
            it.run_cycle(two_state_ensemble, computational_basis)

    def test_non_finite_net_exits_2_from_cycle(self, monkeypatch, tmp_path, capsys):
        ket0 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        ket1 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        plus = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "ensemble": {"priors": [0.5, 0.5], "states": [ket0, plus]},
            "measurement": {"elements": [ket0, ket1]},
        }))
        monkeypatch.setattr(thermo, "log2", lambda ratio: float("nan"))
        assert cli.main(["cycle", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert "SECOND LAW OK" not in captured.out
        assert "net work" in captured.err

    def test_commuting_case_breaks_even_exactly(self):
        e, v = it.random_instance(4, 3, 4, "commuting", 11)
        led = it.run_cycle(e, v)
        npt.assert_allclose(led.net_bits, 0.0, atol=1e-9)
        npt.assert_allclose(led.delta_s, 0.0, atol=1e-9)


def _ledger_instances(kind):
    """The 5 seeded random instances of ``kind`` whose ledgers are pinned,
    with their seeds: projective and general measurements, d in {2, 3, 4}."""
    for seed in range(5):
        dim = 2 + seed % 3
        m = dim if kind == "commuting" else 2 + seed
        yield (seed, *it.random_instance(dim, 2 + seed % 3, m, kind, [seed, 8]))


class TestLedgerGolden:
    # sha256 of every (stage, description, work_bits) that run_cycle books
    # for 5 seeded random instances of each kind (projective and general
    # measurements, d in {2, 3, 4}), work as float.hex, so the text and the
    # bits of every entry are pinned
    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("pure", "2bf8bfb38d560625ea3e1d76020cbdb20619533c70f202f55e305a4c54c79f1e"),
            ("mixed", "5fbfcf356caf2c2d425883f667157d0506a36b5f0955738914fa128b70086be6"),
            ("commuting", "89a02304b198e9e986bddfcd72ca8a8e030cdd6cb1543cb8870a700436b95cff"),
        ],
    )
    def test_entries_are_pinned(self, kind, digest):
        lines = []
        for _, e, v in _ledger_instances(kind):
            for en in it.run_cycle(e, v).entries:
                lines.append(f"{en.stage}|{en.description}|{float(en.work_bits).hex()}")
            lines.append(f"proj {v.projective}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


class TestLedgerValues:
    """The value-level pin beside ``TestLedgerGolden``: the same instances'
    entries, their stage and text exactly and their work to 1e-10 bits,
    against ``data/ledger_entries.csv``, so that a last-bit change in a
    value (another BLAS kernel) passes and a wrong value does not."""

    def test_every_entry_matches_the_checked_in_table(self):
        with open(Path(__file__).parent / "data" / "ledger_entries.csv", newline="") as fh:
            pinned = list(csv.DictReader(fh))
        ours = [
            (kind, str(seed), en.stage, en.description, en.work_bits)
            for kind in ("pure", "mixed", "commuting")
            for seed, e, v in _ledger_instances(kind)
            for en in it.run_cycle(e, v).entries
        ]
        assert len(pinned) == len(ours) > 500
        assert [entry[:4] for entry in ours] == [
            (row["kind"], row["seed"], row["stage"], row["description"]) for row in pinned
        ]
        npt.assert_allclose(
            [entry[4] for entry in ours],
            [float(row["work_bits"]) for row in pinned],
            rtol=0,
            atol=1e-10,
        )


def _general_instances(count):
    """``count`` seeded random instances whose measurement is not projective."""
    found, seed = [], 0
    while len(found) < count:
        dim = 2 + seed % 3
        kind = ("pure", "mixed")[seed % 2]
        e, v = it.random_instance(dim, 2 + seed % 3, 2 + seed % 5, kind, seed)
        if not v.projective:
            found.append((seed, e, v))
        seed += 1
    return found


class TestSpectralLedger:
    def test_general_ledger_matches_the_record_state_ledger(self):
        # run_cycle books the return leg from spectra alone; the reference
        # books it from the (d*m)-dim record state and rho (x) |0><0|
        for seed, e, v in _general_instances(100):
            rho = it.average_state(e)
            ground = np.zeros((v.size, v.size))
            ground[0, 0] = 1.0
            reference = (
                it.extraction_stage(e, v)
                + it.sigma_to_rho_stage(
                    it.post_measurement_state(rho, v),
                    it.DensityMatrix(np.kron(rho.matrix, ground)),
                )
                + it.rho_to_initial_stage(e)
            )
            entries = it.run_cycle(e, v).entries
            assert [(en.stage, en.description) for en in entries] == [
                (en.stage, en.description) for en in reference
            ], f"seed {seed}"
            npt.assert_allclose(
                [en.work_bits for en in entries],
                [en.work_bits for en in reference],
                rtol=0,
                atol=1e-12,
                err_msg=f"seed {seed}",
            )


class TestSharedAnalysis:
    # run_cycle and evaluate_bounds read one analysis of the pair, so their
    # numbers agree exactly, and with the standalone public functions

    def test_cycle_and_bounds_report_identical_numbers(self):
        for seed, e, v in mixed_kind_instances(150):
            report = it.evaluate_bounds(e, v)
            ledger = it.run_cycle(e, v)
            assert ledger.i_ab == report.accessible_info, f"seed {seed}"
            assert ledger.chi == report.chi, f"seed {seed}"
            assert ledger.delta_s == report.delta_s, f"seed {seed}"
            assert it.holevo_chi(e) == report.chi, f"seed {seed}"
            assert (
                it.mutual_information(it.joint_distribution(e, v))
                == report.accessible_info
            ), f"seed {seed}"
            assert it.delta_s(it.average_state(e), v) == report.delta_s, f"seed {seed}"

    def test_stage_wrappers_book_the_cycle_entries(self):
        for seed, e, v in mixed_kind_instances(150):
            entries = list(it.run_cycle(e, v).entries)
            extraction = it.extraction_stage(e, v)
            rebuild = it.rho_to_initial_stage(e)
            assert entries[: len(extraction)] == extraction, f"seed {seed}"
            assert entries[len(entries) - len(rebuild):] == rebuild, f"seed {seed}"
            if v.projective:
                rho = it.average_state(e)
                middle = it.sigma_to_rho_stage(it.post_measurement_state(rho, v), rho)
                assert entries == extraction + middle + rebuild, f"seed {seed}"


def oracle_work(fraction, v_initial, v_final):
    """One row's work, booked on its own: f * log2(v_f / v_i), or the
    difference of the volumes' logs where the ratio leaves the float range."""
    ratio = v_final / v_initial
    if 0.0 < ratio < math.inf:
        return fraction * math.log2(ratio)
    return fraction * (math.log2(v_final) - math.log2(v_initial))


def oracle_rows(e, a):
    """(fraction, v_initial, v_final) of every cycle row with work, in ledger
    order, built one row at a time from the pair's one-pair analysis."""
    floor = WEIGHT_FLOOR
    rows = [(p, p, 1.0) for p in e.probs.tolist() if p > floor]
    table = a.by_outcome.reshape(-1, e.size).T.tolist()
    for j, q in enumerate(a.outcome_probs.tolist()):
        if q <= floor:
            continue
        for i in range(e.size):
            cond = table[i][j] / q
            if cond > floor:
                rows.append((q * cond, q, cond * q))
    sigma = a.sigma_spectra.tolist()
    rho = a.rho_spectra.tolist()
    rows += [(c, 1.0, c) for c in sigma if c > floor]
    padded = [0.0] * (len(sigma) - len(rho)) + rho
    rows += [(lam, lam, 1.0) for lam in padded if lam > floor]
    rows += [(lam, 1.0, lam) for lam in rho if lam > floor]
    for p, spectrum in zip(e.probs.tolist(), a.member_spectra.reshape(e.size, -1)):
        if p > floor:
            rows += [(p * mu, mu * p, p) for mu in spectrum.tolist() if mu > floor]
    return rows


def oracle_net(rows):
    net = 0.0
    for row in rows:
        net += oracle_work(*row)
    return net


def booked_works(booking, k):
    """Pair k's booked works, live terms only, in ledger order: the pair is
    the k-th of the segments' own order, booked in row k."""
    out = []
    for s, start in zip(booking.segments, booking.starts[k]):
        first = int(s.counts[:k].sum())
        live = np.flatnonzero(s.live[first:first + s.counts[k]])
        out += booking.works[k, start + live].tolist()
    return out


def floor_pairs():
    """Pairs whose weights sit on the edges of the ledger's masks: a zero
    prior, an all-zero outcome column, and priors (so also outcome
    probabilities and rho eigenvalues) at WEIGHT_FLOOR and one ulp above."""
    basis3 = it.basis_measurement(np.eye(3))
    kets = [it.pure_state(row) for row in np.eye(3)]
    above = np.nextafter(WEIGHT_FLOOR, 1.0)
    mixed = it.DensityMatrix(np.diag([0.5, 0.5, 0.0]))
    return [
        (it.Ensemble([0.5, 0.5, 0.0], tuple(kets)), basis3),
        (it.Ensemble([0.5, 0.5], (kets[0], mixed)), basis3),
        (it.Ensemble([WEIGHT_FLOOR, above, 1.0 - WEIGHT_FLOOR - above], tuple(kets)), basis3),
        (it.Ensemble([above, 1.0 - above], (kets[0], mixed)), basis3),
    ]


def kernel_pairs():
    """Seeded pairs of every kind at d = 2..5, general and projective, then
    the floor pairs."""
    pairs = []
    for seed in range(48):
        kind = ("pure", "mixed", "commuting")[seed % 3]
        dim = 2 + (seed // 3) % 4
        m = dim if kind == "commuting" else 2 + seed % 5
        pairs.append(it.random_instance(dim, 1 + seed % 4, m, kind, [seed, 13]))
    return pairs + floor_pairs()


class TestStackedBooking:
    def test_the_pairs_cover_both_kinds_of_measurement(self):
        flags = {v.projective for _, v in kernel_pairs()}
        assert flags == {True, False}

    def test_the_floor_pairs_book_exactly_the_rows_above_the_floor(self):
        # the weights at WEIGHT_FLOOR get no row, the ones an ulp above do
        for e, v in floor_pairs():
            a = analyse([(e, v)])
            assert len(it.run_cycle(e, v).entries) == len(oracle_rows(e, a)) + 3
        e, v = floor_pairs()[2]
        assert [en.description for en in it.extraction_stage(e, v)][:1] == [
            "preparation 1: expand from volume 1e-15 to 1"
        ]

    def test_one_pair_works_equal_the_per_row_oracle(self):
        for e, v in kernel_pairs():
            a = analyse([(e, v)])
            rows = oracle_rows(e, a)
            ledger = it.run_cycle(e, v)
            free = [en.description.startswith(("attach", "rotate")) for en in ledger.entries]
            works = [en.work_bits for en, no_work in zip(ledger.entries, free) if not no_work]
            assert sum(free) == 3
            assert [float(w).hex() for w in works] == [oracle_work(*row).hex() for row in rows]
            assert ledger.net_bits.hex() == oracle_net(rows).hex()

    def test_a_chunk_of_mixed_shapes_books_each_pair_as_the_oracle(self):
        # one group a dimension, analysed as one record and each pair booked
        # in its own row, in the record's order, as the suite books; the
        # oracle reads each pair's one-pair analysis
        pairs = kernel_pairs()
        analyses = [analyse([(e, v)]) for e, v in pairs]
        groups, order = [], []
        for dim in sorted({e.dim for e, _ in pairs}):
            ks = [k for k, (e, _) in enumerate(pairs) if e.dim == dim]
            groups.append(measurement._group([pairs[k] for k in ks]))
            order += ks
        assert order != sorted(order)
        booking = thermo._book_cycles(measurement._analyse_groups(groups))
        assert booking.works.shape[0] == len(pairs)
        for row, k in enumerate(order):
            expected = oracle_rows(pairs[k][0], analyses[k])
            assert [w.hex() for w in booked_works(booking, row)] == [
                oracle_work(*term).hex() for term in expected
            ], f"pair {k}"
            assert float(booking.nets[row]).hex() == oracle_net(expected).hex(), f"pair {k}"

    def test_kernel_rows_book_as_the_oracle(self):
        rows = [
            [(0.5, 1e300, 1e-300), (0.25, 0.25, 1.0), (1.0, 0.5, 1.0)],
            [(0.5, 1e-300, 1e300), (0.0, 0.5, 1.0), (0.3, 0.7, 0.2)],
            [(1e-320, 0.3, 0.1), (0.7, 1.0, 0.7), (0.125, 1.0, 1.0)],
        ]
        fractions, v_initial, v_final = np.moveaxis(np.array(rows), 2, 0)
        works, nets = thermo._book(
            fractions, v_initial, v_final, np.ones(fractions.shape, dtype=bool)
        )
        for k, row in enumerate(rows):
            expected = [0.0 if f == 0.0 else oracle_work(f, a, b) for f, a, b in row]
            assert [w.hex() for w in works[k].tolist()] == [w.hex() for w in expected]
            assert float(nets[k]).hex() == oracle_net(
                [r for r in row if r[0] != 0.0]
            ).hex()
        assert it.work_isothermal(0.5, 1e300, 1e-300) == oracle_work(0.5, 1e300, 1e-300)

    def test_padding_books_nothing_and_is_not_checked(self):
        live = np.array([[True, False]])
        works, nets = thermo._book(
            np.array([[0.5, 7.0]]), np.array([[0.25, -1.0]]), np.array([[1.0, 0.0]]), live
        )
        assert works.tolist() == [[1.0, 0.0]]
        assert nets.tolist() == [1.0]

    def test_the_first_bad_term_of_the_lowest_row_raises(self):
        fractions = np.array([[0.5, 0.5, 1.5], [0.5, 2.0, 0.5]])
        v_initial = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        v_final = np.ones((2, 3))
        live = np.ones((2, 3), dtype=bool)
        with pytest.raises(ValidationError, match=r"^molecule fraction 1\.5 outside"):
            thermo._book(fractions, v_initial, v_final, live)
        with pytest.raises(ValidationError, match=r"^molecule fraction 2\.0 outside"):
            thermo._book(fractions[1:], v_initial[1:], v_final[1:], live[1:])
        # a term's volumes are checked before its fraction
        with pytest.raises(NonPositiveVolume, match=r"got 0\.0 -> 1\.0$"):
            thermo._book(fractions[1:, 2:], v_initial[1:, 2:], v_final[1:, 2:], live[1:, 2:])


class TestSuiteChunkBooking:
    # trial 1 (d = 3) comes before trial 2 (d = 2) in the chunk, but after
    # it in the per-dimension analysis and booking order
    PICKS = [
        (0, "mixed", 2, 2, 2),
        (1, "mixed", 3, 3, 2),
        (2, "mixed", 2, 3, 3),
        (3, "pure", 3, 2, 4),
        (4, "commuting", 2, 2, 2),
    ]
    # each pick carries its draw generator's state, as the suite's do
    CHUNK = [
        (*pick, state)
        for pick, state in zip(PICKS, seed_states([5, pick[0], 1] for pick in PICKS))
    ]

    @staticmethod
    def alone(trial, kind, dim, n, m):
        """A chunk trial drawn and analysed on its own."""
        e, v = it.random_instance(dim, n, m, kind, [5, trial, 1])
        return e, analyse([(e, v)])

    @pytest.mark.parametrize("first, second", [("nan", "inf"), ("inf", "nan")])
    def test_the_lowest_non_finite_trial_raises(self, first, second, monkeypatch):
        # every ratio that is one of trial 1's (2's) sigma eigenvalues logs
        # to `first` (`second`), so only those two nets go non-finite; as in
        # every earlier stage, the lowest dimension's failing trial, trial 2
        # (d = 2), raises before trial 1 (d = 3)
        targets = {}
        for trial, value in ((2, second), (1, first)):
            _, a = self.alone(*self.PICKS[trial])
            targets.update((c, float(value)) for c in a.sigma_spectra.tolist() if c > WEIGHT_FLOOR)
        others = {
            row[2] / row[1]
            for pick in self.PICKS
            if pick[0] not in (1, 2)
            for row in oracle_rows(*self.alone(*pick))
        }
        assert not others & set(targets)
        monkeypatch.setattr(thermo, "log2", lambda r: targets.get(r, math.log2(r)))
        with pytest.raises(NumericalFailure, match=rf"came out {second}$"):
            cli._score_chunk(self.CHUNK)

    def test_a_chunk_books_its_trials_as_each_alone(self):
        scores = cli._score_chunk(self.CHUNK)
        for k, trial in enumerate(self.CHUNK):
            alone = cli._score_chunk([trial])
            assert alone.rows == [scores.rows[k]]
            assert alone.second_law_ok.tolist() == [scores.second_law_ok[k]]
            for slacks in ("holevo_slacks", "thermo_slacks"):
                assert getattr(alone, slacks).tolist() == [getattr(scores, slacks)[k]]

    def test_a_suite_op_calls_no_per_row_booking(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(thermo, "work_isothermal", lambda *args: calls.append(args))
        assert cli.main(["suite", "--trials", "50", "--csv", str(tmp_path / "s.csv")]) == 0
        assert calls == []
