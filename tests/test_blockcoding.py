import time

import numpy as np
import numpy.testing as npt
import pytest

import infotherm as it
from infotherm import blockcoding, quantum
from infotherm.blockcoding import DIM_CAP
from infotherm.errors import BudgetExceeded, ValidationError

from conftest import CHI_TWO_STATE, INFO_HELSTROM, analyse, count_eighs


class TestSequenceEnsemble:
    def test_length_one_is_the_ensemble_itself(self, two_state_ensemble):
        seq = it.sequence_ensemble(two_state_ensemble, 1)
        npt.assert_allclose(seq.probs, two_state_ensemble.probs, atol=1e-15)
        for a, b in zip(seq.states, two_state_ensemble.states):
            npt.assert_allclose(a.matrix, b.matrix, atol=1e-15)

    def test_length_two_products(self, two_state_ensemble):
        seq = it.sequence_ensemble(two_state_ensemble, 2)
        assert seq.size == 4 and seq.dim == 4
        npt.assert_allclose(seq.probs, [0.25] * 4, atol=1e-15)
        first = two_state_ensemble.states[0].matrix
        second = two_state_ensemble.states[1].matrix
        npt.assert_allclose(
            seq.states[1].matrix, it.tensor_product(first, second), atol=1e-15
        )

    def test_average_state_factorizes(self, two_state_ensemble):
        rho = it.average_state(two_state_ensemble).matrix
        seq = it.sequence_ensemble(two_state_ensemble, 2)
        npt.assert_allclose(
            it.average_state(seq).matrix,
            it.tensor_product(rho, rho),
            atol=1e-12,
        )

    def test_entropy_is_additive(self, two_state_ensemble):
        seq = it.sequence_ensemble(two_state_ensemble, 3)
        npt.assert_allclose(
            it.von_neumann_entropy(it.average_state(seq)),
            3 * CHI_TWO_STATE,
            atol=1e-9,
        )

    def test_dimension_budget(self, two_state_ensemble):
        with pytest.raises(BudgetExceeded):
            it.sequence_ensemble(two_state_ensemble, 6)  # 2^6 = 64 > 32

    def test_sequence_budget(self):
        e, _ = it.random_instance(2, 6, 2, "pure", 5)
        with pytest.raises(BudgetExceeded):
            it.sequence_ensemble(e, 5)  # 2^5 = 32 dims, but 6^5 = 7776 > 4096

    def test_one_dimensional_ensemble_is_budgeted(self):
        # one state of dimension 1 trips neither cap, so 2^m > SEQUENCE_CAP
        # bounds it, checked from m before any product is built
        e = it.Ensemble([1.0], (it.DensityMatrix([[1.0]]),))
        assert it.sequence_ensemble(e, 12).size == 1
        for m in (13, 10**9):
            start = time.perf_counter()
            message = rf"block length {m}: 2\^{m} exceeds the cap 4096"
            with pytest.raises(BudgetExceeded, match=message):
                it.sequence_ensemble(e, m)
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("m", [6, 100, 14284, 14285, 10**6, 10**9])
    def test_any_length_is_budgeted_in_a_second(self, m):
        # d^m keeps its value in the message while an int prints it (2^14284
        # has 4300 digits, the default limit); past that, only d^m is named
        e, _ = it.random_instance(2, 2, 2, "pure", 1)
        power = f"2^{m} = {2**m}" if m <= 14284 else f"2^{m}"
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as caught:
            it.sequence_ensemble(e, m)
        assert time.perf_counter() - start < 1.0
        assert str(caught.value) == f"sequence dimension {power} exceeds the cap 32"

    @pytest.mark.parametrize("m", [5, 14284, 10**9])
    def test_sequence_count_message_at_any_length(self, m):
        e = it.Ensemble([1 / 6] * 6, tuple(it.DensityMatrix([[1.0]]) for _ in range(6)))
        # 6^m has fewer digits than 4300 up to m = 5525
        power = f"6^{m} = {6**m}" if m <= 5525 else f"6^{m}"
        with pytest.raises(BudgetExceeded) as caught:
            it.sequence_ensemble(e, m)
        assert str(caught.value) == f"sequence count {power} exceeds the cap 4096"

    @pytest.mark.parametrize("m", [2.5, 2.0, True])
    def test_rejects_a_length_that_is_not_an_integer(self, two_state_ensemble, m):
        with pytest.raises(ValidationError, match="^m must be an integer, got "):
            blockcoding.sequence_ensemble(two_state_ensemble, m)

    @pytest.mark.parametrize("m_max", [2.5, 2.0, True])
    def test_block_scan_rejects_a_length_that_is_not_an_integer(self, two_state_ensemble, m_max):
        with pytest.raises(ValidationError, match="^m_max must be an integer, got "):
            blockcoding.block_scan(two_state_ensemble, m_max)

    def test_rejects_zero_length(self, two_state_ensemble):
        with pytest.raises(ValidationError):
            it.sequence_ensemble(two_state_ensemble, 0)

    def test_cap_comparison_matches_multiplying_up(self):
        def multiplied_up(base, m, cap):
            power = 1
            for _ in range(m if base > 1 else 0):
                power *= base
                if power > cap:
                    return True
            return False

        for base in range(70):
            for m in [*range(40), 14284, 14285, 10**6]:
                for cap in (1, 2, 7, 32, 4096):
                    assert blockcoding._exceeds(base, m, cap) == multiplied_up(base, m, cap)


class TestPrettyGoodMeasurement:
    def test_orthogonal_states_give_projectors(self, orthogonal_ensemble):
        povm = it.pretty_good_measurement(orthogonal_ensemble)
        assert povm.projective and povm.size == 2
        npt.assert_allclose(povm.elements[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_single_pure_state_appends_kernel(self):
        e = it.Ensemble([1.0], (it.pure_state([1.0, 0.0]),))
        povm = it.pretty_good_measurement(e)
        assert povm.size == 2
        npt.assert_allclose(povm.elements[0], np.diag([1.0, 0.0]), atol=1e-12)
        npt.assert_allclose(povm.elements[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_full_rank_single_state_is_identity(self):
        e = it.Ensemble([1.0], (it.maximally_mixed(3),))
        povm = it.pretty_good_measurement(e)
        assert povm.size == 1
        npt.assert_allclose(povm.elements[0], np.eye(3), atol=1e-12)

    def test_two_state_discrimination(self, two_state_ensemble):
        povm = it.pretty_good_measurement(two_state_ensemble)
        assert povm.size == 2  # full-rank average, no kernel element
        info = it.mutual_information(
            it.joint_distribution(two_state_ensemble, povm)
        )
        # square-root measurement of two equiprobable pure states is the
        # optimal one, so it reaches the single-copy maximum
        npt.assert_allclose(info, INFO_HELSTROM, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_ensembles_give_valid_povms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        e, _ = it.random_instance(3, n, 2, "mixed", seed)
        povm = it.pretty_good_measurement(e)
        total = sum(povm.elements)
        npt.assert_allclose(total, np.eye(3), atol=1e-8)

    def test_rank_deficient_average_gets_kernel(self):
        e = it.Ensemble(
            [0.5, 0.5],
            (it.pure_state([1, 0, 0]), it.pure_state([0, 1, 0])),
        )
        povm = it.pretty_good_measurement(e)
        assert povm.size == 3
        npt.assert_allclose(povm.elements[2], np.diag([0, 0, 1.0]), atol=1e-12)


class TestBlockScanDecomposesOnce:
    """``block_scan`` takes rho's eigendecomposition once, for rho^-1/2,
    the kernel projector and the record route's sqrt(rho), and three
    eigenvalue solves: rho's density check, the measurement's element check
    and the post-measurement spectrum."""

    @pytest.mark.parametrize(
        "dim, kind, projective",
        [(2, "mixed", False), (2, "pure", True), (3, "pure", True)],
    )
    def test_one_eigh_a_scan(self, monkeypatch, dim, kind, projective):
        e, _ = it.random_instance(dim, 2, 2, kind, 4)
        rho = quantum.average_state(e)
        povm = blockcoding._pretty_good_measurement(e, rho)
        assert povm.projective == projective
        # a pure pair in three dimensions leaves a kernel, whose projector
        # is the measurement's last element
        assert povm.size == (3 if dim == 3 else 2)
        calls = count_eighs(monkeypatch)
        spectra = count_eighs(monkeypatch, "eigvalsh_lo")
        reports = it.block_scan(e, 3)
        assert (len(calls), len(spectra)) == (1, 3)
        monkeypatch.undo()
        assert reports == it.block_scan(e, 3)


class TestBlockReport:
    def test_rejects_info_above_ceiling(self):
        with pytest.raises(ValidationError):
            it.BlockReport(
                m=1,
                per_letter_info=0.7,
                per_letter_delta_s=0.1,
                chi=0.6,
                sequence_count=2,
            )

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            it.BlockReport(
                m=0, per_letter_info=0.1, per_letter_delta_s=0.0,
                chi=0.6, sequence_count=2,
            )


class TestBlockScan:
    def test_two_state_scan(self, two_state_ensemble):
        reports = it.block_scan(two_state_ensemble, 3)
        assert [r.m for r in reports] == [1, 2, 3]
        assert [r.sequence_count for r in reports] == [2, 4, 8]
        for r in reports:
            npt.assert_allclose(r.chi, CHI_TWO_STATE, atol=1e-12)
            assert r.per_letter_info <= r.chi + 1e-9
            # single-copy ceiling with the entropy credit added back in
            assert (
                r.per_letter_info
                <= r.chi + r.per_letter_delta_s + 1e-9
            )

    def test_product_measurement_plateau(self, two_state_ensemble):
        # the square-root measurement of a product ensemble factorizes, so
        # blocks of independent letters gain nothing over single copies
        reports = it.block_scan(two_state_ensemble, 3)
        values = [r.per_letter_info for r in reports]
        npt.assert_allclose(values, [INFO_HELSTROM] * 3, atol=1e-9)
        credits = [r.per_letter_delta_s for r in reports]
        npt.assert_allclose(credits, [credits[0]] * 3, atol=1e-9)

    def test_mixed_pair_at_the_dimension_cap(self):
        # m = 5 gives 32-dim sequence states, the DIM_CAP; the mixed pair's
        # square-root measurement is general, so delta_s takes the spectral
        # route instead of a 1024-dim record state
        e = it.Ensemble(
            [0.4, 0.6],
            (
                it.DensityMatrix([[0.8, 0.1], [0.1, 0.2]]),
                it.DensityMatrix([[0.35, -0.2j], [0.2j, 0.65]]),
            ),
        )
        assert 2**5 == DIM_CAP
        assert not it.pretty_good_measurement(e).projective
        reports = it.block_scan(e, 5)
        assert [r.m for r in reports] == [1, 2, 3, 4, 5]
        npt.assert_allclose(
            [r.per_letter_info for r in reports],
            [reports[0].per_letter_info] * 5,
            rtol=0,
            atol=1e-8,
        )
        npt.assert_allclose(
            [r.per_letter_delta_s for r in reports],
            [reports[0].per_letter_delta_s] * 5,
            rtol=0,
            atol=1e-8,
        )

    def test_budget_propagates(self, two_state_ensemble):
        with pytest.raises(BudgetExceeded):
            it.block_scan(two_state_ensemble, 6)

    def test_sequence_budget_names_the_first_failing_length(self):
        e, _ = it.random_instance(2, 6, 2, "pure", 5)
        with pytest.raises(BudgetExceeded, match=r"sequence count 6\^5 = 7776 exceeds the cap 4096"):
            it.block_scan(e, 5)  # 2^5 = 32 dims pass DIM_CAP

    def test_one_dimensional_ensemble_is_budgeted(self):
        # no cap trips for one state of dimension 1, so 2^m > SEQUENCE_CAP
        # bounds the scan, checked from m alone
        e = it.Ensemble([1.0], (it.DensityMatrix([[1.0]]),))
        assert len(it.block_scan(e, 12)) == 12
        with pytest.raises(BudgetExceeded, match=r"block length 13: 2\^13 exceeds the cap 4096"):
            it.block_scan(e, 10**9)

    def test_rejects_zero_m_max(self, two_state_ensemble):
        with pytest.raises(ValidationError):
            it.block_scan(two_state_ensemble, 0)

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_one_average_state_serves_measurement_and_analysis(self, kind, monkeypatch):
        e, _ = it.random_instance(3, 3, 2, kind, 4)
        a = analyse([(e, it.pretty_good_measurement(e))])
        built = []

        def counted(ens):
            built.append(ens)
            return quantum.average_state(ens)

        monkeypatch.setattr(blockcoding, "average_state", counted)
        reports = it.block_scan(e, 2)
        assert built == [e]
        for r in reports:
            assert (r.per_letter_info, r.per_letter_delta_s, r.chi) == (a.info, a.delta_s, a.chi)

    def test_orthogonal_scan_saturates(self, orthogonal_ensemble):
        reports = it.block_scan(orthogonal_ensemble, 2)
        for r in reports:
            npt.assert_allclose(r.per_letter_info, 1.0, atol=1e-9)
            npt.assert_allclose(r.per_letter_delta_s, 0.0, atol=1e-9)


def brute_force_block(e, m):
    """Per-letter I and delta_s of the length-m block measured as one
    ensemble: its n^m product states and its d^m-dim square-root
    measurement."""
    seq = it.sequence_ensemble(e, m)
    povm = it.pretty_good_measurement(seq)
    info = it.mutual_information(it.joint_distribution(seq, povm))
    return info / m, it.delta_s(it.average_state(seq), povm) / m


class TestBlockScanAgainstTheBruteForce:
    # block_scan reads every block's values off the single letter; the
    # brute force measures the whole block and must agree per letter
    @pytest.mark.parametrize("kind", ["pure", "mixed", "commuting"])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_per_letter_values_equal_the_brute_force(self, kind, dim):
        for seed in range(40):
            e, _ = it.random_instance(dim, dim, 2, kind, seed)
            reports = it.block_scan(e, 2)
            for r in reports:
                info, ds = brute_force_block(e, r.m)
                assert abs(r.per_letter_info - info) <= 1e-9, (seed, r.m)
                assert abs(r.per_letter_delta_s - ds) <= 1e-9, (seed, r.m)
                npt.assert_allclose(r.chi, it.holevo_chi(e), rtol=0, atol=1e-12)

    # The brute force takes 1/sqrt of near-kernel eigenvalues of the block's
    # average state, which magnifies rounding past the element checks: pure
    # ensembles with d = 3 or 4 states of dimension d hit this even at m = 2
    # (these four of seeds 0-199), where block_scan needs no such inverse.
    @pytest.mark.parametrize("dim, seed", [(3, 125), (3, 149), (4, 126), (4, 178)])
    def test_brute_force_breaks_where_the_scan_does_not(self, dim, seed):
        e, _ = it.random_instance(dim, dim, 2, "pure", seed)
        with pytest.raises(ValidationError, match="element"):
            brute_force_block(e, 2)
        reports = it.block_scan(e, 2)
        info, ds = brute_force_block(e, 1)
        for r in reports:
            assert abs(r.per_letter_info - info) <= 1e-9
            assert abs(r.per_letter_delta_s - ds) <= 1e-9
