import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import infotherm as it
from infotherm.errors import (
    BlockFormViolation,
    DimensionMismatch,
    NotProjective,
    ValidationError,
)
import infotherm.measurement as measurement
import infotherm.quantum as quantum
from infotherm.linops import is_hermitian
from infotherm.measurement import (
    _post_measurement_spectrum,
    partial_trace_record,
    partial_trace_system,
)

from conftest import (
    DS_COMPUTATIONAL,
    DS_HELSTROM,
    INFO_COMPUTATIONAL,
    INFO_HELSTROM,
    P_HELSTROM_CORRECT,
    count_eighs,
    mixed_kind_instances,
)


def trine_povm():
    """Three symmetric rank-deficient elements (2/3)|t_k><t_k| on a qubit."""
    elements = []
    for k in range(3):
        v = np.array([1.0, np.exp(2j * np.pi * k / 3)]) / np.sqrt(2)
        elements.append((2.0 / 3.0) * np.outer(v, v.conj()))
    return it.Povm(tuple(elements))


def haar_basis(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(dim, rng, rank=None):
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    w = g @ g.conj().T
    return it.DensityMatrix(w / np.trace(w).real)


class TestPovm:
    def test_projective_detected(self, computational_basis):
        assert computational_basis.projective

    def test_general_detected(self):
        assert not trine_povm().projective

    def test_declared_projective_must_be(self):
        with pytest.raises(ValidationError):
            it.Povm(trine_povm().elements, projective=True)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            it.Povm((np.diag([1.0, 0.0]), np.diag([0.0, 0.9])))

    def test_rejects_non_psd_element(self):
        with pytest.raises(ValidationError):
            it.Povm((np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])))

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            it.Povm((np.eye(2), np.zeros((3, 3))))

    def test_single_element_identity(self):
        v = it.Povm((np.eye(3),))
        assert v.projective and v.size == 1

    def test_idempotent_but_overlapping_elements_are_not_projective(self):
        # each element is a projector, and row 0 is orthogonal to the rest,
        # so only the orthogonality check on the later rows rejects the stack
        v = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
        stack = np.stack([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.outer(v, v)])
        assert not measurement._detect_projective(stack.astype(complex), [3])[0]


class TestBasisMeasurement:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            it.basis_measurement(np.ones((2, 2)))

    def test_blocks_coarse_grain(self):
        v = it.basis_measurement(np.eye(4), blocks=[[0, 1], [2, 3]])
        assert v.size == 2 and v.projective
        npt.assert_allclose(v.elements[0], np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize(
        "index, message",
        [
            (-1, "block index -1 is outside [0, 2)"),
            (5, "block index 5 is outside [0, 2)"),
            (1.0, "block index must be an integer, got 1.0"),
            (True, "block index must be an integer, got True"),
        ],
    )
    def test_refuses_a_block_index_outside_the_columns(self, index, message):
        # -1 used to wrap to the last column, 5 and 1.0 to raise IndexError
        with pytest.raises(ValidationError) as info:
            it.basis_measurement(np.eye(2), blocks=[[0], [index]])
        assert str(info.value) == message

    def test_accepts_numpy_integer_indices(self):
        v = it.basis_measurement(np.eye(2), blocks=[[np.int64(0)], [np.int32(1)]])
        npt.assert_array_equal(v.elements[1], np.diag([0.0, 1.0]))


class TestJointDistribution:
    def test_orthogonal_diagonal(self, orthogonal_ensemble, computational_basis):
        jd = it.joint_distribution(orthogonal_ensemble, computational_basis)
        npt.assert_allclose(jd.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_two_state_computational(self, two_state_ensemble, computational_basis):
        jd = it.joint_distribution(two_state_ensemble, computational_basis)
        npt.assert_allclose(jd.matrix, [[0.5, 0.0], [0.25, 0.25]], atol=1e-12)

    def test_helstrom_correct_probability(self, two_state_ensemble, helstrom_basis):
        jd = it.joint_distribution(two_state_ensemble, helstrom_basis)
        npt.assert_allclose(jd.matrix[0, 0] / 0.5, P_HELSTROM_CORRECT, atol=1e-9)
        npt.assert_allclose(jd.matrix[1, 0] / 0.5, 1 - P_HELSTROM_CORRECT, atol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_marginals(self, seed):
        e, v = it.random_instance(3, 3, 4, "mixed", seed)
        jd = it.joint_distribution(e, v)
        npt.assert_allclose(jd.priors, e.probs, atol=1e-9)
        npt.assert_allclose(jd.matrix.sum(), 1.0, atol=1e-9)
        npt.assert_allclose(
            jd.outcome_probs, it.outcome_distribution(it.average_state(e), v), atol=1e-9
        )

    def test_dim_mismatch(self, two_state_ensemble):
        with pytest.raises(DimensionMismatch):
            it.joint_distribution(two_state_ensemble, it.Povm((np.eye(3),)))

    def test_rejects_bad_table(self):
        with pytest.raises(ValidationError):
            it.JointDistribution(np.array([[0.7, 0.7]]))

    def test_rejects_nan_entry(self):
        with pytest.raises(ValidationError, match="non-finite"):
            it.JointDistribution(np.array([[np.nan, 1.0]]))


class TestMutualInformation:
    def test_independent_table_zero(self):
        jd = it.JointDistribution(np.outer([0.3, 0.7], [0.4, 0.6]))
        assert it.mutual_information(jd) <= 1e-12

    def test_perfectly_correlated(self, orthogonal_ensemble, computational_basis):
        jd = it.joint_distribution(orthogonal_ensemble, computational_basis)
        npt.assert_allclose(it.mutual_information(jd), 1.0, atol=1e-12)

    def test_two_state_computational(self, two_state_ensemble, computational_basis):
        jd = it.joint_distribution(two_state_ensemble, computational_basis)
        npt.assert_allclose(it.mutual_information(jd), INFO_COMPUTATIONAL, atol=1e-9)

    def test_two_state_helstrom(self, two_state_ensemble, helstrom_basis):
        jd = it.joint_distribution(two_state_ensemble, helstrom_basis)
        npt.assert_allclose(it.mutual_information(jd), INFO_HELSTROM, atol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_bounded_by_marginal_entropies(self, seed):
        e, v = it.random_instance(2, 4, 3, "pure", seed + 50)
        jd = it.joint_distribution(e, v)
        info = it.mutual_information(jd)
        assert info >= 0.0
        assert info <= it.shannon_entropy(jd.priors) + 1e-9
        outcome = np.clip(jd.outcome_probs, 0, None)
        assert info <= it.shannon_entropy(outcome / outcome.sum()) + 1e-9


class TestPostMeasurementState:
    def test_diagonal_fixed_point(self, computational_basis):
        r = it.DensityMatrix(np.diag([0.75, 0.25]))
        npt.assert_allclose(
            it.post_measurement_state(r, computational_basis).matrix,
            r.matrix,
            atol=1e-12,
        )

    def test_dephases_off_diagonals(self, two_state_ensemble, computational_basis):
        rho = it.average_state(two_state_ensemble)
        sigma = it.post_measurement_state(rho, computational_basis)
        npt.assert_allclose(sigma.matrix, np.diag([0.75, 0.25]), atol=1e-12)

    def test_projective_idempotent(self, helstrom_basis):
        rho = random_density(2, np.random.default_rng(4))
        once = it.post_measurement_state(rho, helstrom_basis)
        twice = it.post_measurement_state(once, helstrom_basis)
        npt.assert_allclose(twice.matrix, once.matrix, atol=1e-12)

    def test_general_povm_records_outcome(self, two_state_ensemble):
        rho = it.average_state(two_state_ensemble)
        coin = it.Povm((np.eye(2) / 2, np.eye(2) / 2))
        sigma = it.post_measurement_state(rho, coin)
        assert sigma.dim == 4
        # each record block holds sqrt(E) rho sqrt(E) = rho/2
        blocks = sigma.matrix.reshape(2, 2, 2, 2)
        npt.assert_allclose(blocks[:, 0, :, 0], rho.matrix / 2, atol=1e-12)
        npt.assert_allclose(blocks[:, 1, :, 1], rho.matrix / 2, atol=1e-12)
        npt.assert_allclose(blocks[:, 0, :, 1], 0, atol=1e-12)

    def test_record_marginal_is_outcome_distribution(self):
        rng = np.random.default_rng(9)
        rho = random_density(2, rng)
        v = trine_povm()
        sigma = it.post_measurement_state(rho, v)
        record = partial_trace_system(sigma.matrix, 2, 3)
        npt.assert_allclose(
            np.diag(record).real, it.outcome_distribution(rho, v), atol=1e-9
        )


class TestDeltaS:
    def test_diagonal_state_zero(self, computational_basis):
        r = it.DensityMatrix(np.diag([0.75, 0.25]))
        assert it.delta_s(r, computational_basis) <= 1e-12

    def test_two_state_computational(self, two_state_ensemble, computational_basis):
        rho = it.average_state(two_state_ensemble)
        npt.assert_allclose(
            it.delta_s(rho, computational_basis), DS_COMPUTATIONAL, atol=1e-9
        )

    def test_two_state_helstrom(self, two_state_ensemble, helstrom_basis):
        rho = it.average_state(two_state_ensemble)
        npt.assert_allclose(it.delta_s(rho, helstrom_basis), DS_HELSTROM, atol=1e-9)

    def test_eigenbasis_measurement_zero(self):
        rng = np.random.default_rng(12)
        rho = random_density(3, rng)
        basis = np.linalg.eigh(rho.matrix)[1]
        assert it.delta_s(rho, it.basis_measurement(basis)) <= 1e-9

    @pytest.mark.parametrize("seed", range(25))
    def test_nonnegative_for_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        rho = random_density(dim, rng)
        if seed % 2:
            v = it.basis_measurement(haar_basis(dim, rng))
        else:
            _, v = it.random_instance(dim, 2, int(rng.integers(2, 6)), "mixed", seed)
        assert it.delta_s(rho, v) >= 0.0


def random_general_povm(dim, m, rng):
    """m full-rank Wishart elements rescaled by S^(-1/2) to resolve the identity."""
    grams = []
    for _ in range(m):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        grams.append(g @ g.conj().T)
    inv_root = it.psd_function(sum(grams), lambda x: 1.0 / np.sqrt(x))
    return it.Povm(tuple(inv_root @ g @ inv_root for g in grams))


def assert_spectrum_matches_record_state(rho, v):
    reference = it.post_measurement_state(rho, v)
    npt.assert_allclose(
        np.sort(_post_measurement_spectrum(rho, v)),
        reference.spectrum(),
        rtol=0,
        atol=1e-12,
    )
    npt.assert_allclose(
        it.delta_s(rho, v),
        it.von_neumann_entropy(reference) - it.von_neumann_entropy(rho),
        rtol=0,
        atol=1e-12,
    )


class TestPostMeasurementSpectrum:
    """The union of the spectra of sqrt(rho) E_j sqrt(rho) against the
    spectrum of the (d*m)-dim record state built by post_measurement_state."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        dim=st.integers(2, 4),
        m=st.integers(2, 6),
        rank_deficit=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_general_povm(self, dim, m, rank_deficit, seed):
        rng = np.random.default_rng(seed)
        v = random_general_povm(dim, m, rng)
        assume(not v.projective)
        rho = random_density(dim, rng, rank=max(1, dim - rank_deficit))
        assert_spectrum_matches_record_state(rho, v)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        dim=st.integers(3, 4),
        extra_states=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pgm_with_kernel_element(self, dim, extra_states, seed):
        # more pure states than their span has dimensions: the average is
        # rank deficient, so the PGM gets the kernel projector appended
        rng = np.random.default_rng(seed)
        support = dim - 1
        basis = haar_basis(dim, rng)[:, :support]
        n = support + extra_states
        kets = [
            basis @ (rng.normal(size=support) + 1j * rng.normal(size=support))
            for _ in range(n)
        ]
        e = it.Ensemble(rng.dirichlet(np.ones(n)), tuple(it.pure_state(k) for k in kets))
        v = it.pretty_good_measurement(e)
        assert v.size == n + 1
        assume(not v.projective)
        assert_spectrum_matches_record_state(it.average_state(e), v)
        assert_spectrum_matches_record_state(random_density(dim, rng), v)

    def test_projective_route_is_the_dephased_state(self, helstrom_basis):
        rho = random_density(2, np.random.default_rng(3))
        npt.assert_array_equal(
            _post_measurement_spectrum(rho, helstrom_basis),
            it.post_measurement_state(rho, helstrom_basis).spectrum(),
        )

    def test_dim_mismatch(self):
        rho = random_density(3, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch):
            _post_measurement_spectrum(rho, trine_povm())

    def test_union_trace_check_is_reached(self):
        # completeness within POVM_SUM_TOL, union trace off by more than TRACE_TOL
        v = it.Povm([0.5 * (1 + 4e-9) * np.eye(2)] * 2)
        assert not v.projective
        rho = it.average_state(
            it.Ensemble([0.5, 0.5], [it.pure_state([1, 0]), it.pure_state([1, 1])])
        )
        with pytest.raises(ValidationError) as info:
            it.delta_s(rho, v)
        assert str(info.value) == "density matrix has trace 1.000000004, expected 1"

    def test_union_checks_run_stacked_trace_first(self):
        # element stacks that never passed Povm, to reach the union's checks
        def general(*diagonals):
            return it.Povm._checked(np.array([np.diag(d) for d in diagonals], dtype=complex), False)

        valid = general([0.4, 0.1], [0.6, 0.9])
        negative = general([1.1, 0.5], [-0.1, 0.5])  # union {0.55, 0.25, -0.05, 0.25}
        both = general([1.1, 0.5], [-0.1, 0.6])  # and a union trace of 1.05
        rhos = np.stack([np.eye(2, dtype=complex) / 2] * 3)

        def error(povms):
            with pytest.raises(ValidationError) as info:
                measurement._post_measurement_spectra([(
                    rhos,
                    np.concatenate([v._stack for v in povms]),
                    [v.size for v in povms],
                    [v.projective for v in povms],
                )])
            return str(info.value)

        psd = "density matrix has eigenvalue -5.000e-02 below -1.0e-09"
        trace = "density matrix has trace 1.05, expected 1"
        assert error([valid, negative, both]) == psd
        assert error([valid, both, negative]) == trace
        assert error([both, valid, valid]) == trace

    def test_the_lowest_failing_pair_raises_across_both_routes(self):
        # pair 0 is general with a union trace of 1.05, pair 1 projective
        # with a dephased trace of 1.22; each route keeps its own message,
        # the projective one printing its trace as a complex number
        half = np.eye(2, dtype=complex) / 2
        general = np.array([np.diag([0.5, 0.5]), np.diag([0.55, 0.55])], dtype=complex)
        basis = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        skewed = np.array([[[1.0, 1e-6], [0.0, 0.0]], np.diag([0.0, 1.0])], dtype=complex)

        def error(rhos, stacks, flags):
            with pytest.raises(ValidationError) as info:
                measurement._post_measurement_spectra(
                    [(np.stack(rhos), np.concatenate(stacks), [2] * len(stacks), flags)]
                )
            return str(info.value)

        general_trace = "density matrix has trace 1.05, expected 1"
        projective_trace = "density matrix has trace 1.22, expected 1"
        assert error([half, 1.22 * half], [general, basis], [False, True]) == general_trace
        assert error([1.22 * half, half], [basis, general], [True, False]) == projective_trace
        assert error([half], [general], [False]) == general_trace
        assert error([1.22 * half], [basis], [True]) == projective_trace
        # a projective pair's hermiticity check comes first, and a lower
        # passing pair of the other route does not hide it
        valid = np.array([np.diag([0.4, 0.1]), np.diag([0.6, 0.9])], dtype=complex)
        assert error(
            [half, half, half], [valid, skewed, general], [False, True, False]
        ) == "density matrix deviates from Hermitian by 5.000e-07"

    @staticmethod
    def stack(dim, seed):
        """Drawn pairs of one dimension, projective and general, as a stack."""
        picks = ((2, "commuting"), (5, "mixed"), (2, "commuting"), (6, "pure"), (3, "mixed"))
        pairs = [
            it.random_instance(dim, 2, m, kind, [seed, k]) for k, (m, kind) in enumerate(picks)
        ]
        g = measurement._group(pairs)
        assert 0 < g.projective.sum() < len(pairs)
        rhos = np.array([it.average_state(e).matrix for e, _ in pairs])
        return rhos, g.elements, g.counts, g.projective

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stacks_of_several_dimensions_are_each_stack_alone(self, seed):
        stacks = [self.stack(dim, seed) for dim in (2, 3, 4)]
        spectra, lengths = measurement._post_measurement_spectra(stacks)
        alone = [measurement._post_measurement_spectra([stack]) for stack in stacks]
        assert spectra.tobytes() == np.concatenate([a[0] for a in alone]).tobytes()
        assert lengths.tolist() == np.concatenate([a[1] for a in alone]).tolist()

    def test_the_lowest_failing_pair_of_several_stacks_raises(self):
        # the qubit stack's pair 1 is general with a union trace of 1.05, the
        # qutrit stack's pair 0 projective with a dephased trace of 1.22:
        # pairs count stack after stack, so the qubit pair is the lower
        half, third = np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 3
        general = np.array([np.diag([0.5, 0.5]), np.diag([0.55, 0.55])], dtype=complex)
        basis = np.eye(3, dtype=complex)[:, :, None] * np.eye(3)[:, None, :]

        def error(bad_qubit, bad_qutrit):
            elements = [general / 1.05, general if bad_qubit else general / 1.05]
            qubits = (np.stack([half, half]), np.concatenate(elements), [2, 2], [False] * 2)
            rhos = np.stack([(1.22 if bad_qutrit else 1.0) * third, third])
            qutrits = (rhos, np.concatenate([basis] * 2), [3, 3], [True] * 2)
            with pytest.raises(ValidationError) as info:
                measurement._post_measurement_spectra([qubits, qutrits])
            return str(info.value)

        assert error(True, True) == "density matrix has trace 1.05, expected 1"
        assert error(False, True) == "density matrix has trace 1.22, expected 1"

    def test_general_povm_never_builds_the_record_state(self, monkeypatch):
        # five outcomes on a qutrit: always a general POVM
        e, v = it.random_instance(3, 3, 5, "mixed", 0)
        assert not v.projective
        expected_ds = it.delta_s(it.average_state(e), v)

        def forbidden(*args):
            raise AssertionError("post_measurement_state reached")

        monkeypatch.setattr(measurement, "post_measurement_state", forbidden)
        assert it.delta_s(it.average_state(e), v) == expected_ds
        assert it.run_cycle(e, v).delta_s == expected_ds


class TestPartialTraceDimensions:
    # dimensions numpy's reshape would take or refuse with its own errors
    @pytest.mark.parametrize("trace", [partial_trace_record, partial_trace_system])
    @pytest.mark.parametrize(
        "system_dim, record_dim, message",
        [
            (-2, -2, "system_dim must be at least 1, got -2"),
            (2.0, 2, "system_dim must be an integer, got 2.0"),
            (True, 4, "system_dim must be an integer, got True"),
        ],
    )
    def test_bad_dimensions_raise_validation_errors(self, trace, system_dim, record_dim, message):
        with pytest.raises(ValidationError) as info:
            trace(np.eye(4) / 4, system_dim, record_dim)
        assert str(info.value) == message

    def test_each_dimension_is_checked(self):
        with pytest.raises(ValidationError, match=r"^record_dim must be at least 1, got 0$"):
            partial_trace_record(np.eye(4) / 4, 4, 0)
        with pytest.raises(DimensionMismatch, match=r"^operator dim 4 is not 2\*3$"):
            partial_trace_system(np.eye(4) / 4, 2, 3)


class TestNaimarkDilation:
    def test_isometry(self):
        iso, proj = it.naimark_dilation(trine_povm())
        assert iso.shape == (6, 2)
        npt.assert_allclose(iso.conj().T @ iso, np.eye(2), atol=1e-12)
        assert proj.projective and proj.size == 3

    @pytest.mark.parametrize("seed", range(10))
    def test_statistics_preserved(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 4))
        _, v = it.random_instance(dim, 2, int(rng.integers(2, 6)), "pure", seed + 7)
        rho = random_density(dim, rng)
        iso, proj = it.naimark_dilation(v)
        dilated = it.DensityMatrix(iso @ rho.matrix @ iso.conj().T)
        npt.assert_allclose(
            it.outcome_distribution(dilated, proj),
            it.outcome_distribution(rho, v),
            atol=1e-9,
        )

    def test_projective_input_round_trips(self, helstrom_basis):
        rho = random_density(2, np.random.default_rng(3))
        iso, proj = it.naimark_dilation(helstrom_basis)
        dilated = it.DensityMatrix(iso @ rho.matrix @ iso.conj().T)
        npt.assert_allclose(
            it.outcome_distribution(dilated, proj),
            it.outcome_distribution(rho, helstrom_basis),
            atol=1e-12,
        )

    def test_coin_povm(self):
        rho = random_density(2, np.random.default_rng(8))
        coin = it.Povm((np.eye(2) / 2, np.eye(2) / 2))
        iso, proj = it.naimark_dilation(coin)
        dilated = it.DensityMatrix(iso @ rho.matrix @ iso.conj().T)
        npt.assert_allclose(it.outcome_distribution(dilated, proj), [0.5, 0.5], atol=1e-12)


class TestDemonRecord:
    def test_two_state_blocks(self, two_state_ensemble, computational_basis):
        rho = it.average_state(two_state_ensemble)
        rec = it.demon_record_state(rho, computational_basis)
        npt.assert_allclose(rec.matrix, np.diag([0.75, 0.0, 0.0, 0.25]), atol=1e-12)

    def test_record_marginal_matches_sigma(self):
        rng = np.random.default_rng(21)
        rho = random_density(3, rng)
        v = it.basis_measurement(haar_basis(3, rng))
        rec = it.demon_record_state(rho, v)
        sigma = it.post_measurement_state(rho, v)
        npt.assert_allclose(partial_trace_record(rec.matrix, 3, 3), sigma.matrix, atol=1e-9)

    def test_entropy_equals_sigma_entropy(self):
        rng = np.random.default_rng(22)
        rho = random_density(2, rng)
        v = it.basis_measurement(haar_basis(2, rng))
        rec = it.demon_record_state(rho, v)
        sigma = it.post_measurement_state(rho, v)
        npt.assert_allclose(
            it.von_neumann_entropy(rec), it.von_neumann_entropy(sigma), atol=1e-9
        )

    def test_requires_projective(self):
        rho = it.maximally_mixed(2)
        with pytest.raises(NotProjective):
            it.demon_record_state(rho, trine_povm())


class TestDemonReset:
    @pytest.mark.parametrize("seed", range(10))
    def test_reset_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        rho = random_density(dim, rng)
        v = it.basis_measurement(haar_basis(dim, rng))
        rec = it.demon_record_state(rho, v)
        unitary, after = it.demon_reset(rec, v)
        assert np.max(np.abs(unitary @ unitary.conj().T - np.eye(rec.dim))) <= 1e-9
        sigma = it.post_measurement_state(rho, v)
        ground = np.zeros((dim, dim))
        ground[0, 0] = 1.0
        expected = np.kron(sigma.matrix, ground)
        npt.assert_allclose(after.matrix, expected, atol=1e-9)
        # memory marginal is exactly blank again
        mem = partial_trace_system(after.matrix, dim, v.size)
        target = np.zeros((v.size, v.size))
        target[0, 0] = 1.0
        npt.assert_allclose(mem, target, atol=1e-9)
        # reversible: no entropy was produced
        npt.assert_allclose(
            it.von_neumann_entropy(after), it.von_neumann_entropy(rec), atol=1e-9
        )

    def test_single_outcome_trivial(self):
        rho = random_density(2, np.random.default_rng(30))
        v = it.Povm((np.eye(2),))
        rec = it.demon_record_state(rho, v)
        _, after = it.demon_reset(rec, v)
        npt.assert_allclose(after.matrix, rec.matrix, atol=1e-12)

    def test_rejects_uncorrelated_memory(self, computational_basis):
        bogus = it.maximally_mixed(4)
        with pytest.raises(BlockFormViolation):
            it.demon_reset(bogus, computational_basis)

    def test_rejects_wrong_dimension(self, computational_basis):
        with pytest.raises(DimensionMismatch):
            it.demon_reset(it.maximally_mixed(6), computational_basis)

    def test_requires_projective(self):
        with pytest.raises(NotProjective):
            it.demon_reset(it.maximally_mixed(6), trine_povm())


# Reference loops with one matrix product or eigensolve per element or per
# (state, outcome); the stacked kernels must equal them bit for bit.


def loop_joint_table(e, v):
    table = np.empty((e.size, v.size), dtype=float)
    for i, (p, s) in enumerate(zip(e.probs, e.states)):
        for j, el in enumerate(v.elements):
            table[i, j] = p * float(np.trace(el @ s.matrix).real)
    return np.clip(table, 0.0, None)


def loop_outcome_distribution(r, v):
    q = np.array([float(np.trace(el @ r.matrix).real) for el in v.elements])
    return np.clip(q, 0.0, None)


def loop_record_spectrum(r, v):
    root = it.psd_function(r.matrix, np.sqrt)
    w = np.sort(
        np.concatenate([np.linalg.eigvalsh(root @ el @ root) for el in v.elements])
    )
    return np.clip(w, 0.0, None)


def phase_fixed_psd_function(m, f):
    eig = it.hermitian_eig(m)
    v = eig.eigenvectors
    return (v * f(np.clip(eig.eigenvalues, 0.0, None))) @ v.conj().T


def loop_element_error(elements):
    """The message the per-element validation loop raised, or None."""
    for j, el in enumerate(elements):
        if not is_hermitian(el):
            return f"element {j} is not Hermitian"
        w = np.linalg.eigvalsh(el)
        if w[0] < -measurement.PSD_TOL:
            return (
                f"element {j} has eigenvalue {w[0]:.3e} below "
                f"-{measurement.PSD_TOL:.1e}"
            )
    return None


@pytest.fixture(scope="module")
def stacked_instances():
    """150 seeded pairs of every kind with d in {2, 3, 4}, plus the m=4
    square-root measurement of a mixed qubit pair (16 states, 16x16)."""
    found = [(str(seed), e, v) for seed, e, v in mixed_kind_instances(150)]
    pair = it.Ensemble(
        [0.3, 0.7],
        (
            it.DensityMatrix([[0.8, 0.1 - 0.2j], [0.1 + 0.2j, 0.2]]),
            it.DensityMatrix([[0.35, 0.25], [0.25, 0.65]]),
        ),
    )
    seq = it.sequence_ensemble(pair, 4)
    found.append(("pgm m=4", seq, it.pretty_good_measurement(seq)))
    return found


class TestStackedKernels:
    def test_joint_table_equals_the_double_loop(self, stacked_instances):
        for label, e, v in stacked_instances:
            npt.assert_array_equal(
                it.joint_distribution(e, v).matrix, loop_joint_table(e, v), err_msg=label
            )

    def test_outcome_distribution_equals_the_loop(self, stacked_instances):
        for label, e, v in stacked_instances:
            for r in (*e.states, it.average_state(e)):
                npt.assert_array_equal(
                    it.outcome_distribution(r, v),
                    loop_outcome_distribution(r, v),
                    err_msg=label,
                )

    def test_record_spectrum_equals_the_sorted_concatenation(self, stacked_instances):
        general = [(label, e, v) for label, e, v in stacked_instances if not v.projective]
        assert len(general) > 50
        for label, e, v in general:
            rho = it.average_state(e)
            npt.assert_array_equal(
                _post_measurement_spectrum(rho, v),
                loop_record_spectrum(rho, v),
                err_msg=label,
            )

    def test_spectrum_is_the_clipped_eigensolve(self, stacked_instances):
        for label, e, _ in stacked_instances:
            for r in (*e.states, it.average_state(e)):
                npt.assert_array_equal(
                    r.spectrum(),
                    np.clip(np.linalg.eigvalsh(r.matrix), 0.0, None),
                    err_msg=label,
                )

    def test_psd_function_matches_the_phase_fixed_route(self, stacked_instances):
        for label, e, v in stacked_instances:
            for m in (it.average_state(e).matrix, *v.elements):
                npt.assert_allclose(
                    it.psd_function(m, np.sqrt),
                    phase_fixed_psd_function(m, np.sqrt),
                    rtol=0,
                    atol=1e-12,
                    err_msg=label,
                )

    def test_spectrum_runs_no_eigensolve(self, monkeypatch):
        r = random_density(4, np.random.default_rng(5))
        calls = count_eighs(monkeypatch, "eigvalsh_lo")
        r.spectrum()
        assert len(calls) == 0
        it.DensityMatrix(r.matrix)
        assert len(calls) == 1

    def test_povm_validation_runs_one_batched_eigensolve(
        self, monkeypatch, stacked_instances
    ):
        _, _, v = stacked_instances[-1]
        assert v.size == 16
        calls = count_eighs(monkeypatch, "eigvalsh_lo")
        it.Povm(v.elements)
        assert len(calls) == 1

    def test_povm_keeps_a_read_only_copy(self):
        source = [np.diag([0.75, 0.25]).astype(complex), np.diag([0.25, 0.75]).astype(complex)]
        v = it.Povm(source)
        rho = it.DensityMatrix(np.diag([0.5, 0.5]))
        before = it.outcome_distribution(rho, v)
        source[0][0, 0] = 0.0
        npt.assert_array_equal(v.elements[0], np.diag([0.75, 0.25]))
        npt.assert_array_equal(it.outcome_distribution(rho, v), before)
        assert not v.elements[0].flags.writeable


class TestPovmErrorParity:
    """The stacked checks name the lowest-index failing element, checking
    hermiticity before PSD for it, with the loop's exact message."""

    VALID = (
        np.diag([0.4, 0.1]),
        np.diag([0.1, 0.4]),
        np.diag([0.3, 0.2]),
        np.diag([0.2, 0.3]),
    )
    NOT_HERMITIAN = np.array([[0.4, 0.1], [0.0, 0.1]])
    NOT_PSD = np.diag([0.5, -0.1])
    # fails both: asymmetric, and its lower triangle is indefinite
    NEITHER = np.array([[0.5, 0.0], [0.9, 0.1]])

    @staticmethod
    def assert_rejected(elements, index, phrase):
        with pytest.raises(ValidationError) as info:
            it.Povm(tuple(elements))
        message = str(info.value)
        assert message.startswith(f"element {index} {phrase}")
        assert message == loop_element_error(elements)

    @pytest.mark.parametrize("index", [0, 1, 3])
    @pytest.mark.parametrize(
        "bad, phrase",
        [(NOT_HERMITIAN, "is not Hermitian"), (NOT_PSD, "has eigenvalue"),
         (NEITHER, "is not Hermitian")],
        ids=["not-hermitian", "not-psd", "neither"],
    )
    def test_one_bad_element(self, index, bad, phrase):
        elements = list(self.VALID)
        elements[index] = bad
        self.assert_rejected(elements, index, phrase)

    def test_non_psd_before_non_hermitian(self):
        elements = list(self.VALID)
        elements[1], elements[2] = self.NOT_PSD, self.NOT_HERMITIAN
        self.assert_rejected(elements, 1, "has eigenvalue")

    def test_non_hermitian_before_non_psd(self):
        elements = list(self.VALID)
        elements[1], elements[2] = self.NOT_HERMITIAN, self.NOT_PSD
        self.assert_rejected(elements, 1, "is not Hermitian")


def entropy_quantities(e, v):
    """I, chi and delta_s of one (ensemble, measurement) pair."""
    return (
        it.mutual_information(it.joint_distribution(e, v)),
        it.holevo_chi(e),
        it.delta_s(it.average_state(e), v),
    )


instance_args = dict(
    dim=st.integers(2, 4),
    n=st.integers(1, 4),
    m=st.integers(2, 6),
    kind=st.sampled_from(["pure", "mixed", "commuting"]),
    seed=st.integers(0, 2**32 - 1),
)


def drawn_instance(dim, n, m, kind, seed):
    if kind == "commuting":
        m = min(m, dim)
    return it.random_instance(dim, n, m, kind, seed)


class TestSymmetryInvariances:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(**instance_args)
    def test_joint_unitary_conjugation(self, dim, n, m, kind, seed):
        e, v = drawn_instance(dim, n, m, kind, seed)
        u = haar_basis(dim, np.random.default_rng([seed, 1]))
        turned = it.Ensemble(
            e.probs, tuple(it.DensityMatrix(u @ s.matrix @ u.conj().T) for s in e.states)
        )
        turned_v = it.Povm(tuple(u @ el @ u.conj().T for el in v.elements))
        npt.assert_allclose(
            entropy_quantities(turned, turned_v), entropy_quantities(e, v), rtol=0, atol=1e-10
        )

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(**instance_args)
    def test_relabelling_preparations_and_outcomes(self, dim, n, m, kind, seed):
        e, v = drawn_instance(dim, n, m, kind, seed)
        rng = np.random.default_rng([seed, 2])
        rows, cols = rng.permutation(e.size), rng.permutation(v.size)
        relabelled = it.Ensemble(e.probs[rows], tuple(e.states[i] for i in rows))
        relabelled_v = it.Povm(tuple(v.elements[j] for j in cols))
        npt.assert_allclose(
            entropy_quantities(relabelled, relabelled_v),
            entropy_quantities(e, v),
            rtol=0,
            atol=1e-12,
        )

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(**instance_args)
    def test_appending_a_zero_prior_member(self, dim, n, m, kind, seed):
        e, v = drawn_instance(dim, n, m, kind, seed)
        extra = random_density(dim, np.random.default_rng([seed, 3]))
        padded = it.Ensemble(np.append(e.probs, 0.0), (*e.states, extra))
        npt.assert_array_equal(entropy_quantities(padded, v), entropy_quantities(e, v))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(**instance_args)
    def test_tensoring_with_a_pure_ancilla(self, dim, n, m, kind, seed):
        e, v = drawn_instance(dim, n, m, kind, seed)
        ancilla = np.diag([1.0, 0.0])
        extended = it.Ensemble(
            e.probs, tuple(it.DensityMatrix(np.kron(s.matrix, ancilla)) for s in e.states)
        )
        extended_v = it.Povm(tuple(np.kron(el, np.eye(2)) for el in v.elements))
        npt.assert_allclose(
            entropy_quantities(extended, extended_v),
            entropy_quantities(e, v),
            rtol=0,
            atol=1e-10,
        )


# The system (x) record constructions as sums of Kronecker products, one
# record ket |j> at a time; the library's builders must equal them bit for
# bit.


def kron_record_ket(index, dim):
    ket = np.zeros((dim, 1), dtype=complex)
    ket[index, 0] = 1.0
    return ket


def kron_record_projector(index, dim):
    ket = kron_record_ket(index, dim)
    return ket @ ket.conj().T


def kron_dephased(r, v):
    acc = np.zeros_like(r.matrix)
    for el in v.elements:
        acc += el @ r.matrix @ el
    return acc


def kron_post_measurement_state(r, v):
    if v.projective:
        return it.DensityMatrix(kron_dephased(r, v))
    m = v.size
    acc = np.zeros((r.dim * m, r.dim * m), dtype=complex)
    for j, el in enumerate(v.elements):
        root = it.psd_function(el, np.sqrt)
        acc += it.tensor_product(root @ r.matrix @ root, kron_record_projector(j, m))
    return it.DensityMatrix(acc)


def kron_demon_record_state(r, v):
    m = v.size
    acc = np.zeros((r.dim * m, r.dim * m), dtype=complex)
    for idx, proj in enumerate(v.elements):
        acc += it.tensor_product(proj @ r.matrix @ proj, kron_record_projector(idx, m))
    return it.DensityMatrix(acc)


def kron_naimark_dilation(v):
    d, m = v.dim, v.size
    iso = np.zeros((d * m, d), dtype=complex)
    for j, el in enumerate(v.elements):
        iso += np.kron(it.psd_function(el, np.sqrt), kron_record_ket(j, m))
    eye = np.eye(d, dtype=complex)
    return iso, [it.tensor_product(eye, kron_record_projector(j, m)) for j in range(m)]


def kron_demon_reset(r_pm, v):
    m = v.size
    shift = np.zeros((m, m), dtype=complex)
    for k in range(m):
        shift[(k + 1) % m, k] = 1.0
    unitary = np.zeros((r_pm.dim, r_pm.dim), dtype=complex)
    for idx, proj in enumerate(v.elements):
        unitary += it.tensor_product(proj, np.linalg.matrix_power(shift, (m - idx) % m))
    after = unitary @ r_pm.matrix @ unitary.conj().T
    sigma = partial_trace_record(after, v.dim, m)
    expected = it.tensor_product(sigma, kron_record_projector(0, m))
    return unitary, after, expected


def record_measurements(dim, m, kind, seed):
    """An ensemble of ``kind`` and its average state, with the drawn
    measurement, a general m-outcome POVM and, for m <= dim, a projective
    one of m column blocks of a Haar unitary."""
    e, drawn = it.random_instance(dim, 3, min(m, dim) if kind == "commuting" else m, kind, seed)
    rng = np.random.default_rng([seed, dim, m])
    povms = [drawn, random_general_povm(dim, m, rng)]
    if m <= dim:
        blocks = [list(b) for b in np.array_split(np.arange(dim), m)]
        povms.append(it.basis_measurement(haar_basis(dim, rng), blocks))
    return it.average_state(e), povms


class TestRecordConstructionsMatchKronLoops:
    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["pure", "mixed", "commuting"])
    def test_bit_equal(self, kind, dim, m):
        kinds_seen = set()
        for seed in range(3):
            rho, povms = record_measurements(dim, m, kind, seed)
            for v in povms:
                kinds_seen.add(v.projective)
                label = f"{kind} d={dim} m={v.size} seed={seed} projective={v.projective}"
                post = it.post_measurement_state(rho, v)
                reference = kron_post_measurement_state(rho, v)
                npt.assert_array_equal(post.matrix, reference.matrix, err_msg=label)
                npt.assert_array_equal(post.spectrum(), reference.spectrum(), err_msg=label)
                iso, proj = it.naimark_dilation(v)
                ref_iso, ref_proj = kron_naimark_dilation(v)
                npt.assert_array_equal(iso, ref_iso, err_msg=label)
                npt.assert_array_equal(np.stack(proj.elements), ref_proj, err_msg=label)
                assert proj.projective
                if not v.projective:
                    continue
                record = it.demon_record_state(rho, v)
                ref_record = kron_demon_record_state(rho, v)
                npt.assert_array_equal(record.matrix, ref_record.matrix, err_msg=label)
                for traced, ref_traced in [
                    (partial_trace_record(record.matrix, dim, v.size), kron_dephased(rho, v)),
                    (
                        partial_trace_system(record.matrix, dim, v.size),
                        partial_trace_system(ref_record.matrix, dim, v.size),
                    ),
                ]:
                    npt.assert_array_equal(traced, ref_traced, err_msg=label)
                unitary, after = it.demon_reset(ref_record, v)
                ref_unitary, ref_after, expected = kron_demon_reset(ref_record, v)
                npt.assert_array_equal(unitary, ref_unitary, err_msg=label)
                npt.assert_array_equal(
                    after.matrix, it.DensityMatrix(ref_after).matrix, err_msg=label
                )
                npt.assert_allclose(after.matrix, expected, rtol=0, atol=1e-9, err_msg=label)
        assert False in kinds_seen and (True in kinds_seen or m > dim)
