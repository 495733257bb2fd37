import pickle
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import infotherm as it
from infotherm import quantum
from infotherm.errors import DimensionMismatch, ValidationError
from infotherm.linops import TRACE_TOL

from conftest import CHI_TWO_STATE, H_THREE_QUARTERS, count_eighs, in_order


def random_density(dim, rng, pure=False):
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        return it.DensityMatrix(np.outer(v, v.conj()))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w = g @ g.conj().T
    return it.DensityMatrix(w / np.trace(w).real)


def random_ensemble(dim, n, rng, pure=False):
    probs = rng.dirichlet(np.ones(n))
    return it.Ensemble(probs, tuple(random_density(dim, rng, pure) for _ in range(n)))


class TestDensityMatrix:
    def test_valid(self):
        r = it.DensityMatrix(np.diag([0.25, 0.75]))
        assert r.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            it.DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            it.DensityMatrix(np.diag([0.6, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            it.DensityMatrix(np.diag([1.5, -0.5]))

    def test_keeps_a_read_only_copy_of_the_source(self):
        # a complex source array passes as_complex_matrix uncopied
        source = np.diag([0.25, 0.75]).astype(complex)
        r = it.DensityMatrix(source)
        source[0, 0], source[1, 1] = 0.5, 0.5
        npt.assert_array_equal(r.matrix, np.diag([0.25, 0.75]))
        npt.assert_array_equal(r.spectrum(), [0.25, 0.75])
        assert not r.matrix.flags.writeable

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_pure_state_refuses_non_finite_amplitudes_without_a_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^matrix has non-finite entries$"):
                it.pure_state([bad, 1.0])

    @pytest.mark.parametrize(
        "dim, message",
        [
            (-1, "dim must be at least 1, got -1"),
            (0, "dim must be at least 1, got 0"),
            (2.5, "dim must be an integer, got 2.5"),
            (2.0, "dim must be an integer, got 2.0"),
            (True, "dim must be an integer, got True"),
        ],
    )
    def test_maximally_mixed_refuses_a_bad_dimension(self, dim, message):
        with pytest.raises(ValidationError) as info:
            it.maximally_mixed(dim)
        assert str(info.value) == message

    def test_maximally_mixed_accepts_a_numpy_integer(self):
        npt.assert_array_equal(it.maximally_mixed(np.int64(2)).matrix, np.eye(2) / 2)

    def test_pure_state_normalizes(self):
        r = it.pure_state([3.0, 4.0])
        npt.assert_allclose(np.trace(r.matrix).real, 1.0, atol=1e-12)
        npt.assert_allclose(r.matrix[0, 0], 0.36, atol=1e-12)


class TestKeptDecomposition:
    """``DensityMatrix._function`` is ``psd_function`` of the matrix, bits
    and errors, from one eigendecomposition kept on the state."""

    @staticmethod
    def inverse_root(x):
        return 1.0 / np.sqrt(x)

    @pytest.mark.parametrize("pseudo", [False, True])
    def test_values_equal_psd_function_from_one_eigh(self, monkeypatch, pseudo):
        rng = np.random.default_rng(11)
        states = [random_density(d, rng) for d in (1, 2, 3, 5)]
        states += [random_density(d, rng, pure=True) for d in (2, 4)]
        functions = [np.sqrt, np.ones_like, np.square] + ([self.inverse_root] if pseudo else [])
        expected = [[it.psd_function(r.matrix, f, pseudo) for f in functions] for r in states]
        calls = count_eighs(monkeypatch)
        for r, values in zip(states, expected):
            for f, value in zip(functions, values):
                assert r._function(f, pseudo).tobytes() == value.tobytes()
        assert len(calls) == len(states)

    def test_a_failing_decomposition_raises_as_psd_function_each_call(self, monkeypatch):
        m = np.diag([0.25, 0.75]).astype(complex)
        m[1, 0] += 8e-10  # Hermitian within tolerance; eigh reads the lower triangle
        r = it.DensityMatrix(m)
        with pytest.raises(it.ToolkitError) as single:
            it.psd_function(m, np.sqrt)
        calls = count_eighs(monkeypatch)
        for _ in range(2):
            with pytest.raises(type(single.value), match=f"^{single.value}$"):
                r._function(np.sqrt)
        assert len(calls) == 2

    def test_a_state_pickles_with_its_kept_decomposition(self):
        r = it.DensityMatrix(np.diag([0.25, 0.75]))
        root = r._function(np.sqrt)
        copy = pickle.loads(pickle.dumps(r))
        assert copy._function(np.sqrt).tobytes() == root.tobytes()

    def test_a_non_finite_function_raises_as_psd_function(self):
        r = it.pure_state([1.0, 0.0])
        with pytest.raises(it.ToolkitError) as single, np.errstate(divide="ignore"):
            it.psd_function(r.matrix, self.inverse_root)
        with pytest.raises(type(single.value), match=f"^{single.value}$"):
            with np.errstate(divide="ignore"):
                r._function(self.inverse_root)
        assert r._function(np.sqrt).tobytes() == it.psd_function(r.matrix, np.sqrt).tobytes()


class TestEnsemble:
    def test_rejects_bad_prior_sum(self):
        with pytest.raises(ValidationError):
            it.Ensemble([0.5, 0.6], (it.pure_state([1, 0]), it.pure_state([0, 1])))

    def test_rejects_negative_prior(self):
        with pytest.raises(ValidationError):
            it.Ensemble([1.2, -0.2], (it.pure_state([1, 0]), it.pure_state([0, 1])))

    def test_rejects_nan_prior(self):
        with pytest.raises(ValidationError, match="non-finite"):
            it.Ensemble([np.nan, 1.0], (it.pure_state([1, 0]), it.pure_state([0, 1])))

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValidationError):
            it.Ensemble([1.0], (it.pure_state([1, 0]), it.pure_state([0, 1])))

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            it.Ensemble([0.5, 0.5], (it.pure_state([1, 0]), it.pure_state([0, 0, 1])))


def test_average_state_two_pure(two_state_ensemble):
    npt.assert_allclose(
        it.average_state(two_state_ensemble).matrix,
        np.array([[0.75, 0.25], [0.25, 0.25]]),
        atol=1e-12,
    )


def test_average_state_single():
    r = random_density(3, np.random.default_rng(0))
    e = it.Ensemble([1.0], (r,))
    npt.assert_allclose(it.average_state(e).matrix, r.matrix, atol=1e-12)


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert it.von_neumann_entropy(it.pure_state([1, 1j])) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_maximally_mixed(self, dim):
        s = it.von_neumann_entropy(it.maximally_mixed(dim))
        npt.assert_allclose(s, np.log2(dim), atol=1e-12)

    def test_two_state_average(self, two_state_ensemble):
        s = it.von_neumann_entropy(it.average_state(two_state_ensemble))
        npt.assert_allclose(s, CHI_TWO_STATE, atol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        r = random_density(4, rng)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(g)
        rotated = it.DensityMatrix(q @ r.matrix @ q.conj().T)
        npt.assert_allclose(
            it.von_neumann_entropy(rotated), it.von_neumann_entropy(r), atol=1e-9
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_range(self, seed):
        r = random_density(4, np.random.default_rng(seed + 100))
        s = it.von_neumann_entropy(r)
        assert 0.0 <= s <= 2.0 + 1e-12


class TestShannonEntropy:
    @pytest.mark.parametrize(
        "p,expected",
        [([1.0, 0.0], 0.0), ([0.5, 0.5], 1.0), ([0.75, 0.25], H_THREE_QUARTERS)],
    )
    def test_values(self, p, expected):
        npt.assert_allclose(it.shannon_entropy(p), expected, atol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            it.shannon_entropy([1.1, -0.1])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            it.shannon_entropy([0.5, 0.4])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="non-finite"):
            it.shannon_entropy([np.nan, 1.0])


class TestProbabilityChecks:
    # shannon_entropy and Ensemble run the same three checks through one
    # builder, quantum._probability_checks, naming the entries
    # "probability"/"prior" and the vector "probabilities"/"priors"; every
    # message is pinned byte for byte
    CASES = [
        ([np.nan, 1.0], "{plural} have non-finite entries"),
        ([np.inf, 0.0], "{plural} have non-finite entries"),
        ([np.nan, -0.5], "{plural} have non-finite entries"),
        ([1.1, -0.1], "negative {noun} -1.000e-01"),
        ([-0.5, 0.5], "negative {noun} -5.000e-01"),
        ([0.3, -2e-12, 0.6], "negative {noun} -2.000e-12"),
        ([0.5, 0.4], "{plural} sum to 0.9, expected 1"),
        ([0.1] * 9, "{plural} sum to 0.9, expected 1"),
        ([0.125] * 7 + [0.1], "{plural} sum to 0.975, expected 1"),
        ([0.1] * 11, "{plural} sum to 1.1, expected 1"),
    ]

    @staticmethod
    def message(call):
        with pytest.raises(ValidationError) as info:
            call()
        return str(info.value)

    @pytest.mark.parametrize("p, template", CASES)
    def test_messages_are_pinned(self, p, template):
        states = tuple(it.maximally_mixed(2) for _ in p)
        assert self.message(lambda: it.shannon_entropy(p)) == template.format(
            noun="probability", plural="probabilities"
        )
        assert self.message(lambda: it.Ensemble(p, states)) == template.format(
            noun="prior", plural="priors"
        )

    def test_empty_and_clipped_vectors(self):
        assert self.message(lambda: it.shannon_entropy([])) == (
            "probabilities sum to 0, expected 1"
        )
        assert it.shannon_entropy([1.0 + 1e-13, -1e-13]) == 0.0
        e = it.Ensemble([1.0 + 1e-13, -1e-13], (it.maximally_mixed(2),) * 2)
        assert e.probs.tolist() == [1.0 + 1e-13, 0.0]

    # two vectors whose numpy sum and in-order sum from +0 straddle
    # 1 + TRACE_TOL, one each way: the check tests the in-order sum, the sum
    # its message prints (np.add.reduceat adds a run of 8 or more scalars
    # pairwise too, so it is no in-order reference)
    OVER = [
        0.05646061994320218, 0.10699462668558724, 0.09926459622372052, 0.07207252171800695,
        0.1000091952536735, 0.09683106562197386, 0.12691167340827572, 0.13179534987225378,
        0.12628045653201064, 0.01564952655757314, 0.06773036918372259,
    ]
    WITHIN = [
        0.10756011638443494, 0.06633776366727294, 0.06833890058984103, 0.022939289967498583,
        0.062157270936432, 0.061851517219490205, 0.010509054894954347, 0.11603098192347508,
        0.06751880028408348, 0.0007573038159735974, 0.09129987536757632, 0.11559649270112202,
        0.06970182585235274, 0.03777509056324787, 0.022156796446893372, 0.07946892038535144,
    ]

    def test_the_sum_check_tests_the_printed_sum(self):
        over, within = np.array(self.OVER), np.array(self.WITHIN)
        assert abs(over.sum() - 1.0) > TRACE_TOL >= abs(in_order(self.OVER) - 1.0)
        assert abs(within.sum() - 1.0) <= TRACE_TOL < abs(in_order(self.WITHIN) - 1.0)
        states = tuple(it.maximally_mixed(2) for _ in self.WITHIN)
        assert self.message(lambda: it.Ensemble(within, states)) == (
            "priors sum to 1.000000001, expected 1"
        )
        assert self.message(lambda: it.shannon_entropy(within)) == (
            "probabilities sum to 1.000000001, expected 1"
        )
        it.Ensemble(over, tuple(it.maximally_mixed(2) for _ in self.OVER))
        it.shannon_entropy(over)

    def test_both_callers_use_the_one_builder(self, monkeypatch):
        seen = []
        real = quantum._probability_checks

        def spy(flat, lengths, *names):
            seen.append(names)
            return real(flat, lengths, *names)

        monkeypatch.setattr(quantum, "_probability_checks", spy)
        it.shannon_entropy([0.5, 0.5])
        it.Ensemble([0.5, 0.5], (it.maximally_mixed(2),) * 2)
        assert seen == [("probability", "probabilities"), ()]


class TestHolevoChi:
    def test_identical_members(self):
        r = random_density(2, np.random.default_rng(1))
        e = it.Ensemble([0.3, 0.7], (r, r))
        assert it.holevo_chi(e) <= 1e-12

    def test_orthogonal_pure(self, orthogonal_ensemble):
        npt.assert_allclose(it.holevo_chi(orthogonal_ensemble), 1.0, atol=1e-12)

    def test_two_state(self, two_state_ensemble):
        npt.assert_allclose(it.holevo_chi(two_state_ensemble), CHI_TWO_STATE, atol=1e-9)

    @pytest.mark.parametrize("seed", range(15))
    def test_bounded_by_prior_entropy(self, seed):
        rng = np.random.default_rng(seed)
        e = random_ensemble(3, 4, rng, pure=bool(seed % 2))
        chi = it.holevo_chi(e)
        assert chi >= 0.0
        assert chi <= it.shannon_entropy(e.probs) + 1e-9


class TestCommutation:
    def test_diagonal_states_commute(self):
        e = it.Ensemble(
            [0.5, 0.5],
            (it.DensityMatrix(np.diag([0.9, 0.1])), it.DensityMatrix(np.diag([0.2, 0.8]))),
        )
        assert it.ensemble_commutes(e)

    def test_two_state_does_not(self, two_state_ensemble):
        assert not it.ensemble_commutes(two_state_ensemble)

    def test_single_member_commutes(self):
        e = it.Ensemble([1.0], (random_density(3, np.random.default_rng(2)),))
        assert it.ensemble_commutes(e)


class TestSharedEigenbasis:
    @pytest.mark.parametrize("seed", range(8))
    def test_diagonalizes_all_members(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(g)
        states = tuple(
            it.DensityMatrix((u * rng.dirichlet(np.ones(3))) @ u.conj().T)
            for _ in range(3)
        )
        e = it.Ensemble(rng.dirichlet(np.ones(3)), states)
        basis = it.shared_eigenbasis(e)
        for s in states:
            rotated = basis.conj().T @ s.matrix @ basis
            off = rotated - np.diag(np.diag(rotated))
            assert np.max(np.abs(off)) <= 1e-8

    def test_rejects_non_commuting(self, two_state_ensemble):
        with pytest.raises(ValidationError):
            it.shared_eigenbasis(two_state_ensemble)
