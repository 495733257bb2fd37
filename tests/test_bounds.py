import itertools
import json

import numpy as np
import numpy.testing as npt
import pytest

import infotherm as it
from infotherm import bounds, cli, linops, measurement, suite_rng
from infotherm.blockcoding import DIM_CAP
from infotherm.bounds import BOUND_TOL
from infotherm.linops import (
    PSD_EPSILON,
    _eigenvalue_function,
    _psd_function_stack,
    _segments,
    as_complex_matrix,
    psd_function,
)
from infotherm.errors import (
    BudgetExceeded,
    NegativeEigenvalue,
    NotHermitian,
    NumericalFailure,
    ToolkitError,
    UnsupportedDimension,
    ValidationError,
)

from conftest import (
    CHI_TWO_STATE,
    DS_COMPUTATIONAL,
    DS_HELSTROM,
    INFO_COMPUTATIONAL,
    INFO_HELSTROM,
    count_eighs,
    fail_solver,
    seed_states,
)


class TestEvaluateBounds:
    def test_two_state_computational(self, two_state_ensemble, computational_basis):
        rep = it.evaluate_bounds(two_state_ensemble, computational_basis)
        npt.assert_allclose(rep.accessible_info, INFO_COMPUTATIONAL, atol=1e-9)
        npt.assert_allclose(rep.chi, CHI_TWO_STATE, atol=1e-9)
        npt.assert_allclose(rep.delta_s, DS_COMPUTATIONAL, atol=1e-9)
        npt.assert_allclose(rep.holevo_slack, CHI_TWO_STATE - INFO_COMPUTATIONAL, atol=1e-9)
        npt.assert_allclose(rep.thermo_slack, 0.5, atol=1e-9)
        assert rep.holevo_satisfied and rep.thermo_satisfied

    def test_two_state_helstrom(self, two_state_ensemble, helstrom_basis):
        rep = it.evaluate_bounds(two_state_ensemble, helstrom_basis)
        npt.assert_allclose(rep.accessible_info, INFO_HELSTROM, atol=1e-9)
        npt.assert_allclose(rep.delta_s, DS_HELSTROM, atol=1e-9)
        assert rep.holevo_satisfied and rep.thermo_satisfied

    def test_classical_saturation(self, orthogonal_ensemble, computational_basis):
        rep = it.evaluate_bounds(orthogonal_ensemble, computational_basis)
        npt.assert_allclose(rep.accessible_info, 1.0, atol=1e-12)
        npt.assert_allclose(rep.holevo_slack, 0.0, atol=1e-12)
        npt.assert_allclose(rep.delta_s, 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_slack_identity(self, seed):
        e, v = it.random_instance(3, 3, 3, "mixed", seed)
        rep = it.evaluate_bounds(e, v)
        npt.assert_allclose(
            rep.thermo_slack, rep.holevo_slack + rep.delta_s, atol=1e-12
        )


class TestOptimizerConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValidationError):
            it.OptimizerConfig(method="gradient")

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValidationError):
            it.OptimizerConfig(grid_points=1)
        with pytest.raises(ValidationError):
            it.OptimizerConfig(restarts=0)
        with pytest.raises(ValidationError):
            it.OptimizerConfig(convergence_tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_convergence_tol(self, tol):
        with pytest.raises(ValidationError):
            it.OptimizerConfig(convergence_tol=tol)

    @pytest.mark.parametrize("tol", ["0.1", None, True, 1e-3j])
    def test_rejects_a_convergence_tol_that_is_not_a_real_number(self, tol):
        with pytest.raises(ValidationError, match="^convergence_tol must be a real number, got "):
            it.OptimizerConfig(method="random_restart_ascent", convergence_tol=tol)

    @pytest.mark.parametrize("tol", [1, 1e-3, np.float64(1e-3), np.float32(1e-3), np.int64(1)])
    def test_real_convergence_tols_are_accepted(self, tol):
        assert it.OptimizerConfig(convergence_tol=tol).convergence_tol == tol

    @pytest.mark.parametrize("field", ["grid_points", "restarts", "max_iterations", "seed"])
    @pytest.mark.parametrize("value", [True, 2.5, 3.0, "3"])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValidationError):
            it.OptimizerConfig(**{field: value})

    def test_grid_points_are_capped(self):
        assert it.OptimizerConfig(grid_points=bounds.GRID_CAP).grid_points == 1000
        with pytest.raises(ValidationError, match=f"cap {bounds.GRID_CAP}"):
            it.OptimizerConfig(grid_points=bounds.GRID_CAP + 1)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            it.OptimizerConfig(method="random_restart_ascent", seed=-1)

    def test_numpy_integers_are_integers(self):
        cfg = it.OptimizerConfig(
            grid_points=np.int64(20), restarts=np.int32(2), max_iterations=np.uint8(5),
            seed=np.int64(3),
        )
        assert cfg.restarts == 2


class TestQubitGrid:
    def test_two_state_optimum(self, two_state_ensemble):
        best, rep = it.maximize_accessible_information(
            two_state_ensemble, it.OptimizerConfig(method="qubit_grid")
        )
        npt.assert_allclose(rep.accessible_info, INFO_HELSTROM, atol=1e-4)
        assert best.projective and best.size == 2

    def test_identical_states_give_zero(self):
        r = it.pure_state([1.0, 1.0j])
        e = it.Ensemble([0.5, 0.5], (r, r))
        _, rep = it.maximize_accessible_information(e, it.OptimizerConfig())
        assert rep.accessible_info <= 1e-9

    def test_orthogonal_states_give_one(self, orthogonal_ensemble):
        _, rep = it.maximize_accessible_information(
            orthogonal_ensemble, it.OptimizerConfig()
        )
        npt.assert_allclose(rep.accessible_info, 1.0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_never_exceeds_chi(self, seed):
        rng = np.random.default_rng(seed)
        e, _ = it.random_instance(2, int(rng.integers(2, 5)), 2, "pure", seed)
        _, rep = it.maximize_accessible_information(
            e, it.OptimizerConfig(grid_points=40)
        )
        assert rep.accessible_info <= rep.chi + 1e-9

    def test_global_phase_invariance(self):
        kets = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)]
        plain = it.Ensemble([0.5, 0.5], tuple(it.pure_state(k) for k in kets))
        phased = it.Ensemble(
            [0.5, 0.5],
            tuple(it.pure_state(np.exp(1j * (0.7 + i)) * k) for i, k in enumerate(kets)),
        )
        cfg = it.OptimizerConfig(grid_points=60)
        best_a, rep_a = it.maximize_accessible_information(plain, cfg)
        best_b, rep_b = it.maximize_accessible_information(phased, cfg)
        assert rep_a.accessible_info == rep_b.accessible_info
        for ea, eb in zip(best_a.elements, best_b.elements):
            npt.assert_allclose(ea, eb, atol=1e-12)

    def test_rejects_higher_dimensions(self):
        e = it.Ensemble(
            [0.5, 0.5],
            (it.pure_state([1, 0, 0]), it.pure_state([0, 1, 0])),
        )
        with pytest.raises(UnsupportedDimension):
            it.maximize_accessible_information(e, it.OptimizerConfig())


class TestRandomRestartAscent:
    CFG = dict(method="random_restart_ascent", restarts=2, max_iterations=40, seed=7)

    def test_two_state_close_to_optimum(self, two_state_ensemble):
        _, rep = it.maximize_accessible_information(
            two_state_ensemble, it.OptimizerConfig(**self.CFG)
        )
        assert rep.accessible_info >= INFO_HELSTROM - 5e-3
        assert rep.accessible_info <= rep.chi + 1e-9

    def test_deterministic_given_seed(self, two_state_ensemble):
        cfg = it.OptimizerConfig(**self.CFG)
        _, rep_a = it.maximize_accessible_information(two_state_ensemble, cfg)
        _, rep_b = it.maximize_accessible_information(two_state_ensemble, cfg)
        assert rep_a.accessible_info == rep_b.accessible_info

    def test_returns_valid_measurement(self, two_state_ensemble):
        best, _ = it.maximize_accessible_information(
            two_state_ensemble, it.OptimizerConfig(**self.CFG)
        )
        # dim^2 outcomes on a qubit; completeness enforced by the type
        assert best.size == 4
        total = sum(best.elements)
        npt.assert_allclose(total, np.eye(2), atol=1e-8)

    def test_orthogonal_states_near_one(self, orthogonal_ensemble):
        _, rep = it.maximize_accessible_information(
            orthogonal_ensemble, it.OptimizerConfig(**self.CFG)
        )
        assert rep.accessible_info >= 1.0 - 5e-3

    def test_works_beyond_qubits(self):
        e = it.Ensemble(
            [0.5, 0.5],
            (it.pure_state([1, 0, 0]), it.pure_state([0, 1, 0])),
        )
        _, rep = it.maximize_accessible_information(
            e,
            it.OptimizerConfig(
                method="random_restart_ascent",
                restarts=1,
                max_iterations=8,
                seed=3,
            ),
        )
        assert rep.accessible_info >= 0.98
        assert rep.accessible_info <= rep.chi + 1e-9


class TestAscentBudget:
    """restarts * (max_iterations + 1) * (n d^4 + ASCENT_STEP_WORK) against
    ``ASCENT_WORK_CAP``, checked before the first step."""

    CFG = dict(method="random_restart_ascent", restarts=2, max_iterations=3, seed=0)

    @staticmethod
    def work(n, d, restarts, max_iterations):
        return restarts * (max_iterations + 1) * (n * d**4 + bounds.ASCENT_STEP_WORK)

    def test_work_at_the_cap_runs_and_one_past_it_raises(self, monkeypatch, two_state_ensemble):
        cfg = it.OptimizerConfig(**self.CFG)
        work = self.work(2, 2, 2, 3)
        monkeypatch.setattr(bounds, "ASCENT_WORK_CAP", work)
        it.maximize_accessible_information(two_state_ensemble, cfg)
        monkeypatch.setattr(bounds, "ASCENT_WORK_CAP", work - 1)
        with pytest.raises(BudgetExceeded, match=f"ascent work {work} "):
            it.maximize_accessible_information(two_state_ensemble, cfg)

    def test_refused_before_the_first_step(self, monkeypatch, two_state_ensemble):
        # a restart's start and every step normalise the kets and score
        # them, so each patched call fires on an admitted run, and neither
        # may fire on a refused one
        def step(*args, **kwargs):
            raise AssertionError("the ascent took a step")

        admitted = it.OptimizerConfig(**self.CFG)
        refused = it.OptimizerConfig(**dict(self.CFG, restarts=np.int64(2**62)))
        for called in ("_normalised", "_ascent_score"):
            with monkeypatch.context() as patch:
                patch.setattr(bounds, called, step)
                with pytest.raises(AssertionError, match="took a step"):
                    it.maximize_accessible_information(two_state_ensemble, admitted)
        monkeypatch.setattr(bounds, "_normalised", step)
        monkeypatch.setattr(bounds, "_ascent_score", step)
        with pytest.raises(BudgetExceeded, match="exceeds the cap"):
            it.maximize_accessible_information(two_state_ensemble, refused)

    @pytest.mark.parametrize(
        "n, d, restarts, max_iterations",
        [(4, 4, 8, 200), (4, 2, 1, 20), (2, 2, 8, 200)],
        ids=["ququart default", "bench optimize", "qubit default"],
    )
    def test_configs_in_use_are_admitted(self, n, d, restarts, max_iterations):
        assert self.work(n, d, restarts, max_iterations) <= bounds.ASCENT_WORK_CAP


def _qubit_ket(theta, phi):
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def _equal_prior_ensemble(kets):
    states = tuple(it.pure_state(k) for k in kets)
    return it.Ensemble(np.full(len(states), 1.0 / len(states)), states)


def _subentropy(r):
    """Q(rho) = -sum_k prod_{l != k} lam_k / (lam_k - lam_l) * lam_k log2 lam_k,
    over the nonzero eigenvalues of rho (Jozsa, Robb & Wootters 1994)."""
    lam = np.linalg.eigvalsh(r.matrix)
    lam = lam[lam > 1e-12]
    q = 0.0
    for k, lk in enumerate(lam):
        weight = np.prod([lk / (lk - ll) for ll in np.delete(lam, k)])
        q -= weight * lk * np.log2(lk)
    return q


class TestRankOneAscentGates:
    """The ascent at its default config against closed forms and floors."""

    CFG = it.OptimizerConfig(method="random_restart_ascent")

    def test_trine_reaches_log2_three_halves(self):
        # Sasaki, Barnett, Jozsa, Osaki & Hirota, PRA 59, 3325 (1999)
        trine = _equal_prior_ensemble(
            [_qubit_ket(2 * np.pi * k / 3, 0) for k in range(3)]
        )
        _, rep = it.maximize_accessible_information(trine, self.CFG)
        assert abs(rep.accessible_info - np.log2(1.5)) <= 1e-6

    def test_sic_tetrahedron_reaches_log2_four_thirds(self):
        # Davies, IEEE Trans. Inf. Theory 24, 596 (1978)
        theta = np.arccos(-1.0 / 3.0)
        sic = _equal_prior_ensemble(
            [_qubit_ket(0, 0)] + [_qubit_ket(theta, 2 * np.pi * k / 3) for k in range(3)]
        )
        _, rep = it.maximize_accessible_information(sic, self.CFG)
        assert abs(rep.accessible_info - np.log2(4.0 / 3.0)) <= 1e-6

    @pytest.mark.parametrize("seed", range(30))
    def test_between_subentropy_and_chi(self, seed):
        dim, n_states = 2 + seed % 2, 2 + seed % 3
        e, _ = it.random_instance(dim, n_states, 2, "pure", seed)
        _, rep = it.maximize_accessible_information(e, self.CFG)
        assert rep.accessible_info >= _subentropy(it.average_state(e))
        assert rep.accessible_info <= rep.chi + BOUND_TOL
        if dim == 2:
            _, grid = it.maximize_accessible_information(e, it.OptimizerConfig())
            assert rep.accessible_info >= grid.accessible_info - 1e-6


class TestRankOnePovm:
    """The ascent's result, |k><k| for each ket, stacked in one product."""

    @pytest.mark.parametrize("d", [2, 3, 24])
    def test_elements_equal_the_outer_products(self, d):
        rng = np.random.default_rng(d)
        kets = rng.normal(size=(d, d * d)) + 1j * rng.normal(size=(d, d * d))
        s = kets @ kets.conj().T
        kets = psd_function(s, lambda x: 1.0 / np.sqrt(x), pseudo=True) @ kets
        v = bounds._rank_one_povm(kets)
        reference = it.Povm(tuple(np.outer(k, k.conj()) for k in kets.T))
        assert len(v.elements) == d * d
        for el, ref in zip(v.elements, reference.elements):
            assert el.tobytes() == ref.tobytes()
            assert not el.flags.writeable
        assert v.projective == reference.projective

    def test_orthonormal_kets_are_projective(self):
        assert bounds._rank_one_povm(np.eye(3, dtype=complex)).projective

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kets_raise(self, bad):
        kets = np.eye(2, dtype=complex)
        kets[1, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            bounds._rank_one_povm(kets)


def _raised(fn, *args):
    """(type, message) of the ``ToolkitError`` that ``fn(*args)`` raises."""
    with pytest.raises(ToolkitError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def _inverse_root(s):
    return psd_function(s, lambda x: 1.0 / np.sqrt(x), pseudo=True)


def _reference_inverse_root(s):
    """``_inverse_root`` through the stacked path, as one item."""
    return _psd_function_stack(as_complex_matrix(s)[None], lambda x: 1.0 / np.sqrt(x), True)[0]


def _reference_normalised(kets):
    return _reference_inverse_root(kets @ kets.conj().T) @ kets


def _reference_score(kets, weighted, probs):
    """The step's table, log table and information as a validating
    ``JointDistribution`` and ``mutual_information`` give them."""
    joint = it.JointDistribution(np.einsum("ak,iab,bk->ik", kets.conj(), weighted, kets).real)
    q = joint.matrix
    ratio = np.divide(q, probs[:, None] * q.sum(axis=0), out=np.ones_like(q), where=q > 0.0)
    return np.log2(ratio), it.mutual_information(joint)


def _weighted(e):
    return e.probs[:, None, None] * np.stack([s.matrix for s in e.states])


def _one_step(step, *args):
    """``step(*args, record)`` with a record of its own, as one checked call:
    it computes as the ascent's steps compute, and the checks it records
    run as it returns."""
    checks = bounds._StepChecks()
    with np.errstate(all="ignore"):
        out = step(*args, checks)
    checks.run()
    return out


def _normalised(kets, step=bounds._normalised):
    """The ascent's ``_normalised`` of a stack of (d, K) kets, or of one as
    a stack of one, as one checked call."""
    if kets.ndim == 2:
        return _normalised(kets[None], step)[0]
    return _one_step(step, kets)


def _ascent_score(kets, weighted, probs, step=bounds._ascent_score):
    """The ascent's ``_ascent_score`` of a stack of (d, K) kets, or of one
    as a stack of one, as one checked call, the priors given flat or as the
    (n, 1) column it reads, with a buffer of its own."""
    if kets.ndim == 2:
        logs, info = _ascent_score(kets[None], weighted, probs, step)
        return logs[0], info[0]
    buffer = np.empty(kets.shape[:-2] + (len(weighted), kets.shape[-1]))
    return _one_step(step, kets, weighted, np.reshape(probs, (-1, 1)), buffer)


class TestAscentStep:
    """One eigensolve of S = K K+ and one log table a step, with every check
    of ``psd_function``, ``JointDistribution`` and ``mutual_information``:
    the bits of the stacked ``psd_function`` path and of the validating
    classes where they pass, their error where they fail."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 24])
    def test_normalisation_matches_the_stacked_path_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        for rank in (d, d - 1):
            kets = rng.normal(size=(d, d * d)) + 1j * rng.normal(size=(d, d * d))
            kets[rank:] = 0.0  # a kernel when rank < d
            got = _normalised(kets)
            assert got.tobytes() == _reference_normalised(kets).tobytes()

    @pytest.mark.parametrize("seed", range(12))
    def test_score_matches_the_validating_path(self, seed):
        # zero kets past a basis leave zero columns in the table, and basis
        # states measured in their own basis zeros off the diagonal
        d = 2 + seed % 3
        if seed % 2:
            e, v = it.random_instance(d, 2 + seed % 3, d, "commuting", seed)
            basis = np.linalg.eigh(sum(v.elements[k] * (k + 1) for k in range(d)))[1]
        else:
            states = tuple(it.pure_state(ket) for ket in np.eye(d))
            e = it.Ensemble(np.random.default_rng(seed).dirichlet(np.ones(d)), states)
            basis = np.eye(d, dtype=complex)
        kets = np.concatenate([basis, np.zeros((d, d * d - d))], axis=1)
        weighted = _weighted(e)
        logs, info = _ascent_score(kets, weighted, e.probs)
        ref_logs, ref_info = _reference_score(kets, weighted, e.probs)
        assert np.count_nonzero(np.einsum("ak,iab,bk->ik", kets.conj(), weighted, kets) == 0)
        assert logs.tobytes() == ref_logs.tobytes()
        assert abs(info - ref_info) <= 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kets(self, bad):
        kets = np.ones((2, 4), dtype=complex)
        kets[1, 2] = bad
        expected = (ValidationError, "matrix has non-finite entries")
        with np.errstate(invalid="ignore"):  # inf * 0 in K K+
            got = _raised(_normalised, kets)
            assert got == _raised(_reference_normalised, kets) == expected

    def test_non_hermitian_matrix(self):
        s = np.array([[1.0, 1e-3], [0.0, 1.0]], dtype=complex)
        expected = (NotHermitian, "matrix deviates from Hermitian by 1.000e-03 (tolerance 1.0e-09)")
        assert _raised(_inverse_root, s) == _raised(_reference_inverse_root, s) == expected

    def test_reconstruction_failure(self, monkeypatch, two_state_ensemble):
        # numpy's solver, which every step calls, checked or not
        eigh = np.linalg._umath_linalg.eigh_lo

        def wrong_vectors(a, *args, **kwargs):
            w, v = eigh(a, *args, **kwargs)
            return w, np.broadcast_to(np.eye(a.shape[-1]), v.shape)

        kets = np.random.default_rng(0).normal(size=(2, 4)) + 0j
        monkeypatch.setattr(np.linalg._umath_linalg, "eigh_lo", wrong_vectors)
        expected = (NumericalFailure, "eigendecomposition failed reconstruction check")
        assert _raised(_normalised, kets) == _raised(_reference_normalised, kets) == expected
        cfg = it.OptimizerConfig(method="random_restart_ascent", restarts=1, max_iterations=3)
        assert _raised(it.maximize_accessible_information, two_state_ensemble, cfg) == expected

    def test_negative_eigenvalue(self):
        s = np.diag([-1e-6, 1.0]).astype(complex)
        expected = (NegativeEigenvalue, "matrix has eigenvalue -1.000e-06 below -1.0e-09")
        assert _raised(_inverse_root, s) == _raised(_reference_inverse_root, s) == expected

    # kets along the basis, so q_ik is the k-th diagonal entry of p_i rho_i
    KETS = np.eye(2, dtype=complex)

    def test_table_entry_below_the_clip(self):
        weighted = np.array([np.diag([0.6, 0.0]), np.diag([0.4 + 1e-6, -1e-6])], dtype=complex)
        expected = (ValidationError, "joint probability -1.000e-06 below -1e-12")
        got = _raised(_ascent_score, self.KETS, weighted, np.array([0.6, 0.4]))
        assert got == _raised(_reference_score, self.KETS, weighted, np.array([0.6, 0.4]))
        assert got == expected

    def test_table_sum_off_one(self):
        weighted = np.array([np.diag([0.6, 0.0]), np.diag([0.2, 0.3])], dtype=complex)
        expected = (ValidationError, "joint probabilities sum to 1.1")
        got = _raised(_ascent_score, self.KETS, weighted, np.array([0.6, 0.4]))
        assert got == _raised(_reference_score, self.KETS, weighted, np.array([0.6, 0.4]))
        assert got == expected

    def test_information_below_the_clip(self):
        # priors twice the table's row sums take one bit off every term
        weighted = np.array([np.diag([0.3, 0.2]), np.diag([0.1, 0.4])], dtype=complex)
        probs = np.array([1.0, 1.0])
        q = np.array([[0.3, 0.2], [0.1, 0.4]])
        info = float((q * np.log2(q / (probs[:, None] * q.sum(axis=0)))).sum())
        assert info < -0.5
        expected = (NumericalFailure, f"mutual information came out {info:.3e}")
        assert _raised(_ascent_score, self.KETS, weighted, probs) == expected


#: The ascent's step functions, as the module defines them, as one checked call.
_STEPS = {"_normalised": _normalised, "_ascent_score": _ascent_score}


def _fire_at(monkeypatch, owner, name, calls, spoil):
    """Replace ``owner.<name>`` so that its calls numbered ``calls`` (from
    0) return ``spoil(real, *args)`` and every other call ``real(*args)``."""
    real = getattr(owner, name)
    count = itertools.count()

    def patched(*args, **kwargs):
        return spoil(real, *args, **kwargs) if next(count) in calls else real(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)


def _skew(real, s, *rest):
    s[..., 0, 1] += 1e-3  # in place, so the S the step records is skewed too
    return real(s, *rest)


def _below_zero(real, s, *rest):
    s -= (np.linalg.eigvalsh(s)[..., :1, None] + 1e-6) * np.eye(s.shape[-1])
    return real(s, *rest)


def _wrong_vectors(real, a, *args):
    w, v = real(a, *args)
    return w, np.broadcast_to(np.eye(a.shape[-1]), v.shape)


def _nan_roots(real, x):
    return np.full_like(x, np.nan)


def _inf_roots(real, x):
    return np.full_like(x, np.inf)


def _nan_kets(real, kets, checks):
    kets = kets.copy()
    kets[..., 1, 2] = np.nan
    return real(kets, checks)


def _negative_table(real, kets, weighted, *rest):
    return real(kets, weighted - np.eye(kets.shape[-2]), *rest)


def _heavy_table(real, kets, weighted, *rest):
    return real(kets, 1.1 * weighted, *rest)


def _doubled_priors(real, kets, weighted, priors, *rest):
    return real(kets, weighted, 2.0 * priors, *rest)


class TestDeferredStepChecks:
    """The ascent records each step's checks and runs them stacked, once
    per ``_STEP_BLOCK`` steps and at the end of a restart; the lowest
    failing step raises what the one-step call of that step raises (the
    step's ``_normalised`` or ``_ascent_score`` with a record of its own,
    on the same inputs, with the same spoil)."""

    CFG = it.OptimizerConfig(method="random_restart_ascent", restarts=1, max_iterations=40, seed=7)
    STEP = 5

    @pytest.fixture
    def inputs(self, monkeypatch):
        """The arguments, without the buffer and the record, of every call
        of each step function, in call order."""
        seen = {name: [] for name in _STEPS}
        for name, calls in seen.items():
            kept = 1 if name == "_normalised" else 3

            def recorded(*args, real=getattr(bounds, name), calls=calls, kept=kept):
                calls.append(args[:kept])
                return real(*args)

            monkeypatch.setattr(bounds, name, recorded)
        return seen

    @pytest.fixture
    def held(self, monkeypatch):
        """The records held, (S, f(w), tables, I), at each stacked run."""
        held = []
        run = bounds._StepChecks.run

        def counted(checks):
            held.append(tuple(map(len, (checks.s, checks.fw, checks.tables, checks.infos))))
            run(checks)

        monkeypatch.setattr(bounds._StepChecks, "run", counted)
        return held

    @pytest.fixture
    def runs(self, monkeypatch):
        """The number of restarts of each lockstep run, in order."""
        runs, run = [], bounds._ascent_lockstep

        def spy(*args):
            runs.append(len(args[0]))
            return run(*args)

        monkeypatch.setattr(bounds, "_ascent_lockstep", spy)
        return runs

    def ascent_and_one_step(self, monkeypatch, ensemble, inputs, owner, name, spoil, step=None):
        """(type, message) of the whole ascent with call ``step`` of
        ``owner.<name>`` spoiled, and of the one-step call of that step."""
        step = self.STEP if step is None else step
        _fire_at(monkeypatch, owner, name, {step}, spoil)
        got = _raised(it.maximize_accessible_information, ensemble, self.CFG)
        if name in _STEPS:
            # the recorded arguments are the spoiled ones
            return got, _raised(_STEPS[name], *inputs[name][step])
        _fire_at(monkeypatch, owner, name, {0}, spoil)
        return got, _raised(_STEPS["_normalised"], *inputs["_normalised"][step])

    def test_non_finite_kets(self, monkeypatch, two_state_ensemble, inputs):
        got, one = self.ascent_and_one_step(
            monkeypatch, two_state_ensemble, inputs, bounds, "_normalised", _nan_kets
        )
        assert got == one == (ValidationError, "matrix has non-finite entries")

    def test_non_hermitian_matrix(self, monkeypatch, two_state_ensemble, inputs):
        got, one = self.ascent_and_one_step(
            monkeypatch, two_state_ensemble, inputs, bounds, "_eigh", _skew
        )
        assert got == one
        assert got[0] is NotHermitian and got[1].startswith("matrix deviates from Hermitian by 1.0")

    def test_reconstruction_failure(self, monkeypatch, two_state_ensemble, inputs):
        got, one = self.ascent_and_one_step(
            monkeypatch, two_state_ensemble, inputs, bounds, "_eigh", _wrong_vectors
        )
        assert got == one == (NumericalFailure, "eigendecomposition failed reconstruction check")

    def test_negative_eigenvalue(self, monkeypatch, two_state_ensemble, inputs):
        got, one = self.ascent_and_one_step(
            monkeypatch, two_state_ensemble, inputs, bounds, "_eigh", _below_zero
        )
        assert got == one
        assert got[0] is NegativeEigenvalue and got[1].startswith("matrix has eigenvalue -")

    def test_non_finite_function(self, monkeypatch, two_state_ensemble, inputs):
        got, one = self.ascent_and_one_step(
            monkeypatch, two_state_ensemble, inputs, bounds, "_inverse_root", _nan_roots
        )
        assert got == one == (NumericalFailure, "function produced non-finite eigenvalues")

    def test_table_entry_below_the_clip(self, monkeypatch, two_state_ensemble, inputs):
        got, one = self.ascent_and_one_step(
            monkeypatch, two_state_ensemble, inputs, bounds, "_ascent_score", _negative_table
        )
        assert got == one
        assert got[0] is ValidationError and got[1].startswith("joint probability -")

    def test_table_sum_off_one(self, monkeypatch, two_state_ensemble, inputs):
        got, one = self.ascent_and_one_step(
            monkeypatch, two_state_ensemble, inputs, bounds, "_ascent_score", _heavy_table
        )
        assert got == one
        assert got[0] is ValidationError and got[1].startswith("joint probabilities sum to 1.1")

    def test_information_below_the_clip(self, monkeypatch, two_state_ensemble, inputs):
        got, one = self.ascent_and_one_step(
            monkeypatch, two_state_ensemble, inputs, bounds, "_ascent_score", _doubled_priors
        )
        assert got == one
        assert got[0] is NumericalFailure and got[1].startswith("mutual information came out -")

    def test_the_lower_failing_step_wins(self, monkeypatch, two_state_ensemble, inputs):
        # step 2 fails the last check a step runs, step 5 the first
        _fire_at(monkeypatch, bounds, "_ascent_score", {2}, _doubled_priors)
        _fire_at(monkeypatch, bounds, "_eigh", {5}, _skew)
        got = _raised(it.maximize_accessible_information, two_state_ensemble, self.CFG)
        assert got == _raised(_STEPS["_ascent_score"], *inputs["_ascent_score"][2])
        assert got[0] is NumericalFailure

    def test_a_held_failure_wins_over_a_later_non_finite_matrix(
        self, monkeypatch, two_state_ensemble, inputs
    ):
        # a non-finite S raises at once, after the checks held have run
        _fire_at(monkeypatch, bounds, "_ascent_score", {2}, _heavy_table)
        _fire_at(monkeypatch, bounds, "_normalised", {5}, _nan_kets)
        got = _raised(it.maximize_accessible_information, two_state_ensemble, self.CFG)
        assert got == _raised(_STEPS["_ascent_score"], *inputs["_ascent_score"][2])
        assert got[0] is ValidationError and got[1].startswith("joint probabilities sum to 1.1")

    @pytest.mark.parametrize("step", [3, 4, 5])
    def test_a_failure_at_a_block_boundary(
        self, monkeypatch, two_state_ensemble, inputs, held, step
    ):
        # with blocks of 4, step 3 ends the first block and step 4 begins the second
        monkeypatch.setattr(bounds, "_STEP_BLOCK", 4)
        got, one = self.ascent_and_one_step(
            monkeypatch, two_state_ensemble, inputs, bounds, "_ascent_score", _heavy_table, step
        )
        assert got == one
        assert got[0] is ValidationError and got[1].startswith("joint probabilities sum to 1.1")
        assert held[0] == (4, 4, 4, 4)
        if step > 3:
            assert len(held) >= 2  # the first block passed

    def test_steps_held_never_exceed_the_block(self, two_state_ensemble, held):
        cfg = it.OptimizerConfig(
            method="random_restart_ascent",
            restarts=2,
            max_iterations=400,
            convergence_tol=1e-300,
            seed=3,
        )
        it.maximize_accessible_information(two_state_ensemble, cfg)
        steps = sum(counts[0] for counts in held)
        assert steps > 4 * bounds._STEP_BLOCK
        assert max(max(counts) for counts in held) == bounds._STEP_BLOCK
        # the records of each step are held together and dropped together
        assert all(len(set(counts)) == 1 for counts in held)

    def test_steps_after_a_failing_check_run_on_unwarned(
        self, monkeypatch, two_state_ensemble, inputs, runs
    ):
        # an infinite f(w) fails its check; the steps go on to multiply
        # infinities by zeros, which numpy would warn about outside them,
        # and the held check raises, unwarned, in the one run
        _fire_at(monkeypatch, bounds, "_inverse_root", range(self.STEP, 10**6), _inf_roots)
        got = _raised(it.maximize_accessible_information, two_state_ensemble, self.CFG)
        assert runs == [1]
        assert got == _raised(_STEPS["_normalised"], *inputs["_normalised"][self.STEP])
        assert got == (NumericalFailure, "function produced non-finite eigenvalues")

    @pytest.mark.parametrize("invalid", ["warn", "ignore", "raise"])
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_an_unconverged_eigensolve_raises_as_numpy_eigh_does(
        self, monkeypatch, two_state_ensemble, runs, invalid, restarts
    ):
        # the steps call the solver without np.linalg.eigh and ignore its
        # invalid flag, whatever the caller's setting; the NaNs it returns
        # fail the first check, unwarned, and a group of three runs again
        # from its lowest restart, which raises
        fail_solver(monkeypatch, "eigh_lo", first=self.STEP)
        cfg = it.OptimizerConfig(
            method="random_restart_ascent", restarts=restarts, max_iterations=40, seed=7
        )
        with np.errstate(invalid=invalid):
            got = _raised(it.maximize_accessible_information, two_state_ensemble, cfg)
        assert got == (NumericalFailure, "eigendecomposition failed: Eigenvalues did not converge")
        assert runs == ([1] if restarts == 1 else [3, 1])

    def test_without_numpy_s_private_einsum(
        self, monkeypatch, tmp_path, capsys, two_state_ensemble
    ):
        # where numpy has no c_einsum (numpy 1.x), every einsum goes through
        # np.einsum: the same bits
        cfg = it.OptimizerConfig(method="random_restart_ascent", restarts=3, seed=7)
        ref_povm, ref = it.maximize_accessible_information(two_state_ensemble, cfg)
        ref_csvs = _cli_csvs(tmp_path / "c_einsum", capsys)
        for module in (linops, measurement, bounds):
            monkeypatch.setattr(module, "_einsum", np.einsum)
        povm, got = it.maximize_accessible_information(two_state_ensemble, cfg)
        assert got == ref
        for el, ref_el in zip(povm.elements, ref_povm.elements):
            assert el.tobytes() == ref_el.tobytes()
        assert _cli_csvs(tmp_path / "np_einsum", capsys) == ref_csvs

    def test_a_passing_run_is_never_rerun(self, two_state_ensemble, runs):
        it.maximize_accessible_information(two_state_ensemble, it.OptimizerConfig(
            method="random_restart_ascent", restarts=3, max_iterations=100, seed=11
        ))
        # the three restarts run once, together
        assert runs == [3]


class TestCallerErrorSettings:
    """The steps compute with numpy's floating-point errors ignored, so the
    caller's numpy error settings reach no step: a valid ascent returns the
    same bytes under any of them, and a spoiled step raises the package's
    own error, never ``FloatingPointError``."""

    CFG = it.OptimizerConfig(method="random_restart_ascent", restarts=3, max_iterations=60, seed=7)

    @pytest.mark.parametrize("setting", [{"all": "raise"}, {"under": "raise"}], ids=str)
    @pytest.mark.parametrize("seed", range(3))
    def test_a_valid_ascent_keeps_its_bytes(self, setting, seed):
        e, _ = it.random_instance(2 + seed, 3, 2, ("pure", "mixed", "commuting")[seed], seed)
        ref_povm, ref = it.maximize_accessible_information(e, self.CFG)
        with np.errstate(**setting):
            povm, got = it.maximize_accessible_information(e, self.CFG)
        assert got == ref
        assert [el.tobytes() for el in povm.elements] == [el.tobytes() for el in ref_povm.elements]

    @pytest.mark.parametrize(
        "spoil, expected",
        [
            (
                lambda patch: _fire_at(patch, bounds, "_inverse_root", range(5, 10**6), _inf_roots),
                (NumericalFailure, "function produced non-finite eigenvalues"),
            ),
            (
                lambda patch: fail_solver(patch, "eigh_lo", first=5),
                (NumericalFailure, "eigendecomposition failed: Eigenvalues did not converge"),
            ),
            (
                lambda patch: _fire_at(patch, bounds, "_normalised", range(5, 10**6), _nan_kets),
                (ValidationError, "matrix has non-finite entries"),
            ),
        ],
        ids=["infinite f(w)", "unconverged solve", "non-finite kets"],
    )
    def test_a_spoiled_step_raises_the_package_error(
        self, monkeypatch, two_state_ensemble, spoil, expected
    ):
        spoil(monkeypatch)
        with np.errstate(all="raise"):
            got = _raised(it.maximize_accessible_information, two_state_ensemble, self.CFG)
        assert got == expected

    @staticmethod
    def scored(e):
        """The search's elements and report, a basis measurement's report,
        its ledger and a two-block scan, of ``e``."""
        v = it.basis_measurement(np.eye(2))
        best, report = it.maximize_accessible_information(e, TestCallerErrorSettings.CFG)
        return (
            [el.tobytes() for el in best.elements], report,
            it.evaluate_bounds(e, v), it.run_cycle(e, v), it.block_scan(e, 2),
        )

    @pytest.mark.parametrize("eps", [1e-300, 1e-310])
    def test_underflow_in_the_set_up_and_the_analysis_raises_nothing(self, eps):
        # products of eps with itself (1e-300) or with the priors (1e-310,
        # subnormal) underflow in the ascent's set-up, the joint table, the
        # average state and the ledger, which compute with numpy's errors
        # ignored, once per call
        plus = np.full((2, 2), 0.5)
        states = (np.diag([1 - eps, eps]), np.diag([eps, 1 - eps]), plus)
        e = it.Ensemble([0.4, 0.4, 0.2], tuple(it.DensityMatrix(s) for s in states))
        expected = self.scored(e)
        with np.errstate(under="raise"):
            assert self.scored(e) == expected


def _cli_csvs(folder, capsys):
    """The bytes of the seed-42 suite CSV of 100 trials and of the ``pgm``
    CSV of a mixed qubit pair, written in ``folder``."""
    folder.mkdir()
    e, _ = it.random_instance(2, 2, 2, "mixed", 5)
    states = [[[[x.real, x.imag] for x in row] for row in s.matrix.tolist()] for s in e.states]
    spec = folder / "pair.json"
    spec.write_text(json.dumps({"ensemble": {"priors": e.probs.tolist(), "states": states}}))
    argvs = [
        ["suite", "--trials", "100", "--seed", "42", "--csv", str(folder / "suite.csv")],
        ["pgm", "--spec", str(spec), "--max-m", "3", "--csv", str(folder / "pgm.csv")],
    ]
    assert [cli.main(argv) for argv in argvs] == [0, 0]
    capsys.readouterr()
    return (folder / "suite.csv").read_bytes(), (folder / "pgm.csv").read_bytes()


def _serial_restart(start, weighted, probs, cfg):
    """One restart of the ascent alone, in 2-D arithmetic, as a loop over
    the restarts takes it: its final kets and I, the steps it took, and
    the steps (from 0) it retried."""

    def normalised(kets):
        w, v = np.linalg.eigh(kets @ kets.conj().T)
        fw = _eigenvalue_function(w, lambda x: 1.0 / np.sqrt(x), pseudo=True)
        return (v * fw) @ v.conj().T @ kets

    def score(kets):
        q = np.maximum(np.einsum("ak,iab,bk->ik", kets.conj(), weighted, kets).real, 0.0)
        ratio = np.divide(q, probs[:, None] * q.sum(axis=0), out=np.ones(q.shape), where=q > 0.0)
        logs = np.log2(ratio)
        return logs, max(0.0, (q * logs).sum())

    kets = normalised(start)
    logs, value = score(kets)
    eps, direction, steps, retried = 1.0, None, 0, []
    for _ in range(cfg.max_iterations):
        steps += 1
        if direction is None:
            direction = np.einsum("kab,bk->ak", np.einsum("ik,iab->kab", logs, weighted), kets)
        trial = normalised(kets + eps * direction)
        trial_logs, trial_value = score(trial)
        if trial_value < value:
            eps *= 0.5
            retried.append(steps - 1)
            continue
        gained = trial_value - value
        kets, logs, value, direction = trial, trial_logs, trial_value, None
        if gained < cfg.convergence_tol:
            break
    return kets, value, steps, retried


def _starts(cfg, d):
    """The starts the ascent draws for ``cfg``: each restart's real normals,
    then its imaginary ones."""
    rng = np.random.default_rng(cfg.seed)
    return np.array([
        rng.normal(size=(d, d * d)) + 1j * rng.normal(size=(d, d * d)) for _ in range(cfg.restarts)
    ])


class TestLockstepMatchesSerial:
    """The restarts run in lockstep give each restart the kets and I it
    reaches alone, bit for bit, and the same restart wins."""

    def lockstep_and_serial(self, e, cfg, starts):
        weighted = _weighted(e)
        serial = [_serial_restart(start, weighted, e.probs, cfg) for start in starts]
        lockstep = bounds._ascent_lockstep(starts, weighted, e.probs, cfg, bounds._StepChecks())
        alone = [bounds._ascent_lockstep(x, weighted, e.probs, cfg, bounds._StepChecks())[0]
                 for x in starts[:, None]]
        for got in (lockstep, alone):
            assert len(got) == len(serial) == cfg.restarts
            for (kets, value), (ref, ref_value, _, _) in zip(got, serial):
                assert kets.tobytes() == ref.tobytes()
                assert value == ref_value
        return serial

    @pytest.mark.parametrize("restarts", [1, 3, 8])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_kets_values_and_the_winner(self, d, restarts):
        e, _ = it.random_instance(d, 3, 2, "mixed", d)
        cfg = it.OptimizerConfig(
            method="random_restart_ascent", restarts=restarts, max_iterations=40,
            convergence_tol=1e-5, seed=d,
        )
        serial = self.lockstep_and_serial(e, cfg, _starts(cfg, d))
        # the first restart with the highest I wins, as a serial loop picks it
        best = max(range(restarts), key=lambda r: serial[r][1])
        got = bounds._random_restart_ascent(e, cfg)
        for el, ref in zip(got.elements, bounds._rank_one_povm(serial[best][0]).elements):
            assert el.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("d, groups", [(5, [8]), (8, [8]), (12, [3, 3, 2])])
    def test_larger_dimensions_in_their_groups(self, monkeypatch, d, groups):
        # the default 8 restarts make one group up to d = 8 and groups of 3
        # at d = 12; the stacks' einsums and products keep each one's bits
        e, _ = it.random_instance(d, 3, 2, "mixed", d)
        cfg = it.OptimizerConfig(
            method="random_restart_ascent", max_iterations=6, convergence_tol=1e-300, seed=d
        )
        serial = self.lockstep_and_serial(e, cfg, _starts(cfg, d))
        sizes, lockstep = [], bounds._ascent_lockstep

        def spy(starts, *args):
            sizes.append(len(starts))
            return lockstep(starts, *args)

        monkeypatch.setattr(bounds, "_ascent_lockstep", spy)
        best = max(range(cfg.restarts), key=lambda r: serial[r][1])
        got = bounds._random_restart_ascent(e, cfg)
        assert sizes == groups
        for el, ref in zip(got.elements, bounds._rank_one_povm(serial[best][0]).elements):
            assert el.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("restarts", [3, 8])
    def test_restarts_that_stop_at_different_steps_and_retry(self, restarts):
        e, _ = it.random_instance(2, 3, 2, "mixed", 0)
        cfg = it.OptimizerConfig(
            method="random_restart_ascent", restarts=restarts, max_iterations=60, seed=0
        )
        serial = self.lockstep_and_serial(e, cfg, _starts(cfg, 2))
        steps = [s for _, _, s, _ in serial]
        assert max(steps) < cfg.max_iterations and len(set(steps)) > 1
        assert all(retried for _, _, _, retried in serial)  # each halved its eps
        # the share of the restarts still going at a step that retry it:
        # some steps are retried by some of them, and at 3 restarts one
        # step by all of them, which keeps every row's direction
        shares = []
        for t in range(max(steps)):
            going = [retried for _, _, s, retried in serial if t < s]
            shares.append(sum(t in retried for retried in going) / len(going))
        assert any(0 < x < 1 for x in shares)
        assert restarts != 3 or 1 in shares

    def test_restarts_in_groups(self, monkeypatch):
        # stacks bounded to two restarts' entries: groups of 2, 2 and 1
        e, _ = it.random_instance(3, 3, 2, "mixed", 3)
        cfg = it.OptimizerConfig(
            method="random_restart_ascent", restarts=5, max_iterations=40,
            convergence_tol=1e-5, seed=3,
        )
        monkeypatch.setattr(bounds, "_LOCKSTEP_ENTRIES", 2 * (3**4 + e.size * 9))
        sizes, lockstep = [], bounds._ascent_lockstep

        def spy(starts, *args):
            sizes.append(len(starts))
            return lockstep(starts, *args)

        monkeypatch.setattr(bounds, "_ascent_lockstep", spy)
        serial = [_serial_restart(x, _weighted(e), e.probs, cfg) for x in _starts(cfg, 3)]
        best = max(range(cfg.restarts), key=lambda r: serial[r][1])
        got = bounds._random_restart_ascent(e, cfg)
        assert sizes == [2, 2, 1]
        for el, ref in zip(got.elements, bounds._rank_one_povm(serial[best][0]).elements):
            assert el.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("restarts, first", [(1, 0), (3, 0), (8, 0), (3, 1), (8, 1)])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_a_kernel_of_s(self, d, restarts, first):
        # states and every other restart's kets from restart ``first`` on
        # off the last level keep it S's kernel at every step, so the stack
        # takes S^-1/2's kernel branch with full-rank restarts beside them,
        # the first of them or not
        rng = np.random.default_rng(d)
        kets = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
        kets[:, -1] = 0.0
        e = _equal_prior_ensemble(kets)
        cfg = it.OptimizerConfig(
            method="random_restart_ascent", restarts=restarts, max_iterations=30, seed=d
        )
        starts = _starts(cfg, d)
        starts[first::2, -1] = 0.0
        serial = self.lockstep_and_serial(e, cfg, starts)
        final = serial[first][0]
        assert np.linalg.eigvalsh(final @ final.conj().T)[0] <= PSD_EPSILON


class TestLockstepEigensolves:
    """One batched eigensolve a lockstep step, whatever the restarts."""

    def test_a_default_run_makes_at_most_one_eigensolve_a_step(self, monkeypatch):
        e, _ = it.random_instance(3, 3, 2, "pure", 1)
        calls = count_eighs(monkeypatch)
        bounds._random_restart_ascent(e, it.OptimizerConfig(method="random_restart_ascent"))
        assert 0 < len(calls) <= 201

    def test_eight_restarts_of_200_steps_make_201(self, monkeypatch):
        # every restart takes all 200 steps: 8 x 201 eigensolves one at a time
        e, _ = it.random_instance(3, 3, 2, "pure", 1)
        cfg = it.OptimizerConfig(method="random_restart_ascent", convergence_tol=1e-300)
        calls = count_eighs(monkeypatch)
        bounds._random_restart_ascent(e, cfg)
        assert len(calls) == cfg.max_iterations + 1


def _skew_rows(real, rows, s, *rest):
    s[rows, 0, 1] += 1e-3  # in place, so the S the step records is skewed too
    return real(s, *rest)


def _heavy_rows(real, rows, kets, *rest):
    kets = kets.copy()
    kets[rows] *= np.sqrt(1.1)  # their tables sum to 1.1
    return real(kets, *rest)


def _nan_rows(real, rows, kets, checks):
    kets = kets.copy()
    kets[rows, 1, 2] = np.nan
    return real(kets, checks)


def _inf_root_rows(real, rows, w):
    fw = real(w)
    fw[rows] = np.inf
    return fw


class TestLockstepErrorOrder:
    """A lockstep run that raises runs again restart by restart, so the
    lowest failing restart raises its first failing step's error, as a
    loop over the restarts raises it, whatever step a later restart fails
    at."""

    CFG = it.OptimizerConfig(method="random_restart_ascent", restarts=2, max_iterations=40, seed=7)

    @pytest.fixture
    def fault(self, monkeypatch):
        """``fault(name, where, spoil)`` patches ``bounds.<name>`` so that in
        each lockstep run, of one restart or more, its call t returns
        ``spoil(real, rows, *args)``, ``rows`` the rows of the restarts r
        with (r, t) in ``where``.  ``fault.runs()`` lists each run's
        restarts, in order."""
        runs, calls, lockstep = [], {}, bounds._ascent_lockstep

        def run(starts, *args):
            every = runs[0][0] if runs else starts
            found = [int(np.flatnonzero((every == s).all(axis=(1, 2)))[0]) for s in starts]
            runs.append((every, found))
            calls.clear()
            return lockstep(starts, *args)

        def patch(name, where, spoil):
            real = getattr(bounds, name)

            def patched(*args):
                t = calls[name] = calls.get(name, -1) + 1
                _, restarts = runs[-1]
                rows = [row for row, r in enumerate(restarts) if (r, t) in where]
                if not rows:
                    return real(*args)
                assert len(args[0]) == len(restarts)  # no restart has stopped
                return spoil(real, rows, *args)

            monkeypatch.setattr(bounds, name, patched)

        monkeypatch.setattr(bounds, "_ascent_lockstep", run)
        patch.runs = lambda: [restarts for _, restarts in runs]
        return patch

    def ascent(self, two_state_ensemble):
        return _raised(it.maximize_accessible_information, two_state_ensemble, self.CFG)

    def test_a_lower_restart_failing_at_a_later_step_wins(self, fault, two_state_ensemble):
        fault("_eigh", {(0, 5)}, _skew_rows)
        fault("_ascent_score", {(1, 2)}, _heavy_rows)
        got = self.ascent(two_state_ensemble)
        assert got[0] is NotHermitian and got[1].startswith("matrix deviates from Hermitian by 1.0")
        assert fault.runs() == [[0, 1], [0]]

    def test_a_lower_restart_failing_at_a_step_after_a_later_restart(
        self, fault, two_state_ensemble
    ):
        fault("_ascent_score", {(0, 2)}, _heavy_rows)
        fault("_eigh", {(1, 1)}, _skew_rows)
        got = self.ascent(two_state_ensemble)
        assert got[0] is ValidationError and got[1].startswith("joint probabilities sum to 1.1")
        assert fault.runs() == [[0, 1], [0]]

    def test_the_failing_restart_raises_as_it_does_alone(self, fault, two_state_ensemble):
        fault("_ascent_score", {(1, 2)}, _heavy_rows)
        fault("_eigh", {(1, 5)}, _skew_rows)
        got = self.ascent(two_state_ensemble)
        assert fault.runs() == [[0, 1], [0], [1]]
        # restart 1 alone, from its own start, raises the same error
        start = _starts(self.CFG, 2)[1:]
        alone = _raised(bounds._ascent_lockstep, start, _weighted(two_state_ensemble),
                        two_state_ensemble.probs, self.CFG, bounds._StepChecks())
        assert got == alone
        assert got[0] is ValidationError and got[1].startswith("joint probabilities sum to 1.1")

    def test_a_non_finite_matrix_in_a_later_restart_waits_for_the_lower_one(
        self, fault, two_state_ensemble
    ):
        fault("_normalised", {(1, 3)}, _nan_rows)
        fault("_eigh", {(0, 20)}, _skew_rows)
        got = self.ascent(two_state_ensemble)
        assert got[0] is NotHermitian
        assert fault.runs() == [[0, 1], [0]]

    def test_a_restart_that_would_warn_raises_alone_unwarned(self, fault, two_state_ensemble):
        # restart 1's infinite f(w) fails its check, and its steps go on to
        # multiply infinities by zeros, unwarned: the lockstep run raises,
        # and so does restart 1 alone, with its check's error
        fault("_inverse_root", {(1, t) for t in range(5, 100)}, _inf_root_rows)
        got = self.ascent(two_state_ensemble)
        assert got == (NumericalFailure, "function produced non-finite eigenvalues")
        assert fault.runs() == [[0, 1], [0], [1]]

    def test_a_passing_restart_before_the_failing_one_keeps_its_bits(
        self, monkeypatch, fault, two_state_ensemble
    ):
        fault("_ascent_score", {(1, 2)}, _heavy_rows)
        starts, weighted = _starts(self.CFG, 2), _weighted(two_state_ensemble)
        ref = _serial_restart(starts[0], weighted, two_state_ensemble.probs, self.CFG)
        lockstep, finished = bounds._ascent_lockstep, []

        def kept(*args):
            finished.append(lockstep(*args))
            return finished[-1]

        monkeypatch.setattr(bounds, "_ascent_lockstep", kept)
        self.ascent(two_state_ensemble)
        (((kets, value),),) = finished  # the lockstep run and restart 1 raised
        assert kets.tobytes() == ref[0].tobytes() and value == ref[1]

    def test_a_failure_held_to_the_end_of_the_lockstep_run(
        self, monkeypatch, fault, two_state_ensemble
    ):
        # no block of steps fills, so only the checks run as the lockstep
        # run ends find restart 1's failing step
        monkeypatch.setattr(bounds, "_STEP_BLOCK", 10**6)
        fault("_ascent_score", {(1, 2)}, _heavy_rows)
        got = self.ascent(two_state_ensemble)
        assert got[0] is ValidationError and got[1].startswith("joint probabilities sum to 1.1")
        assert fault.runs() == [[0, 1], [0], [1]]


def test_the_first_of_the_restarts_with_the_highest_information_wins(
    monkeypatch, two_state_ensemble
):
    cfg = it.OptimizerConfig(method="random_restart_ascent", restarts=3, seed=5)
    kets = _normalised(_starts(cfg, 2))
    monkeypatch.setattr(
        bounds, "_ascent_lockstep", lambda *args: list(zip(kets, [0.25, 0.5, 0.5]))
    )
    got = bounds._random_restart_ascent(two_state_ensemble, cfg)
    for el, ref in zip(got.elements, bounds._rank_one_povm(kets[1]).elements):
        assert el.tobytes() == ref.tobytes()


class TestRandomInstance:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((2.0, 2, 2), "dim must be an integer, got 2.0"),
            ((2, True, 2), "n_states must be an integer, got True"),
            ((2, 2, 2.5), "m_outcomes must be an integer, got 2.5"),
            ((True, 2, 2), "dim must be an integer, got True"),
        ],
    )
    def test_rejects_counts_that_are_not_integers(self, args, message):
        with pytest.raises(ValidationError) as info:
            it.random_instance(*args, "pure", 0)
        assert str(info.value) == message

    def test_accepts_numpy_integer_counts(self):
        e, v = it.random_instance(np.int64(2), np.int64(2), np.int64(2), "pure", 42)
        e2, v2 = it.random_instance(2, 2, 2, "pure", 42)
        assert e.probs.tobytes() == e2.probs.tobytes()
        assert v._stack.tobytes() == v2._stack.tobytes()

    def test_deterministic_bytes(self):
        e1, v1 = it.random_instance(2, 2, 2, "pure", 42)
        e2, v2 = it.random_instance(2, 2, 2, "pure", 42)
        assert e1.probs.tobytes() == e2.probs.tobytes()
        for a, b in zip(e1.states, e2.states):
            assert a.matrix.tobytes() == b.matrix.tobytes()
        for a, b in zip(v1.elements, v2.elements):
            assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        e1, _ = it.random_instance(2, 2, 2, "pure", 1)
        e2, _ = it.random_instance(2, 2, 2, "pure", 2)
        assert not np.allclose(e1.states[0].matrix, e2.states[0].matrix)

    @pytest.mark.parametrize("seed", range(5))
    def test_pure_states_are_rank_one(self, seed):
        e, _ = it.random_instance(3, 3, 3, "pure", seed)
        for s in e.states:
            assert it.von_neumann_entropy(s) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_states_have_entropy(self, seed):
        e, _ = it.random_instance(3, 3, 3, "mixed", seed)
        assert all(it.von_neumann_entropy(s) > 1e-3 for s in e.states)

    @pytest.mark.parametrize("seed", range(8))
    def test_commuting_instances(self, seed):
        e, v = it.random_instance(3, 3, 3, "commuting", seed)
        assert it.ensemble_commutes(e)
        assert v.projective
        # measured in the shared basis: measurement does not disturb
        assert it.delta_s(it.average_state(e), v) <= 1e-9

    def test_commuting_rejects_excess_outcomes(self):
        with pytest.raises(ValidationError):
            it.random_instance(2, 2, 3, "commuting", 0)

    def test_more_outcomes_than_dim_goes_general(self):
        _, v = it.random_instance(2, 2, 5, "pure", 3)
        assert v.size == 5 and not v.projective

    def test_both_povm_flavors_occur(self):
        flavors = {
            it.random_instance(3, 2, 3, "mixed", seed)[1].projective
            for seed in range(20)
        }
        assert flavors == {True, False}

    @pytest.mark.parametrize(
        "seed",
        [-1, [1, -2], 1.5, True, [1, True], "7", None, [[1, 2]]]
        + [np.array(3), np.array(3.0), np.array([[1, 2]])],
    )
    def test_rejects_bad_seeds(self, seed):
        with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
            it.random_instance(2, 2, 2, "pure", seed)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3), [3], (3,), np.array([3])])
    def test_accepts_numpy_and_sequence_seeds(self, seed):
        e, v = it.random_instance(2, 2, 2, "pure", seed)
        e3, v3 = it.random_instance(2, 2, 2, "pure", 3)
        assert e.probs.tobytes() == e3.probs.tobytes()
        assert v._stack.tobytes() == v3._stack.tobytes()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            it.random_instance(1, 2, 2, "pure", 0)
        with pytest.raises(ValidationError):
            it.random_instance(2, 0, 2, "pure", 0)
        with pytest.raises(ValidationError):
            it.random_instance(2, 2, 1, "pure", 0)
        with pytest.raises(ValidationError):
            it.random_instance(2, 2, 2, "thermal", 0)


def _reference_haar_unitary(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _reference_density_matrix(dim, kind, rng):
    if kind == "pure":
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w = g @ g.conj().T
    return w / np.trace(w).real


def _reference_projectors(u, outcomes):
    blocks = np.array_split(np.arange(u.shape[0]), outcomes)
    return [u[:, list(b)] @ u[:, list(b)].conj().T for b in blocks]


def reference_draw(dim, n_states, m_outcomes, kind, seed):
    """One instance drawn and built matrix by matrix: (priors, states,
    elements, projective), with the arithmetic random_instance has always
    used, independent of the stacked draw path."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n_states))
    if kind == "commuting":
        shared = _reference_haar_unitary(dim, rng)
        states = []
        for _ in range(n_states):
            diag = rng.dirichlet(np.ones(dim))
            states.append((shared * diag) @ shared.conj().T)
        return probs, states, _reference_projectors(shared, m_outcomes), True
    states = [_reference_density_matrix(dim, kind, rng) for _ in range(n_states)]
    if m_outcomes <= dim and rng.random() < 0.5:
        u = _reference_haar_unitary(dim, rng)
        return probs, states, _reference_projectors(u, m_outcomes), True
    raw = []
    for _ in range(m_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(g @ g.conj().T)
    inv_root = it.psd_function(sum(raw), lambda x: 1.0 / np.sqrt(x), pseudo=True)
    return probs, states, [inv_root @ el @ inv_root for el in raw], False


class TestStackedDrawsMatchPerTrialDraws:
    # _random_instances draws every trial from its own generator, then forms
    # the Dirichlet rows and complex Gaussians and runs the QR, Wishart, ket
    # and conjugation arithmetic once per group; every bit of the group's
    # stacks, and of the pairs random_instance hands out from them, must
    # equal the per-trial construction above.  The generators are the
    # suite's, built from one seeding pass over the specs' seeds.
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_equal_to_the_per_trial_draws(self, dim, seed):
        specs = []
        for t in range(30):
            kind = ("pure", "mixed", "commuting")[t % 3]
            m = 2 + (t // 3) % (dim - 1) if kind == "commuting" else 2 + t % 5
            specs.append((dim, 1 + t % 4, m, kind, [seed, t]))
        rngs = suite_rng._generators(seed_states(spec[4] for spec in specs))
        (g,) = bounds._random_instances([(*spec[:4], rng) for spec, rng in zip(specs, rngs)])
        assert g.sizes.tolist() == [spec[1] for spec in specs]
        assert g.counts.tolist() == [spec[2] for spec in specs]
        parts = zip(
            specs,
            measurement._pairs(g),
            _segments(g.priors, g.sizes),
            _segments(g.states, g.sizes),
            _segments(g.eigenvalues, g.sizes),
            _segments(g.elements, g.counts),
            g.projective.tolist(),
        )
        flags = []
        for spec, (e, v), priors, states, eigenvalues, elements, flag in parts:
            probs, expected_states, expected_elements, projective = reference_draw(*spec)
            assert priors.tobytes() == e.probs.tobytes() == probs.tobytes(), spec
            expected_states = np.stack(expected_states)
            assert states.tobytes() == expected_states.tobytes(), spec
            assert np.stack([s.matrix for s in e.states]).tobytes() == expected_states.tobytes()
            for w, s in zip(eigenvalues, expected_states):
                assert w.tobytes() == it.DensityMatrix(s)._eigenvalues.tobytes(), spec
            assert elements.tobytes() == np.stack(expected_elements).tobytes(), spec
            assert np.stack(v.elements).tobytes() == elements.tobytes(), spec
            assert flag is v.projective is projective, spec
            flags.append((spec[3], projective))
        # the group mixes commuting, projective and general trials
        assert {("commuting", True), ("pure", False), ("mixed", False)} <= set(flags)
        assert any(kind != "commuting" and p for kind, p in flags)


class TestGroupShapingMatchesNumpy:
    # the group forms every Dirichlet row and complex Gaussian from the raw
    # draws its trials made; each must be what numpy's own call returns, bit
    # for bit, with the generator left where that call leaves it
    @pytest.mark.parametrize("seed", range(40))
    def test_dirichlet_rows(self, seed):
        for k in range(1, 7):
            numpy_rng, raw_rng = (np.random.default_rng([seed, k]) for _ in range(2))
            expected = numpy_rng.dirichlet(np.ones(k))
            got = bounds._dirichlet_rows(raw_rng.standard_exponential(k), [k])
            assert got.tobytes() == expected.tobytes(), k
            assert numpy_rng.random() == raw_rng.random()
        for d in range(2, DIM_CAP + 1):
            n = 1 + (seed + d) % 4
            numpy_rng, raw_rng = (np.random.default_rng([seed, d, 1]) for _ in range(2))
            expected = numpy_rng.dirichlet(np.ones(d), size=n)
            draws = raw_rng.standard_exponential((n, d)).reshape(-1)
            got = bounds._dirichlet_rows(draws, np.full(n, d)).reshape(n, d)
            assert got.tobytes() == expected.tobytes(), d
            assert numpy_rng.random() == raw_rng.random()

    def test_dirichlet_rows_of_many_trials_at_once(self):
        lengths = [1 + t % 6 for t in range(24)] + [DIM_CAP, 9, 17]
        rngs = [np.random.default_rng([3, t]) for t in range(len(lengths))]
        draws = np.concatenate([rng.standard_exponential(k) for rng, k in zip(rngs, lengths)])
        expected = np.concatenate(
            [np.random.default_rng([3, t]).dirichlet(np.ones(k)) for t, k in enumerate(lengths)]
        )
        assert bounds._dirichlet_rows(draws, lengths).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_complex_gaussians_draw_real_then_imaginary_parts(self, seed):
        for count in range(1, 5):
            for shape in ((2,), (5,), (3, 3), (DIM_CAP, DIM_CAP)):
                raw_rng, numpy_rng = (np.random.default_rng([seed, count]) for _ in range(2))
                got = bounds._complex_gaussians(raw_rng.normal(size=(count, 2) + shape))
                expected = np.stack(
                    [
                        numpy_rng.normal(size=shape) + 1j * numpy_rng.normal(size=shape)
                        for _ in range(count)
                    ]
                )
                assert got.tobytes() == expected.tobytes()
                assert raw_rng.random() == numpy_rng.random()
