import numpy as np
import numpy.testing as npt
import pytest

import infotherm as it
from infotherm import bounds
from infotherm.bounds import BOUND_TOL
from infotherm.errors import UnsupportedDimension, ValidationError

from conftest import (
    CHI_TWO_STATE,
    DS_COMPUTATIONAL,
    DS_HELSTROM,
    INFO_COMPUTATIONAL,
    INFO_HELSTROM,
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


class TestRandomInstance:
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
    # _random_instances draws every trial from its own generator, then runs
    # the QR, Wishart, ket and conjugation arithmetic once per group; every
    # bit must equal the per-trial construction above
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_equal_to_the_per_trial_draws(self, dim, seed):
        specs = []
        for t in range(30):
            kind = ("pure", "mixed", "commuting")[t % 3]
            m = 2 + (t // 3) % (dim - 1) if kind == "commuting" else 2 + t % 5
            specs.append((dim, 1 + t % 4, m, kind, [seed, t]))
        pairs = bounds._random_instances(specs)
        flags = []
        for spec, (e, v) in zip(specs, pairs):
            probs, states, elements, projective = reference_draw(*spec)
            assert e.probs.tobytes() == probs.tobytes(), spec
            assert np.stack([s.matrix for s in e.states]).tobytes() == np.stack(states).tobytes(), spec
            assert np.stack(v.elements).tobytes() == np.stack(elements).tobytes(), spec
            assert v.projective == projective, spec
            flags.append((spec[3], projective))
        # the group mixes commuting, projective and general trials
        assert {("commuting", True), ("pure", False), ("mixed", False)} <= set(flags)
        assert any(kind != "commuting" and p for kind, p in flags)
