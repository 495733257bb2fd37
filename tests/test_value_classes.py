"""Behaviour of the package's immutable value classes: ``repr`` text,
``==`` and ``hash`` (which raise where a compared field is an array of
more than one entry), refused assignment and deletion, positional and
keyword construction with defaults, and a pickle round trip."""
import pickle

import numpy as np
import pytest

import infotherm as it
from infotherm import cli

HALF = np.eye(2) / 2
PLUS = np.full((2, 2), 0.5)
BASIS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def report(**changes):
    values = dict(
        accessible_info=0.25, chi=0.5, delta_s=0.125, holevo_slack=0.25,
        thermo_slack=0.375, holevo_satisfied=True, thermo_satisfied=False,
    )
    values.update(changes)
    return it.BoundReport(**values)


def entry(work_bits=0.5):
    return it.LedgerEntry(it.STAGE_EXTRACTION, "outcome 0: sort", work_bits)


def ledger(net_bits=-0.5):
    return it.CycleLedger((entry(), entry(-1.0)), net_bits, 0.25, 0.75, 0.125)


def ensemble():
    return it.Ensemble(np.array([0.5, 0.5]), (it.DensityMatrix(HALF), it.DensityMatrix(PLUS)))


def spec():
    return cli.ProblemSpec(ensemble(), None, ("a", "b"), ())


#: The fields each class shows in its ``repr`` and compares, in order.
FIELDS = {
    "BoundReport": (
        "accessible_info", "chi", "delta_s", "holevo_slack", "thermo_slack",
        "holevo_satisfied", "thermo_satisfied",
    ),
    "OptimizerConfig": (
        "method", "grid_points", "restarts", "max_iterations", "convergence_tol", "seed"
    ),
    "BlockReport": ("m", "per_letter_info", "per_letter_delta_s", "chi", "sequence_count"),
    "LedgerEntry": ("stage", "description", "work_bits"),
    "CycleLedger": ("entries", "net_bits", "i_ab", "chi", "delta_s"),
    "HermitianEigen": ("eigenvalues", "eigenvectors"),
    "DensityMatrix": ("matrix",),
    "Ensemble": ("probs", "states"),
    "Povm": ("elements", "projective"),
    "JointDistribution": ("matrix",),
    "ProblemSpec": ("ensemble", "measurement", "preparation_labels", "outcome_labels"),
}


def values(name, obj) -> tuple:
    return tuple(getattr(obj, field) for field in FIELDS[name])


#: Each class with an instance built from scalars, tuples and strings
#: only, which ``==`` and ``hash`` read without raising, and the same
#: instance with one field changed.
HASHABLE = {
    "BoundReport": (report, lambda: report(chi=0.75)),
    "OptimizerConfig": (lambda: it.OptimizerConfig(seed=3), lambda: it.OptimizerConfig(seed=4)),
    "BlockReport": (
        lambda: it.BlockReport(2, 0.25, 0.125, 0.5, 4),
        lambda: it.BlockReport(2, 0.25, 0.125, 0.5, 9),
    ),
    "LedgerEntry": (entry, lambda: entry(0.75)),
    "CycleLedger": (ledger, lambda: ledger(-0.25)),
}

#: Each class with an instance that holds an array of more than one entry
#: in a compared field.
WITH_ARRAYS = {
    "HermitianEigen": lambda: it.hermitian_eig(np.diag([1.0, 2.0])),
    "DensityMatrix": lambda: it.DensityMatrix(HALF),
    "Ensemble": ensemble,
    "Povm": lambda: it.Povm(BASIS),
    "JointDistribution": lambda: it.JointDistribution(np.array([[0.5, 0.0], [0.25, 0.25]])),
    "ProblemSpec": spec,
}


class TestRepr:
    def test_scalar_fields(self):
        assert repr(report()) == (
            "BoundReport(accessible_info=0.25, chi=0.5, delta_s=0.125, holevo_slack=0.25, "
            "thermo_slack=0.375, holevo_satisfied=True, thermo_satisfied=False)"
        )
        assert repr(it.OptimizerConfig()) == (
            "OptimizerConfig(method='qubit_grid', grid_points=100, restarts=8, "
            "max_iterations=200, convergence_tol=1e-07, seed=0)"
        )
        assert repr(it.BlockReport(2, 0.25, 0.125, 0.5, 4)) == (
            "BlockReport(m=2, per_letter_info=0.25, per_letter_delta_s=0.125, chi=0.5, "
            "sequence_count=4)"
        )
        assert repr(entry()) == (
            "LedgerEntry(stage='extraction', description='outcome 0: sort', work_bits=0.5)"
        )
        assert repr(ledger()) == (
            f"CycleLedger(entries=({entry()!r}, {entry(-1.0)!r}), net_bits=-0.5, i_ab=0.25, "
            "chi=0.75, delta_s=0.125)"
        )

    def test_array_fields_show_the_arrays_and_no_private_state(self):
        eigen = it.hermitian_eig(np.diag([1.0, 2.0]))
        assert repr(eigen) == (
            f"HermitianEigen(eigenvalues={eigen.eigenvalues!r}, "
            f"eigenvectors={eigen.eigenvectors!r})"
        )
        rho = it.DensityMatrix(HALF)
        rho._function(np.sqrt)  # keeps a decomposition, which repr leaves out
        assert repr(rho) == f"DensityMatrix(matrix={rho.matrix!r})"
        e = ensemble()
        e._matrices
        assert repr(e) == f"Ensemble(probs={e.probs!r}, states={e.states!r})"
        assert repr(e).startswith("Ensemble(probs=array([0.5, 0.5]), states=(DensityMatrix(")
        v = it.Povm(BASIS)
        assert repr(v) == f"Povm(elements={v.elements!r}, projective=True)"
        j = it.JointDistribution(np.array([[0.5, 0.0], [0.25, 0.25]]))
        assert repr(j) == "JointDistribution(matrix=array([[0.5 , 0.  ],\n       [0.25, 0.25]]))"
        s = spec()
        assert repr(s) == (
            f"ProblemSpec(ensemble={s.ensemble!r}, measurement=None, "
            "preparation_labels=('a', 'b'), outcome_labels=())"
        )


class TestEqualityAndHash:
    @pytest.mark.parametrize("name", HASHABLE)
    def test_equal_fields_are_equal_and_hash_as_their_tuple(self, name):
        make, changed = HASHABLE[name]
        a, b, c = make(), make(), changed()
        assert a == b and not a != b
        assert a != c and not a == c
        assert hash(a) == hash(b) == hash(values(name, a))
        assert a != object() and a != values(name, a)

    def test_another_class_with_the_same_values_is_not_equal(self):
        class Subclass(it.LedgerEntry):
            pass

        assert entry() != Subclass(it.STAGE_EXTRACTION, "outcome 0: sort", 0.5)

    @pytest.mark.parametrize("name", WITH_ARRAYS)
    def test_an_instance_equals_itself_and_raises_on_a_copy(self, name):
        a, b = WITH_ARRAYS[name](), WITH_ARRAYS[name]()
        assert a == a
        with pytest.raises(ValueError, match="truth value of an array"):
            a == b  # noqa: B015
        with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
            hash(a)
        assert a != object()

    def test_one_entry_arrays_compare_and_private_state_is_not_read(self):
        one = np.eye(1)
        a, b = it.DensityMatrix(one), it.DensityMatrix(one)
        a._function(np.sqrt)
        assert a == b
        e, f = it.Ensemble([1.0], (a,)), it.Ensemble([1.0], (b,))
        e._matrices
        assert e == f
        assert it.Povm([one]) == it.Povm([one], projective=True)
        assert it.Povm([one]) != it.Povm([one], projective=False)
        assert it.JointDistribution([[1.0]]) == it.JointDistribution([[1.0]])


ALL = {**{name: make for name, (make, _) in HASHABLE.items()}, **WITH_ARRAYS}


class TestImmutable:
    @pytest.mark.parametrize("name", ALL)
    def test_assignment_and_deletion_raise(self, name):
        obj = ALL[name]()
        before = repr(obj)
        for attr in FIELDS[name] + ("_stack", "unknown"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
                setattr(obj, attr, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{attr}'"):
                delattr(obj, attr)
        assert repr(obj) == before and not hasattr(obj, "unknown")


class TestConstruction:
    def test_positional_and_keyword_arguments_agree(self):
        assert report() == it.BoundReport(0.25, 0.5, 0.125, 0.25, 0.375, True, False)
        assert it.OptimizerConfig("random_restart_ascent", 10, 2, 30, 1e-6, 5) == (
            it.OptimizerConfig(
                method="random_restart_ascent", grid_points=10, restarts=2,
                max_iterations=30, convergence_tol=1e-6, seed=5,
            )
        )
        assert it.BlockReport(2, 0.25, 0.125, 0.5, 4) == it.BlockReport(
            m=2, per_letter_info=0.25, per_letter_delta_s=0.125, chi=0.5, sequence_count=4
        )
        assert entry() == it.LedgerEntry(
            stage=it.STAGE_EXTRACTION, description="outcome 0: sort", work_bits=0.5
        )
        assert ledger() == it.CycleLedger(
            entries=(entry(), entry(-1.0)), net_bits=-0.5, i_ab=0.25, chi=0.75, delta_s=0.125
        )
        eigen = it.HermitianEigen(eigenvalues=np.array([1.0]), eigenvectors=np.eye(1))
        assert eigen == it.HermitianEigen(np.array([1.0]), np.eye(1))
        assert it.DensityMatrix(matrix=np.eye(1)) == it.DensityMatrix(np.eye(1))
        rho = it.DensityMatrix(np.eye(1))
        assert it.Ensemble(probs=[1.0], states=[rho]) == it.Ensemble([1.0], (rho,))
        assert it.JointDistribution(matrix=[[1.0]]) == it.JointDistribution([[1.0]])
        e = ensemble()
        s = cli.ProblemSpec(
            ensemble=e, measurement=None, preparation_labels=("a", "b"), outcome_labels=()
        )
        assert (s.ensemble, s.measurement, s.preparation_labels, s.outcome_labels) == (
            e, None, ("a", "b"), ()
        )

    def test_defaults(self):
        cfg = it.OptimizerConfig()
        assert (
            cfg.method, cfg.grid_points, cfg.restarts, cfg.max_iterations,
            cfg.convergence_tol, cfg.seed,
        ) == ("qubit_grid", 100, 8, 200, 1e-7, 0)
        assert it.OptimizerConfig(restarts=3) == it.OptimizerConfig("qubit_grid", 100, 3)
        # the projective flag is detected when left out, and checked when given
        assert it.Povm(BASIS).projective is True
        assert it.Povm(elements=BASIS, projective=True).projective is True
        assert it.Povm(BASIS, False).projective is False
        general = (np.eye(2) / 2, np.eye(2) / 2)
        assert it.Povm(general).projective is False
        with pytest.raises(it.ValidationError, match="declared projective"):
            it.Povm(general, projective=True)

    @pytest.mark.parametrize("cls", [it.BoundReport, it.LedgerEntry, it.DensityMatrix, it.Povm])
    def test_required_fields_are_required(self, cls):
        with pytest.raises(TypeError):
            cls()

    def test_construction_still_validates(self):
        with pytest.raises(it.ValidationError, match="unknown stage label 'nope'"):
            it.LedgerEntry("nope", "", 0.0)
        with pytest.raises(it.ValidationError, match="block length and sequence count"):
            it.BlockReport(0, 0.0, 0.0, 0.0, 1)
        with pytest.raises(it.ValidationError, match="grid_points must be at least 2"):
            it.OptimizerConfig(grid_points=1)
        with pytest.raises(it.ValidationError, match="trace 1.5, expected 1"):
            it.DensityMatrix(np.eye(3) / 2)


class TestPickle:
    @pytest.mark.parametrize("name", HASHABLE)
    def test_scalar_classes_round_trip(self, name):
        obj = HASHABLE[name][0]()
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj and hash(back) == hash(obj)

    @pytest.mark.parametrize("name", WITH_ARRAYS)
    def test_array_classes_round_trip(self, name):
        obj = WITH_ARRAYS[name]()
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and repr(back) == repr(obj)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(back, FIELDS[name][0], 1)

    def test_kept_state_survives(self):
        rho = pickle.loads(pickle.dumps(it.DensityMatrix(PLUS)))
        assert np.array_equal(rho.spectrum(), it.DensityMatrix(PLUS).spectrum())
        np.testing.assert_allclose(rho._function(np.sqrt), PLUS, atol=1e-12)
        v = pickle.loads(pickle.dumps(it.Povm(BASIS)))
        assert np.array_equal(v._stack, np.stack(BASIS)) and v.size == 2
        e = pickle.loads(pickle.dumps(ensemble()))
        assert np.array_equal(e._matrices, np.stack([HALF, PLUS]))
        assert (e.size, e.dim) == (2, 2)


#: The arrays each class with array fields keeps, its private ones too.
ARRAYS = {
    "HermitianEigen": lambda x: [x.eigenvalues, x.eigenvectors],
    "DensityMatrix": lambda x: [x.matrix],
    "Ensemble": lambda x: [x.probs, x._matrices, *(s.matrix for s in x.states)],
    "Povm": lambda x: [x._stack, *x.elements],
    "JointDistribution": lambda x: [x.matrix],
}


class TestArraysStayReadOnly:
    """The arrays a value class keeps are read-only, the priors too, and a
    pickle round trip builds the instance anew through its class, so an
    unpickled one keeps read-only arrays, views and eigenvalues that are
    its matrix's."""

    def test_priors_refuse_a_write(self, orthogonal_ensemble):
        e = ensemble()
        with pytest.raises(ValueError, match="read-only"):
            e.probs[0] = 0.9
        assert np.array_equal(e.probs, [0.5, 0.5])
        drawn, _ = it.random_instance(2, 3, 2, "mixed", 0)
        assert not drawn.probs.flags.writeable
        # a caller's array stays its own
        priors = np.array([0.5, 0.5])
        it.Ensemble(priors, orthogonal_ensemble.states)
        assert priors.flags.writeable

    @pytest.mark.parametrize("name", ARRAYS)
    def test_an_instance_and_its_unpickled_copy_keep_read_only_arrays(self, name):
        obj = WITH_ARRAYS[name]()
        for kept in (obj, pickle.loads(pickle.dumps(obj))):
            assert not any(a.flags.writeable for a in ARRAYS[name](kept))

    def test_unpickled_elements_are_views_of_the_stack(self):
        v = pickle.loads(pickle.dumps(it.Povm(BASIS)))
        assert all(el.base is v._stack for el in v.elements)

    def test_a_decomposition_keeps_what_it_was_given(self):
        eigen = it.hermitian_eig(np.diag([1.0, 2.0]))
        for kept in (eigen, pickle.loads(pickle.dumps(eigen))):
            with pytest.raises(ValueError, match="read-only"):
                kept.eigenvalues[0] = 5.0
            np.testing.assert_allclose(kept.reconstruct(), np.diag([1.0, 2.0]), atol=1e-15)
        # a caller's arrays stay its own
        w, v = np.array([0.0, 2.0]), np.eye(2)
        direct = it.HermitianEigen(w, v)
        assert w.flags.writeable and v.flags.writeable
        w[1] = 3.0
        assert direct.eigenvalues.tolist() == [0.0, 2.0]

    def test_an_unpickled_state_refuses_a_write_to_its_matrix(self):
        rho = pickle.loads(pickle.dumps(it.DensityMatrix(HALF)))
        with pytest.raises(ValueError, match="read-only"):
            rho.matrix[0, 0] = 5
        assert np.array_equal(rho.spectrum(), [0.5, 0.5])

    @pytest.mark.parametrize("name", ALL)
    def test_pickle_calls_the_class_on_its_field_values(self, name):
        obj = ALL[name]()
        cls, args = obj.__reduce__()
        assert cls is type(obj)
        assert len(args) == len(FIELDS[name])
        assert all(a is b for a, b in zip(args, values(name, obj)))

    def test_an_unpickled_instance_is_checked_again(self):
        # a pickle whose field values the constructor refuses raises on load
        refused = pickle.dumps(it.OptimizerConfig(seed=3)).replace(b"qubit_grid", b"qubit_griD")
        with pytest.raises(it.ValidationError, match="unknown optimizer method 'qubit_griD'"):
            pickle.loads(refused)


class TestHermitianEigen:
    def test_dim_and_reconstruct(self):
        m = np.array([[2.0, 1j, 0.0], [-1j, 2.0, 0.0], [0.0, 0.0, 5.0]])
        eigen = it.hermitian_eig(m)
        assert eigen.dim == 3
        np.testing.assert_allclose(eigen.reconstruct(), m, atol=1e-12)
        np.testing.assert_allclose(eigen.eigenvalues, [1.0, 3.0, 5.0], atol=1e-12)

    def test_a_direct_instance_reconstructs_its_fields(self):
        v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        eigen = it.HermitianEigen(np.array([0.0, 2.0]), v)
        assert eigen.dim == 2
        np.testing.assert_allclose(eigen.reconstruct(), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)
