"""The stacked validators against the single-object calls built on them.

Each check is written once, in its stacked form, and the single-object
call is its stack of one: ``DensityMatrix``, ``Povm`` and ``psd_function``
call ``_density_eigenvalues``, ``_povm_flags`` and ``_psd_function_stack``,
and ``_clipped_table`` and ``_clipped`` call ``_table_checks`` and
``_information_check``.  A stack must give each item exactly what the
single call gives it, and a stack with a failing item must raise what the
single call raises for the lowest-index failing item.  The literal pins
below hold the messages and bits the single calls gave before they became
stacks of one.
"""
import functools
import hashlib

import numpy as np
import numpy.testing as npt
import pytest

import infotherm as it
from infotherm import linops, measurement, quantum
from infotherm.errors import NegativeEigenvalue, NotHermitian, NumericalFailure

from conftest import mixed_kind_instances


def single_error(call, item):
    """(type, message) of what ``call(item)`` raises."""
    with pytest.raises(Exception) as info:
        call(item)
    return type(info.value), str(info.value)


def assert_stack_raises_like_the_item(stacked, single, items, bad_index):
    expected = single_error(single, items[bad_index])
    with pytest.raises(Exception) as info:
        stacked(items)
    assert (type(info.value), str(info.value)) == expected


def valid_density(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w = g @ g.conj().T
    return w / np.trace(w).real


class TestDensityStack:
    BAD = {
        "not-hermitian": np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex),
        "trace": np.diag([0.6, 0.6]).astype(complex),
        "not-psd": np.diag([1.2, -0.2]).astype(complex),
    }

    @staticmethod
    def stacked(items):
        return quantum._density_eigenvalues(np.stack(items))

    @pytest.mark.parametrize("index", [0, 1, 3])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_lowest_failing_item_raises_its_single_error(self, index, bad):
        items = [valid_density(2, seed) for seed in range(4)]
        items[index] = self.BAD[bad]
        assert_stack_raises_like_the_item(self.stacked, it.DensityMatrix, items, index)

    def test_a_later_check_on_a_lower_item_wins(self):
        items = [valid_density(2, seed) for seed in range(4)]
        items[1], items[3] = self.BAD["not-psd"], self.BAD["not-hermitian"]
        assert_stack_raises_like_the_item(self.stacked, it.DensityMatrix, items, 1)

    def test_eigenvalues_equal_the_single_objects(self):
        for dim in (2, 3, 4, 8):
            items = [valid_density(dim, seed) for seed in range(6)]
            stacked = quantum._density_matrices(np.stack(items))
            for item, r in zip(items, stacked):
                single = it.DensityMatrix(item)
                npt.assert_array_equal(r.spectrum(), single.spectrum())
                npt.assert_array_equal(r.matrix, single.matrix)
                assert not r.matrix.flags.writeable


class TestPovmStack:
    VALID = (np.diag([0.4, 0.1]), np.diag([0.6, 0.9]))
    BAD = {
        "not-hermitian": (np.array([[0.4, 0.1], [0.0, 0.1]]), np.diag([0.6, 0.9])),
        "not-psd": (np.diag([1.1, 0.1]), np.diag([-0.1, 0.9])),
        "sum": (np.diag([0.4, 0.1]), np.diag([0.6, 0.8])),
    }

    @staticmethod
    def stacked(povms, declared=None):
        declared = declared or [None] * len(povms)
        stack = np.concatenate([np.asarray(p, dtype=complex) for p in povms])
        return measurement._povm_flags(stack, [len(p) for p in povms], declared)

    @pytest.mark.parametrize("index", [0, 1, 3])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_lowest_failing_segment_raises_its_single_error(self, index, bad):
        povms = [self.VALID] * 4
        povms[index] = self.BAD[bad]
        assert_stack_raises_like_the_item(self.stacked, it.Povm, povms, index)

    def test_a_later_check_on_a_lower_segment_wins(self):
        povms = [self.VALID, self.BAD["sum"], self.VALID, self.BAD["not-hermitian"]]
        assert_stack_raises_like_the_item(self.stacked, it.Povm, povms, 1)

    @pytest.mark.parametrize("index", [0, 1, 3])
    def test_a_false_projective_claim_raises_its_single_error(self, index):
        povms = [self.VALID, it.basis_measurement(np.eye(2)).elements] * 2
        declared = [None, True, None, True]
        povms[index], declared[index] = self.VALID, True
        expected = single_error(lambda p: it.Povm(p, projective=True), self.VALID)
        with pytest.raises(Exception) as info:
            self.stacked(povms, declared)
        assert (type(info.value), str(info.value)) == expected

    def test_element_index_is_counted_within_its_segment(self):
        povms = [self.VALID, self.VALID, (np.diag([0.5, 0.5]),) + self.BAD["not-psd"]]
        with pytest.raises(Exception) as info:
            self.stacked(povms)
        assert str(info.value).startswith("element 2 has eigenvalue")

    @staticmethod
    def loop_projective(elements):
        """The per-row loop the stacked detection replaced."""
        stack = np.stack(elements)
        if np.abs(stack @ stack - stack).max() > measurement.PROJECTIVE_TOL:
            return False
        for j, ej in enumerate(stack):
            products = ej @ stack
            products[j] -= ej
            if np.abs(products).max() > measurement.PROJECTIVE_TOL:
                return False
        return True

    def test_flags_equal_the_single_objects_and_the_loop(self):
        povms = [v.elements for _, _, v in mixed_kind_instances(90) if v.dim == 3]
        # idempotent elements whose later rows overlap, among valid segments
        v = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
        overlapping = (np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.outer(v, v))
        stack = np.concatenate(
            [np.asarray(p, dtype=complex) for p in povms + [overlapping]]
        )
        counts = [len(p) for p in povms] + [3]
        flags = measurement._detect_projective(stack, counts)
        assert list(flags[:-1]) == [it.Povm(p).projective for p in povms]
        assert list(flags) == [self.loop_projective(p) for p in povms + [overlapping]]
        assert 0 < sum(flags) < len(povms)


class TestCertifiedElements:
    """A stack of ``_CERTIFIED_ENTRIES`` or more entries takes one Cholesky
    certificate and eigensolves only what it leaves; every floor verdict,
    every eigenvalue a message prints and every error are the eigensolve's."""

    #: The lowest eigenvalues placed around the floor, -PSD_TOL, and the
    #: certificate's shift, -PSD_TOL / 2.
    LOWEST = (-2e-9, -1.05e-9, -0.95e-9, -0.5e-9)

    @classmethod
    def element(cls, rng, dim):
        """A random Hermitian element: PSD, or with its lowest eigenvalue at
        one of ``LOWEST``; either scaled by 1e6 (the lowest eigenvalue kept)
        or not; and off Hermitian by 2e-9 in its upper triangle, or by
        5e-10, or not at all."""
        u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        w = rng.uniform(0.0, 1.0, dim)
        w[0] = 0.0
        scale = 1e6 if rng.random() < 0.3 else 1.0
        w *= scale
        pick = int(rng.integers(0, len(cls.LOWEST) + 2))
        if pick < len(cls.LOWEST):
            w[0] = cls.LOWEST[pick]
        m = (u * w) @ u.conj().T
        m = (m + m.conj().T) / 2
        m[0, -1] += (2e-9, 5e-10, 0.0)[int(rng.integers(0, 3))]
        return m

    @staticmethod
    def eigensolved(monkeypatch, call):
        """``call()`` with every element stack sent to the eigensolve alone."""
        with monkeypatch.context() as patch:
            patch.setattr(measurement, "_CERTIFIED_ENTRIES", 10**9)
            return call()

    def test_verdicts_values_and_errors_are_the_eigensolves(self, monkeypatch):
        rng = np.random.default_rng(34)
        certified = unsure = 0
        for _ in range(1500):
            dim = int(rng.integers(2, 5))
            fewest = -(-measurement._CERTIFIED_ENTRIES // dim**2)
            size = int(rng.integers(fewest, fewest + 12))
            stack = np.stack([self.element(rng, dim) for _ in range(size)])
            reference = np.linalg.eigvalsh(stack)[:, 0]
            failing = reference < -linops.PSD_TOL
            got = measurement._lowest_eigenvalues(stack)
            assert np.array_equal(got < -linops.PSD_TOL, failing)
            assert got[failing].tobytes() == reference[failing].tobytes()
            passed = linops._floor_certified(stack)
            certified += int(passed.sum())
            unsure += int((~passed).sum())
            assert not (passed & failing).any()
            elements = list(stack)
            expected = self.eigensolved(monkeypatch, lambda: single_error(it.Povm, elements))
            assert single_error(it.Povm, elements) == expected
        # both routes ran often
        assert certified > 1000 and unsure > 1000

    def test_scaled_elements_take_the_eigensolve(self):
        stack = np.stack([np.eye(3) / 9] * 9)
        assert linops._floor_certified(stack).all()
        assert not linops._floor_certified(stack * 1e6).any()

    @pytest.mark.parametrize("lowest, passes", [(-2e-9, False), (-1.05e-9, False),
                                                (-0.95e-9, True), (-0.5e-9, True)])
    def test_an_element_near_the_floor_gets_the_eigensolves_message(self, lowest, passes):
        near = np.diag([lowest, 0.5, 0.5])
        elements = [np.eye(3) / 12] * 11 + [near]
        assert len(elements) * 9 >= measurement._CERTIFIED_ENTRIES
        assert not linops._floor_certified(np.stack(elements))[-1]
        got = measurement._lowest_eigenvalues(np.stack(elements).astype(complex))
        assert got[-1] == lowest
        with pytest.raises(it.ValidationError) as info:
            it.Povm(elements)
        if passes:
            assert str(info.value).startswith("elements sum to identity only within")
        else:
            assert str(info.value) == f"element 11 has eigenvalue {lowest:.3e} below -1.0e-09"


def row_at_a_time_projective(stack, counts):
    """Projective detection one row j at a time, batched over the
    idempotent segments, j = k products included: the form the batched
    ``_detect_projective`` replaced."""
    counts = np.asarray(counts)
    offsets = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(counts.size), counts)
    residual = np.abs(stack @ stack - stack).max(axis=(1, 2))
    flags = np.maximum.reduceat(residual, offsets) <= measurement.PROJECTIVE_TOL
    members = np.flatnonzero(flags[owner])
    for j in range(int(counts[flags].max(initial=0))):
        members = members[counts[owner[members]] > j]
        rows = offsets[owner[members]] + j
        products = stack[rows] @ stack[members]
        same = rows == members
        products[same] -= stack[rows[same]]
        failing = np.abs(products).max(axis=(1, 2)) > measurement.PROJECTIVE_TOL
        flags[owner[members[failing]]] = False
    return flags


def haar_unitary(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBatchedProjectiveDetection:
    """``_detect_projective`` against the row-at-a-time reference on a
    seeded sweep of element stacks, whatever its step and early exit."""

    TOL = measurement.PROJECTIVE_TOL
    #: multiples of PROJECTIVE_TOL that a perturbation sizes to
    SCALES = (0.3, 0.9, 1.1, 3.0, 30.0)

    @staticmethod
    def projective(dim, m, rng):
        """m projectors onto consecutive blocks of a Haar basis."""
        u = haar_unitary(dim, rng)
        cuts = np.sort(rng.choice(np.arange(1, dim), size=m - 1, replace=False))
        blocks = np.split(np.arange(dim), cuts)
        return measurement._block_projectors(u[None], blocks)[0]

    @staticmethod
    def general(dim, m, rng):
        """m PSD elements resolving the identity, none a projector."""
        raw = []
        for _ in range(m):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            raw.append(g @ g.conj().T)
        total = sum(raw)
        w, v = np.linalg.eigh(total)
        inv_root = (v / np.sqrt(w)) @ v.conj().T
        return np.array([inv_root @ r @ inv_root for r in raw])

    def skewed(self, dim, m, rng):
        """Rank-one projectors of a basis with one column tilted towards
        another: each stays idempotent, two overlap by about a multiple of
        PROJECTIVE_TOL."""
        u = haar_unitary(dim, rng)
        j, k = rng.choice(m, size=2, replace=False)
        u[:, j] += self.TOL * rng.choice(self.SCALES) * u[:, k]
        u[:, j] /= np.linalg.norm(u[:, j])
        blocks = [[c] for c in range(dim)][:m]
        return measurement._block_projectors(u[None], blocks)[0]

    def perturbed(self, dim, m, rng):
        """A projective segment with one element moved by a Hermitian
        matrix whose largest entry is a multiple of PROJECTIVE_TOL."""
        elements = self.projective(dim, m, rng)
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = h + h.conj().T
        elements[rng.integers(m)] += self.TOL * rng.choice(self.SCALES) * h / np.abs(h).max()
        return elements

    def sweep(self, dim, seed):
        """One stack of 12 segments of mixed kinds and lengths."""
        rng = np.random.default_rng([dim, seed])
        segments = []
        for _ in range(12):
            kind = rng.integers(4)
            if kind == 1:
                segments.append(self.general(dim, int(rng.integers(1, 17)), rng))
                continue
            m = int(rng.integers(1, dim + 1))
            if kind == 0 or dim == 1:
                segments.append(self.projective(dim, m, rng))
            elif kind == 2:
                segments.append(self.skewed(dim, max(m, 2), rng))
            else:
                segments.append(self.perturbed(dim, m, rng))
        return np.concatenate(segments), [len(s) for s in segments]

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16])
    def test_flags_equal_the_row_at_a_time_reference(self, dim):
        found = []
        for seed in range(6):
            stack, counts = self.sweep(dim, seed)
            flags = measurement._detect_projective(stack, counts)
            assert flags.tolist() == row_at_a_time_projective(stack, counts).tolist()
            found += flags.tolist()
        if dim > 1:
            assert 0 < sum(found) < len(found)

    def test_a_basis_of_32_rank_one_projectors(self):
        # one row of products alone passes the cap on a product stack
        rng = np.random.default_rng(32)
        basis = self.projective(32, 32, rng)
        assert 31 * basis[0].size > measurement._PRODUCT_ENTRIES
        skewed = self.skewed(32, 32, rng)
        stack = np.concatenate([basis, skewed, basis[:5]])
        counts = [32, 32, 5]
        flags = measurement._detect_projective(stack, counts)
        assert flags.tolist() == row_at_a_time_projective(stack, counts).tolist()
        assert flags[0] and flags[2]

    @pytest.mark.parametrize("order", [[0, 1], [1, 0]])
    def test_a_product_that_fails_in_one_order_only(self, order):
        # idempotents with E_0 E_1 = 0 but E_1 E_0 != 0: the detection runs
        # before the Hermitian check, so it must take both orders
        pair = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-6, 1.0]]], dtype=complex)
        stack = np.concatenate([np.eye(2, dtype=complex)[None], pair[order]])
        flags = measurement._detect_projective(stack, [1, 2])
        assert flags.tolist() == row_at_a_time_projective(stack, [1, 2]).tolist() == [True, False]

    def test_a_stack_with_no_idempotent_segment(self):
        rng = np.random.default_rng(5)
        stack = np.concatenate([self.general(3, 4, rng), self.general(3, 2, rng)])
        assert measurement._detect_projective(stack, [4, 2]).tolist() == [False, False]


class TestPsdFunctionStack:
    BAD = {
        "not-hermitian": np.array([[0.0, 1.0], [0.0, 1.0]]),
        "negative": np.diag([-0.5, 1.0]),
        "non-finite": np.diag([0.0, 1.0]),
    }

    @staticmethod
    def inverse_root(x):
        with np.errstate(divide="ignore"):
            return 1.0 / np.sqrt(x)

    def single(self, m):
        return it.psd_function(m, self.inverse_root)

    def stacked(self, items):
        stack = np.stack([np.asarray(m, dtype=complex) for m in items])
        return linops._psd_function_stack(stack, self.inverse_root)

    @pytest.mark.parametrize("index", [0, 1, 3])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_lowest_failing_item_raises_its_single_error(self, index, bad):
        items = [valid_density(2, seed) for seed in range(4)]
        items[index] = self.BAD[bad]
        assert_stack_raises_like_the_item(self.stacked, self.single, items, index)

    def test_a_later_check_on_a_lower_item_wins(self):
        items = [valid_density(2, seed) for seed in range(4)]
        items[1], items[3] = self.BAD["non-finite"], self.BAD["not-hermitian"]
        assert_stack_raises_like_the_item(self.stacked, self.single, items, 1)

    def test_error_types(self):
        errors = {name: single_error(self.single, m)[0] for name, m in self.BAD.items()}
        assert errors == {
            "not-hermitian": NotHermitian,
            "negative": NegativeEigenvalue,
            "non-finite": NumericalFailure,
        }

    @pytest.mark.parametrize("pseudo", [False, True])
    def test_values_equal_the_single_calls(self, pseudo):
        items = [valid_density(d, seed) for d in (2, 3, 4) for seed in range(5)]
        items.append(np.diag([1.0, 0.0, 0.0]).astype(complex))
        for d in (2, 3, 4):
            group = [m for m in items if m.shape[0] == d]
            out = linops._psd_function_stack(np.stack(group), np.sqrt, pseudo)
            for m, got in zip(group, out):
                npt.assert_array_equal(got, it.psd_function(m, np.sqrt, pseudo))


def _inverse_root(x):
    return 1.0 / np.sqrt(x)


@functools.cache
def psd_sweep():
    """What ``psd_function`` returns or raises over a seeded sweep of 240
    matrices of dimension 1 to 4 (full rank, rank deficient, an eigenvalue
    a hair below zero, one far below, not Hermitian, Hermitian within
    tolerance but failing reconstruction, entries near 1e3, pure), each
    under five functions, with and without ``pseudo``: a tuple of (kind, d,
    matrix, f, pseudo, the output or the (type, message) raised)."""
    functions = [np.sqrt, _inverse_root, np.log2, np.ones_like, np.square]
    rng = np.random.default_rng(20261019)
    found = []
    for case in range(240):
        d, kind = 1 + case % 4, (case // 4) % 8
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u = np.linalg.qr(g)[0]
        w = rng.random(d) + 0.05
        if kind == 1:
            w[: 1 + case % d] = 0.0
        elif kind == 2:
            w[0] = -5e-10
        elif kind == 3:
            w[0] = -1e-3
        m = (u * w) @ u.conj().T
        if kind == 4:
            m[0, -1] += 1e-3 + 0.5
        elif kind == 5:
            m[-1, 0] += 8e-10
        elif kind == 6:
            m = 1e3 * m
        elif kind == 7:
            m = np.outer(g[:, 0], g[:, 0].conj())
        for f in functions:
            for pseudo in (False, True):
                with np.errstate(all="ignore"):
                    try:
                        out = it.psd_function(m, f, pseudo)
                    except Exception as exc:
                        out = (type(exc), str(exc))
                found.append((kind, d, m, f, pseudo, out))
    return tuple(found)


def psd_sweep_digest():
    """sha256 of the outputs' bytes and the errors' names and messages of
    ``psd_sweep``."""
    digest = hashlib.sha256()
    for *_, out in psd_sweep():
        if isinstance(out, tuple):
            record = f"{out[0].__name__}: {out[1]}".encode()
        else:
            record = out.dtype.str.encode() + repr(out.shape).encode() + out.tobytes()
        digest.update(len(record).to_bytes(8, "little") + record)
    return digest.hexdigest()


def reference_psd_function(m, f, pseudo):
    """f of a Hermitian matrix from numpy's own ``eigh``: its eigenvalues
    clipped at zero, and with ``pseudo`` f applied above 1e-12 only."""
    w, v = np.linalg.eigh(m)
    w = np.maximum(w, 0.0)
    with np.errstate(all="ignore"):
        fw = np.where(w > 1e-12, f(np.where(w > 1e-12, w, 1.0)), 0.0) if pseudo else f(w)
    return (v * fw) @ v.conj().T


#: The errors the sweep's constructions raise: an eigenvalue of -1e-3, an
#: entry 0.501 off the Hermitian one (d > 1), a lower-triangle entry 8e-10
#: off it (d > 1), and a singular f of an eigenvalue at zero without pseudo.
_SWEEP_ERRORS = {
    "negative": (NegativeEigenvalue, "matrix has eigenvalue -1.000e-03 below -1.0e-09"),
    "asymmetric": (
        NotHermitian, "matrix deviates from Hermitian by 5.010e-01 (tolerance 1.0e-09)"
    ),
    "inexact": (NumericalFailure, "eigendecomposition failed reconstruction check"),
    "singular": (NumericalFailure, "function produced non-finite eigenvalues"),
}


def expected_sweep_outcomes(kind, d, f, pseudo):
    """The outcomes ``psd_function`` may give a sweep call, by its
    construction: errors of ``_SWEEP_ERRORS``, and None for a value.  An
    eigenvalue that is exactly zero by construction (kind 1, and kind 7's
    rank-one matrices) comes out of the solver as a rounding-level number
    of either sign, which a singular f without pseudo turns into an error
    or into a large finite value, depending on the BLAS kernel."""
    if kind == 3:
        return {_SWEEP_ERRORS["negative"]}
    if d > 1 and kind in (4, 5):
        return {_SWEEP_ERRORS["asymmetric" if kind == 4 else "inexact"]}
    if pseudo or f not in (_inverse_root, np.log2):
        return {None}
    if kind == 2:  # -5e-10, clipped to zero
        return {_SWEEP_ERRORS["singular"]}
    if kind == 1 or (kind == 7 and d > 1):
        return {_SWEEP_ERRORS["singular"], None}
    return {None}


class TestPsdFunctionPins:
    """What ``psd_function`` gave as a 2-D call of its own, before it became
    a stack of one."""

    @staticmethod
    def inverse_root(x):
        with np.errstate(divide="ignore"):
            return 1.0 / np.sqrt(x)

    @staticmethod
    def within_tolerance_but_inexact():
        m = np.diag([0.25, 0.75]).astype(complex)
        m[1, 0] += 8e-10  # below HERMITICITY_TOL; eigh reads the lower triangle only
        return m

    def test_each_failure_keeps_its_type_and_message(self):
        cases = {
            "not hermitian": np.array([[0.0, 1.0], [0.0, 1.0]]),
            "reconstruction": self.within_tolerance_but_inexact(),
            "negative": np.diag([-0.5, 1.0]),
            "non-finite f(w)": np.diag([0.0, 1.0]),
        }
        errors = {
            name: single_error(lambda m: it.psd_function(m, self.inverse_root), m)
            for name, m in cases.items()
        }
        assert errors == {
            "not hermitian": (
                NotHermitian,
                "matrix deviates from Hermitian by 1.000e+00 (tolerance 1.0e-09)",
            ),
            "reconstruction": (NumericalFailure, "eigendecomposition failed reconstruction check"),
            "negative": (NegativeEigenvalue, "matrix has eigenvalue -5.000e-01 below -1.0e-09"),
            "non-finite f(w)": (NumericalFailure, "function produced non-finite eigenvalues"),
        }

    def test_seeded_sweep_keeps_its_bits_and_errors(self):
        assert psd_sweep_digest() == (
            "4591bc8a6e8fbab525637d8c06b44bbbc4baaecc2ffc4fca3ad666fb99494939"
        )

    def test_seeded_sweep_keeps_its_values_and_errors(self):
        # the value twin of the digest, which holds on other BLAS kernels:
        # each output within 1e-12 (relative past unit size) of numpy's
        # eigh of the same matrix, and each (type, message) exact
        for kind, d, m, f, pseudo, out in psd_sweep():
            if isinstance(out, tuple):
                assert out in expected_sweep_outcomes(kind, d, f, pseudo)
                continue
            assert None in expected_sweep_outcomes(kind, d, f, pseudo)
            ref = reference_psd_function(m, f, pseudo)
            npt.assert_allclose(out, ref, rtol=0.0, atol=1e-12 * max(1.0, np.abs(ref).max()))

    def test_f_sees_one_1d_array(self):
        seen = []

        def recording_sqrt(x):
            seen.append((x.ndim, x.size))
            return np.sqrt(x)

        full = valid_density(3, 0)
        partial = np.diag([0.5, 0.5, 0.0]).astype(complex)
        it.psd_function(full, recording_sqrt)
        it.psd_function(full, recording_sqrt, pseudo=True)
        it.psd_function(partial, recording_sqrt, pseudo=True)
        it.psd_function(partial, recording_sqrt)
        assert seen == [(1, 3), (1, 3), (1, 2), (1, 3)]

    def test_f_never_sees_an_item_that_already_failed(self):
        seen = []

        def recording_root(x):
            seen.append(x.copy())
            return self.inverse_root(x)

        # the negative item's clipped zero would make f(w) non-finite
        items = [valid_density(2, 0), np.diag([-0.5, 1.0]), valid_density(2, 1)]
        with pytest.raises(NegativeEigenvalue):
            linops._psd_function_stack(np.stack(items).astype(complex), recording_root)
        assert len(seen) == 1 and seen[0].shape == (4,)
        npt.assert_array_equal(
            seen[0], np.concatenate([np.linalg.eigvalsh(items[0]), np.linalg.eigvalsh(items[2])])
        )


def _table(entries):
    """A (4, 25) table of ``entries`` (repeated to fill it) scaled to sum
    to 1 over its nonnegative entries, so that each bad table below fails
    one check only."""
    t = np.resize(np.asarray(entries, dtype=float), (4, 25))
    return t / np.maximum(t, 0.0).sum()


class TestTableChecks:
    """``_table_checks`` and ``_information_check`` on a stack, through
    ``_raise_first_failure``, against ``_clipped_table`` and
    ``_clipped`` of one mutual information on each item."""

    BAD = {
        "nan": np.where(np.arange(100).reshape(4, 25) == 3, np.nan, _table([1.0])),
        # also below the clip, which is checked after finiteness
        "-inf": np.where(np.arange(100).reshape(4, 25) == 7, -np.inf, _table([1.0])),
        "below the clip": _table([1.0, 2.0, -1e-6]),
        # 50 entries at -PROB_CLIP pass the floor and leave the unclipped
        # sum 5e-11 below the clipped one, which the message shows
        "sum off one": np.where(_table([1.0, -1.0]) < 0, -1e-12, 1.1 * _table([1.0, -1.0])),
    }

    @staticmethod
    def stacked(items):
        linops._raise_first_failure(measurement._table_checks(np.stack(items)))

    @pytest.mark.parametrize("index", [0, 2, 3])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_lowest_failing_item_raises_its_single_error(self, index, bad):
        items = [_table(np.arange(1.0, 8.0 + seed)) for seed in range(4)]
        items[index] = self.BAD[bad]
        assert_stack_raises_like_the_item(self.stacked, measurement._clipped_table, items, index)

    def test_a_later_check_on_a_lower_item_wins(self):
        items = [_table(np.arange(1.0, 8.0 + seed)) for seed in range(4)]
        items[1], items[2] = self.BAD["sum off one"], self.BAD["nan"]
        assert_stack_raises_like_the_item(self.stacked, measurement._clipped_table, items, 1)

    def test_each_bad_table_fails_its_own_check(self):
        messages = {
            name: single_error(measurement._clipped_table, t)[1] for name, t in self.BAD.items()
        }
        assert messages["nan"] == "joint probabilities have non-finite entries"
        assert messages["-inf"] == "joint probabilities have non-finite entries"
        assert messages["below the clip"].startswith("joint probability -")
        assert messages["sum off one"] == "joint probabilities sum to 1.1"

    def test_passing_tables_raise_nothing(self):
        self.stacked([_table([1.0, 0.0, -1e-12, 3.0]), _table(np.arange(1.0, 9.0))])

    @pytest.mark.parametrize("index", [0, 2])
    def test_information_below_the_clip(self, index):
        infos = np.array([0.5, -5e-13, 0.25])
        infos[index] = -0.125

        def stacked(items):
            linops._raise_first_failure([measurement._information_check(np.array(items))])

        def single(info):
            return measurement._clipped(info, measurement._information_check)

        assert_stack_raises_like_the_item(stacked, single, infos, index)
