"""The stacked draw and analysis against the public one-pair functions and
against the oracle.

``_analyse_groups`` is the one analysis: the suite hands it a group a
dimension, and ``evaluate_bounds``, ``run_cycle`` and ``block_scan`` a group
of one pair (``_group``).  The public one-pair functions share its kernels,
so each pair's part of its flat ``_Analysis`` record must be, bit for bit,
what ``mutual_information``, ``holevo_chi``, ``delta_s``,
``joint_distribution`` and ``average_state`` give that pair alone, and a
wrong pairing or summation order fails; the values themselves are checked
to 1e-10 against ``tests/oracle.py``, which computes them from their
definitions without the package.  ``Ensemble``'s prior check is the
one-item case of ``_probability_checks``; ``_entropies`` gives each of many
vectors the bits of a 1-D dot product; ``_ordered_sums`` adds many segments
each in order from +0, the one summation rule for probabilities.  A stack
with failing items raises what the single call raises for the lowest-index
one.
"""
import math

import numpy as np
import pytest

import infotherm as it
from infotherm import blockcoding, bounds, linops, measurement, quantum, thermo
from infotherm.errors import DimensionMismatch, NumericalFailure, ValidationError
from infotherm.linops import _segments

import oracle
from conftest import ORACLE_TOL, analyse, in_order, joint_distributions, oracle_bounds


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


def reference_table(e, v):
    """The joint table as joint_distribution built it pair by pair."""
    traces = np.array([np.trace(v._stack @ s.matrix, axis1=1, axis2=2).real for s in e.states])
    return np.maximum(e.probs[:, None] * traces, 0.0)


def instances(dim, seed, count=24):
    """``count`` seeded pairs of one dimension, every kind, 1-4 states,
    projective and general measurements."""
    pairs = []
    for t in range(count):
        kind = ("pure", "mixed", "commuting")[t % 3]
        m = 2 + (t // 3) % (dim - 1) if kind == "commuting" else 2 + t % 5
        pairs.append(it.random_instance(dim, 1 + t % 4, m, kind, [seed, t]))
    return pairs


def edge_pairs(dim):
    """Tables whose sums numpy's own ``sum`` would not run left to right,
    stacked with tables of other lengths: a one-outcome measurement on 8 to
    17 states (a lone column of 8 or more rows) and nine or ten outcomes
    (rows of 8 or more entries); and tables with exact zeros: an ensemble
    with a zero prior whose states leave the last basis direction empty,
    measured in that basis (a zero row and a zero column) and with one
    element."""
    trivial = it.Povm((np.eye(dim),))
    wide = it.random_instance(dim, 2, 9, "mixed", 5)[1]
    wider = it.random_instance(dim, 2, 10, "pure", 6)[1]
    ens = {n: it.random_instance(dim, n, 2, "mixed", 10 + n)[0] for n in range(1, 18)}
    holes = []
    for s in it.random_instance(dim, 3, 2, "mixed", 7)[0].states:
        m = s.matrix.copy()
        m[-1, :] = m[:, -1] = 0.0
        holes.append(it.DensityMatrix(m / np.trace(m).real))
    sparse = it.Ensemble([0.6, 0.0, 0.4], tuple(holes))
    return [(ens[n], trivial) for n in (17, 3, *range(8, 17))] + [
        (ens[9], wide), (ens[1], wide), (ens[3], wider), (ens[13], wider),
        (sparse, it.basis_measurement(np.eye(dim))), (sparse, trivial),
    ]


def analysed(pairs):
    """Each pair's parts of the analysis of ``pairs`` as one group: its
    table outcome-major (m, n), outcome probabilities, rho spectrum, member
    spectra (n, d), sigma spectrum, I, chi and delta_s."""
    a = analyse(pairs)
    d = int(a.dims[0])
    assert a.dims.tolist() == [d] * len(pairs)
    assert a.rho_spectra.shape == (len(pairs) * d,)
    assert a.member_spectra.shape == (a.sizes.sum() * d,)
    return [
        (table.reshape(m, -1), q, lam, mu.reshape(-1, d), sigma, info, chi, ds)
        for table, q, lam, mu, sigma, info, chi, ds, m in zip(
            _segments(a.by_outcome, a.sizes * a.counts),
            _segments(a.outcome_probs, a.counts),
            _segments(a.rho_spectra, a.dims),
            _segments(a.member_spectra, a.sizes * d),
            _segments(a.sigma_spectra, a.sigma_sizes),
            a.info.tolist(),
            a.chi.tolist(),
            a.delta_s.tolist(),
            a.counts.tolist(),
        )
    ]


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16])
@pytest.mark.parametrize("seed", [0, 1])
class TestStackedPairsMatchPerPair:
    def pairs(self, dim, seed):
        return instances(dim, seed) + edge_pairs(dim)

    def test_joint_tables_and_their_sums(self, dim, seed):
        pairs = self.pairs(dim, seed)
        g = measurement._group(pairs)
        tables, by_outcome, rows, cols = joint_distributions(g)
        cells = (g.sizes * g.counts).tolist()
        assert tables.shape == by_outcome.shape == (sum(cells),)
        assert rows.shape == (g.sizes.sum(),) and cols.shape == (g.counts.sum(),)
        for (e, v), table, outcome_major, row_sums, col_sums in zip(
            pairs,
            _segments(tables, cells),
            _segments(by_outcome, cells),
            _segments(rows, g.sizes),
            _segments(cols, g.counts),
        ):
            expected = reference_table(e, v)
            joint = it.joint_distribution(e, v)
            defined = oracle.joint_table(e.probs, [s.matrix for s in e.states], v.elements)
            np.testing.assert_allclose(expected, defined, rtol=0.0, atol=ORACLE_TOL)
            assert table.tobytes() == expected.tobytes()
            assert table.size == expected.size
            assert table.tobytes() == joint.matrix.tobytes()
            assert outcome_major.tobytes() == expected.T.ravel().tobytes()
            rows_in_order = np.array([in_order(row) for row in expected.tolist()])
            cols_in_order = np.array([in_order(col) for col in expected.T.tolist()])
            assert row_sums.tobytes() == rows_in_order.tobytes() == joint.priors.tobytes()
            assert col_sums.tobytes() == cols_in_order.tobytes() == joint.outcome_probs.tobytes()

    def test_analysis_equals_the_public_functions(self, dim, seed):
        pairs = self.pairs(dim, seed)
        for (e, v), parts in zip(pairs, analysed(pairs)):
            table, q, lam, mu, sigma, info, chi, ds = parts
            rho = it.average_state(e)
            assert [info, chi, ds] == pytest.approx(oracle_bounds(e, v), rel=0.0, abs=ORACLE_TOL)
            assert info == it.mutual_information(it.JointDistribution(reference_table(e, v)))
            assert q.tobytes() == it.joint_distribution(e, v).outcome_probs.tobytes()
            assert chi == it.holevo_chi(e)
            assert ds == it.delta_s(rho, v)
            assert lam.tobytes() == rho.spectrum().tobytes()
            assert sigma.tobytes() == (
                measurement._post_measurement_spectrum(rho, v).tobytes()
            )
            assert len(mu) == e.size
            for w, s in zip(mu, e.states):
                assert w.tobytes() == s.spectrum().tobytes()

    def test_the_one_pair_analysis_takes_each_sum_once(self, dim, seed, monkeypatch):
        # the table's row sums, its total (the table check) and its column
        # sums, each once, whatever the pair
        e, v = self.pairs(dim, seed)[0]
        shapes = []
        real_row_sums = measurement._row_sums
        monkeypatch.setattr(
            measurement, "_row_sums", lambda a: shapes.append(a.shape) or real_row_sums(a)
        )
        analyse([(e, v)])
        assert shapes == [(e.size, v.size), (1, e.size * v.size), (v.size, e.size)]

    def test_average_matrices(self, dim, seed, monkeypatch):
        # the average states the analysis checks, as one stack: each is
        # average_state's, and the oracle's member by member
        pairs = self.pairs(dim, seed)
        checked, real = [], measurement._density_eigenvalues
        monkeypatch.setattr(
            measurement, "_density_eigenvalues", lambda a: checked.append(a) or real(a)
        )
        analyse(pairs)
        (stacked,) = checked
        assert stacked.shape == (len(pairs), dim, dim)
        for (e, _), acc in zip(pairs, stacked):
            assert acc.tobytes() == it.average_state(e).matrix.tobytes()
            defined = oracle.average(e.probs, [s.matrix for s in e.states])
            np.testing.assert_allclose(acc, defined, rtol=0.0, atol=ORACLE_TOL)


def test_the_analysis_gives_one_flat_record():
    # the draw's seven fields, and one analysis record whose draw fields
    # are the pairs' own, joined in order
    pairs = instances(3, 0, count=6)
    stacked = analyse(pairs)
    assert type(stacked) is measurement._Analysis
    assert len(measurement._Group._fields) == 7
    assert stacked.priors.tobytes() == np.concatenate([e.probs for e, _ in pairs]).tobytes()
    assert stacked.sizes.tolist() == [e.size for e, _ in pairs]
    assert stacked.counts.tolist() == [v.size for _, v in pairs]
    assert stacked.projective.tolist() == [v.projective for _, v in pairs]
    assert stacked.dims.tolist() == [3] * len(pairs)


class TestOnePairCallers:
    # evaluate_bounds, run_cycle and block_scan analyse their pair as a
    # group of one, and only block_scan hands over its rho
    CALLERS = {
        "evaluate_bounds": (bounds, lambda e, v: it.evaluate_bounds(e, v), False),
        "run_cycle": (thermo, lambda e, v: it.run_cycle(e, v), False),
        "block_scan": (blockcoding, lambda e, v: it.block_scan(e, 2), True),
    }

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_each_caller_analyses_one_group_of_one_pair(self, caller, monkeypatch):
        module, call, kept_rho = self.CALLERS[caller]
        e, v = it.random_instance(3, 3, 4, "mixed", 1)
        seen, real = [], measurement._analyse_groups

        def recording(groups, rho=None):
            seen.append((groups, rho))
            return real(groups, rho)

        monkeypatch.setattr(module, "_analyse_groups", recording)
        call(e, v)
        ((groups, rho),) = seen
        assert [g.sizes.tolist() for g in groups] == [[e.size]]
        assert (rho is not None) == kept_rho

    @pytest.mark.parametrize("caller", ["evaluate_bounds", "run_cycle"])
    def test_a_measurement_of_another_dimension_raises_first(self, caller):
        e, _ = it.random_instance(2, 2, 2, "mixed", 1)
        _, v = it.random_instance(3, 2, 3, "mixed", 1)
        with pytest.raises(DimensionMismatch) as info:
            self.CALLERS[caller][1](e, v)
        assert str(info.value) == "ensemble dim 2 vs measurement dim 3"


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
def test_wide_tables_equal_their_definition(dim):
    # the oracle's table, its marginals and I(A:B): the summation rule
    # moves only rounding
    for e, v in edge_pairs(dim):
        table = oracle.joint_table(e.probs, [s.matrix for s in e.states], v.elements)
        table = [[max(pij, 0.0) for pij in row] for row in table]
        priors = [math.fsum(row) for row in table]
        outcomes = [math.fsum(col) for col in zip(*table)]
        info = oracle.mutual_information(table)
        joint = it.joint_distribution(e, v)
        assert np.allclose(joint.matrix, table, rtol=0.0, atol=1e-12)
        assert np.allclose(joint.priors, priors, rtol=0.0, atol=1e-12)
        assert np.allclose(joint.outcome_probs, outcomes, rtol=0.0, atol=1e-12)
        assert it.mutual_information(joint) == pytest.approx(max(info, 0.0), rel=0.0, abs=1e-12)


class TestGatheredProducts:
    # the joint tables take one product a live (member, element) pair: the
    # state and element gathers each hold sum_k n_k m_k matrices
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_one_product_per_table_entry(self, dim, monkeypatch):
        pairs = instances(dim, 3) + edge_pairs(dim)
        g = measurement._group(pairs)
        expected = joint_distributions(g)
        gathered = []

        class Recording(np.ndarray):
            def __getitem__(self, index):
                if isinstance(index, np.ndarray):
                    gathered.append(len(index))
                return np.asarray(super().__getitem__(index))

        spied = g._replace(states=g.states.view(Recording), elements=g.elements.view(Recording))
        got = joint_distributions(spied)
        for a, b in zip(got, expected):
            assert np.asarray(a).tobytes() == b.tobytes()
        cells = sum(e.size * v.size for e, v in pairs)
        assert gathered == [cells, cells]
        assert cells < max(e.size for e, _ in pairs) * g.counts.sum()


class TestSegmentSums:
    # _ordered_sums of many segments at once is the loop's left-to-right sum
    # of each from +0 (numpy's along a stack's first axis); lengths up to
    # 300, with runs of one length under and over 8 items, and zeros of
    # both signs for the sign rules
    @staticmethod
    def segments(seed):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(0, 300, size=12)
        lengths[:4] = [0, 1, 8, 129]
        flat = rng.random(lengths.sum()) * 10.0 ** rng.uniform(-8, 8, lengths.sum())
        flat[rng.random(flat.size) < 0.2] = 0.0
        flat[rng.random(flat.size) < 0.2] *= -1.0
        return flat, lengths, _segments(flat, lengths)

    @pytest.mark.parametrize("seed", range(6))
    def test_ordered_sums_add_left_to_right(self, seed):
        flat, lengths, parts = self.segments(seed)
        expected = np.array([in_order(a.tolist()) for a in parts])
        assert linops._ordered_sums(flat, lengths).tobytes() == expected.tobytes()
        # one length: the reshaped stack's own sums under 8 items, the
        # padded accumulation from 8 on
        for length in (7, 8, 9):
            expected = np.array(
                [in_order(flat[k:k + length].tolist()) for k in range(0, 5 * length, length)]
            )
            got = linops._ordered_sums(flat[: 5 * length], [length] * 5)
            assert got.tobytes() == expected.tobytes()
        # one row of a table: the row-sum helper of the one-pair path
        rows = flat[:63].reshape(7, 9)
        assert linops._row_sums(rows).tobytes() == np.array(
            [in_order(row) for row in rows.tolist()]
        ).tobytes()

    def test_ordered_sums_of_matrix_stacks_equal_numpy(self):
        rng = np.random.default_rng(4)
        for lengths in ([3, 1, 9, 4], [5, 5, 5], [11], [1, 1]):
            shape = (sum(lengths), 3, 3)
            stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            stack[rng.random(stack.shape) < 0.2] *= -0.0
            expected = np.stack([part.sum(axis=0) for part in _segments(stack, lengths)])
            assert linops._ordered_sums(stack, lengths).tobytes() == expected.tobytes()


class TestEntropies:
    @staticmethod
    def vectors():
        rng = np.random.default_rng(0)
        out = []
        for length in range(1, 41):
            w = rng.dirichlet(np.ones(length))
            out.append(w)
            zeros = w.copy()
            zeros[rng.random(length) < 0.4] = 0.0
            out.append(zeros)
            tiny = w.copy()
            tiny[rng.random(length) < 0.3] = -1e-17
            out.append(tiny)
            out.append(np.zeros(length))
            out.append(np.eye(length)[rng.integers(length)])
            out.append(w * 10.0 ** rng.uniform(-12, 0, length))
        order = rng.permutation(len(out))
        return [np.zeros(0)] + [out[k] for k in order] + [np.zeros(0)]

    @staticmethod
    def stacked(vectors):
        return quantum._entropies(np.concatenate(vectors), [v.size for v in vectors])

    @staticmethod
    def scalar(v):
        """-w . log2 w over the positive entries w of one vector, as numpy's
        1-D dot product adds it, clipped at +0."""
        w = v[v > 0.0]
        return max(0.0, -float(np.dot(w, np.log2(w)))) if w.size else 0.0

    def test_bit_equal_to_the_scalar_kernel(self):
        vectors = self.vectors()
        stacked = self.stacked(vectors)
        assert stacked.shape == (len(vectors),) and stacked.dtype == float
        for v, h in zip(vectors, stacked.tolist()):
            assert h.hex() == self.scalar(v).hex()

    def test_each_vector_alone(self):
        for v in self.vectors()[:40]:
            assert self.stacked([v]).tolist() == [self.scalar(v)]

    def test_equal_to_the_oracle(self):
        for v, h in zip(self.vectors(), self.stacked(self.vectors()).tolist()):
            assert h == pytest.approx(oracle.entropy(v.tolist()), rel=1e-12, abs=1e-15)


class TestPriorStack:
    GOOD = (np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]))
    BAD = {
        "non-finite": np.array([np.nan, 1.0]),
        "negative": np.array([-0.1, 1.1]),
        "sum": np.array([0.6, 0.6]),
    }

    @staticmethod
    def single(p):
        return it.Ensemble(p, tuple(it.maximally_mixed(2) for _ in p))

    @staticmethod
    def stacked(items):
        """The prior vectors checked as one stack, as a suite draw checks
        its priors, each clipped."""
        sizes = [p.size for p in items]
        clipped, checks = quantum._probability_checks(np.concatenate(items), sizes)
        linops._raise_first_failure(checks)
        return _segments(clipped, sizes)

    @pytest.mark.parametrize("index", [0, 1, 3])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_lowest_failing_vector_raises_its_single_error(self, index, bad):
        items = [self.GOOD[k % 2] for k in range(4)]
        items[index] = self.BAD[bad]
        assert_stack_raises_like_the_item(self.stacked, self.single, items, index)

    def test_a_later_check_on_a_lower_vector_wins(self):
        items = [self.GOOD[0], self.BAD["sum"], self.GOOD[1], self.BAD["non-finite"]]
        assert_stack_raises_like_the_item(self.stacked, self.single, items, 1)

    def test_values_equal_the_single_objects(self):
        items = [np.array([0.25, 0.75]), np.array([1.0]), np.array([0.5, -1e-13, 0.5])]
        for p, checked in zip(items, self.stacked(items)):
            assert checked.tobytes() == self.single(p).probs.tobytes()
            assert checked.tobytes() == quantum._checked_priors(p).tobytes()


def qubit_pair(probs, states, elements):
    return it.Ensemble(probs, tuple(it.DensityMatrix(s) for s in states)), it.Povm(elements)


class TestJointStackErrors:
    KET0, KET1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    DELTA = 9e-9  # inside POVM_SUM_TOL and PROJECTIVE_TOL, above TRACE_TOL / 2

    def good(self):
        return qubit_pair([0.5, 0.5], [self.KET0, self.KET1], [self.KET0, self.KET1])

    def negative(self):
        # an element 5e-10 below zero, allowed by PSD_TOL, times a prior
        low = np.diag([-5e-10, 0.5])
        return qubit_pair([0.5, 0.5], [self.KET0, self.KET1], [low, np.eye(2) - low])

    def total(self):
        # priors and traces each a hair above 1: the table sums to 1 + 1.6e-9
        ket = np.diag([1.0 + 8e-10, 0.0])
        return qubit_pair([0.5 + 4e-10, 0.5 + 4e-10], [ket, ket], [self.KET0, self.KET1])

    def drift(self):
        # the elements sum to I + diag(delta, -delta): the table sums to 1,
        # but each row misses its prior by delta / 2
        return qubit_pair(
            [0.5, 0.5], [self.KET0, self.KET1],
            [np.diag([1.0 + self.DELTA, 0.0]), np.diag([0.0, 1.0 - self.DELTA])],
        )

    @staticmethod
    def stacked(pairs):
        return joint_distributions(measurement._group(pairs))

    @staticmethod
    def single(pair):
        return it.joint_distribution(*pair)

    def test_the_bad_pairs_fail_alone(self):
        assert single_error(self.single, self.negative())[1] == (
            "joint probability -2.500e-10 below -1e-12"
        )
        assert single_error(self.single, self.total())[1].startswith("joint probabilities sum to")
        assert single_error(self.single, self.drift()) == (
            NumericalFailure, "joint distribution rows do not reproduce the priors"
        )

    @pytest.mark.parametrize("index", [0, 1, 3])
    @pytest.mark.parametrize("bad", ["negative", "total", "drift"])
    def test_lowest_failing_pair_raises_its_single_error(self, index, bad):
        pairs = [self.good() for _ in range(4)]
        pairs[index] = getattr(self, bad)()
        assert_stack_raises_like_the_item(self.stacked, self.single, pairs, index)

    def test_a_later_check_on_a_lower_pair_wins(self):
        pairs = [self.good(), self.drift(), self.negative(), self.total()]
        assert_stack_raises_like_the_item(self.stacked, self.single, pairs, 1)

    def test_rows_past_a_pair_reach_no_check(self):
        # the one-state pair passes alone, but its element 5e-10 below zero
        # would fail on the next pair's first state, |0><0|
        low = np.diag([-5e-10, 0.5])
        short = qubit_pair([1.0], [self.KET1], [low, np.eye(2) - low])
        pairs = [short, self.good()]
        tables = self.stacked(pairs)[0]
        for pair, table in zip(pairs, _segments(tables, [2, 4])):
            assert table.tobytes() == self.single(pair).matrix.tobytes()


class TestUnitarityStack:
    @staticmethod
    def single(u):
        return it.basis_measurement(u)

    @pytest.mark.parametrize("index", [0, 1, 3])
    def test_a_failing_unitary_raises_its_single_error(self, index):
        rng = np.random.default_rng(index)
        g = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        items = list(bounds._haar_unitaries(g))
        items[index] = items[index] * (1.0 + 1e-7)
        assert single_error(self.single, items[index]) == (
            ValidationError, "matrix is not unitary"
        )
        assert_stack_raises_like_the_item(
            lambda us: measurement._check_unitaries(np.stack(us)), self.single, items, index
        )
        measurement._check_unitaries(np.stack(items[:index] + items[index + 1:]))

    @pytest.mark.parametrize("blocks", [None, [[0], [1, 2]], [[2, 0], [1]]])
    def test_projectors_equal_the_per_unitary_product(self, blocks):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        stack = bounds._haar_unitaries(g)
        cols = [[j] for j in range(3)] if blocks is None else blocks
        projectors = measurement._block_projectors(stack, cols)
        for u, row in zip(stack, projectors):
            expected = [u[:, b] @ u[:, b].conj().T for b in cols]
            assert row.tobytes() == np.stack(expected).tobytes()
            assert np.stack(it.basis_measurement(u, blocks).elements).tobytes() == row.tobytes()
