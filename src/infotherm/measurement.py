"""Measurements and what they do to information and to states.

Covers POVM validation, outcome statistics and mutual information, the
post-measurement (dephased) state, the entropy increase it carries, and the
explicit record/memory constructions: Naimark dilation of a general POVM
into a projective measurement on a larger space, and the measure-then-reset
pipeline for a memory that stores the outcome.

One analysis, ``_analyse_groups``, gives the bounds and the engine cycle
their I, chi and delta_s: the suite hands it one group of pairs a
dimension, and ``evaluate_bounds``, ``run_cycle`` and ``block_scan`` a
group of one pair (``_group``).  The checks of joint tables, of mutual
informations and of record spectra are each written once, stacked, as
``linops`` writes its own: a one-pair call feeds the same check builders
its own figures as a stack of one.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BlockFormViolation,
    DimensionMismatch,
    NotProjective,
    NumericalFailure,
    ValidationError,
)
from .linops import (
    BOUND_TOL,
    DILATION_TOL,
    HERMITICITY_TOL,
    POVM_SUM_TOL,
    PROB_CLIP,
    PROJECTIVE_TOL,
    PSD_TOL,
    TRACE_TOL,
    UNITARY_TOL,
    _asymmetry,
    _eigvalsh,
    _einsum,
    _Frozen,
    _local_index,
    _ordered_sums,
    _placed,
    _psd_function_stack,
    _raise_first_failure,
    _require_int,
    _row_sums,
    _segments,
    as_complex_matrix,
    max_abs,
    tensor_product,
)
from .quantum import (
    DensityMatrix,
    Ensemble,
    _averages,
    _chis,
    _density_checks,
    _density_eigenvalues,
    _density_spectra,
    _entropies,
    _nonnegative,
)


#: Most complex entries a product stack of ``_detect_projective`` holds,
#: unless one row's products alone hold more.
_PRODUCT_ENTRIES = 2**13


def _detect_projective(stack: np.ndarray, counts) -> np.ndarray:
    """For each (offset, count) segment of the (M, d, d) element stack, in
    order, whether E_j E_k = delta_jk E_j for every j, k in it: idempotence
    of every element first, as one batched product, then orthogonality,
    batched over the idempotent segments, the rows j a few at a time so
    that a product stack holds at most ``_PRODUCT_ENTRIES`` entries (or one
    row).  A j = k product is the idempotence residual, already checked,
    so it is skipped; a segment that fails leaves the rows that follow,
    and the loop ends once no segment is left."""
    counts = np.asarray(counts)
    offsets = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(counts.size), counts)
    residual = np.abs(stack @ stack - stack).max(axis=(1, 2))
    flags = np.maximum.reduceat(residual, offsets) <= PROJECTIVE_TOL
    width = int(counts[flags].max(initial=0))
    if width < 2:
        return flags
    members = np.flatnonzero(flags[owner])
    step = min(width, max(1, _PRODUCT_ENTRIES // (members.size * stack[0].size)))
    for first in range(0, width, step):
        rows = np.arange(first, min(first + step, width))[:, None]
        start, count = offsets[owner[members]], counts[owner[members]]
        # each member k times the rows of its segment in this step, but itself
        j, i = np.nonzero((rows < count) & (rows != members - start))
        k = members[i]
        products = stack[start[i] + rows[j, 0]] @ stack[k]
        failing = np.abs(products).max(axis=(1, 2)) > PROJECTIVE_TOL
        flags[owner[k[failing]]] = False
        members = members[flags[owner[members]]]
        if not members.size:
            break
    return flags


def _povm_flags(stack: np.ndarray, counts, declared) -> np.ndarray:
    """Check each (offset, count) segment of a finite complex (M, d, d)
    element stack as one ``Povm``, with one batched ``eigvalsh``: Hermitian
    PSD elements, completeness, and the projective flag ``declared`` for it
    (``None`` to detect it).  Returns the projective flags; the lowest-index
    failing segment raises the error ``Povm`` raises for it alone."""
    counts = np.asarray(counts)
    offsets = np.cumsum(counts) - counts
    not_hermitian = _asymmetry(stack) > HERMITICITY_TOL
    lowest = _eigvalsh(stack)[:, 0]
    bad_element = not_hermitian | (lowest < -PSD_TOL)
    residual = np.abs(
        np.add.reduceat(stack, offsets, axis=0) - np.eye(stack.shape[1])
    ).max(axis=(1, 2))
    detected = _detect_projective(stack, counts)
    flags = np.array([detected[s] if p is None else bool(p) for s, p in enumerate(declared)])

    def element_error(s):
        j = int(np.argmax(bad_element[offsets[s]:offsets[s] + counts[s]]))
        if not_hermitian[offsets[s] + j]:
            return ValidationError(f"element {j} is not Hermitian")
        return ValidationError(
            f"element {j} has eigenvalue {lowest[offsets[s] + j]:.3e} below -{PSD_TOL:.1e}"
        )

    _raise_first_failure(
        [
            (np.logical_or.reduceat(bad_element, offsets), element_error),
            (
                residual > POVM_SUM_TOL,
                lambda s: ValidationError(
                    f"elements sum to identity only within {residual[s]:.3e} "
                    f"(tolerance {POVM_SUM_TOL:.1e})"
                ),
            ),
            (
                flags & ~detected,
                lambda s: ValidationError(
                    "measurement declared projective but elements are not orthogonal projectors"
                ),
            ),
        ]
    )
    return flags


class Povm(_Frozen):
    """A validated measurement: PSD elements resolving the identity.

    ``projective`` may be passed explicitly; when omitted it is detected
    from the elements.  Passing ``projective=True`` for elements that fail
    the orthogonality check is a validation error.  The elements are
    checked and kept as one read-only (m, d, d) stack; ``elements`` holds
    its slices.
    """

    _fields = ("elements", "projective")

    def __init__(self, elements, projective: bool | None = None):
        elements = tuple(as_complex_matrix(el) for el in elements)
        if len(elements) == 0:
            raise ValidationError("measurement needs at least one element")
        dims = {el.shape[0] for el in elements}
        if len(dims) != 1:
            raise DimensionMismatch(f"elements have mixed dimensions {sorted(dims)}")
        stack = np.stack(elements)
        flag = _povm_flags(stack, [len(elements)], [projective])[0]
        stack.setflags(write=False)
        self._set(stack, flag)

    def _set(self, stack: np.ndarray, projective) -> None:
        self._assign(elements=tuple(stack), projective=bool(projective), _stack=stack)

    @classmethod
    def _checked(cls, stack: np.ndarray, projective) -> "Povm":
        """A read-only element stack that already passed the checks, stacked,
        with its projective flag; nothing is checked again."""
        v = object.__new__(cls)
        v._set(stack, projective)
        return v

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


def _povms(stack: np.ndarray, counts, declared) -> list[Povm]:
    """One ``Povm`` per (offset, count) segment of a finite complex
    (M, d, d) stack, checked with one ``_povm_flags``.  The stack becomes
    read-only and the measurements hold views of it."""
    flags = _povm_flags(stack, counts, declared)
    stack.setflags(write=False)
    return [Povm._checked(segment, flag) for segment, flag in zip(_segments(stack, counts), flags)]


def basis_measurement(unitary, blocks: Sequence[Sequence[int]] | None = None) -> Povm:
    """Projective measurement built from the columns of a unitary.

    With ``blocks`` the columns are grouped into coarse-grained projectors,
    each column index an integer in [0, d); by default each column becomes
    its own rank-1 projector.  This is the
    one-unitary case of ``_check_unitaries`` and ``_block_projectors``.
    """
    u = as_complex_matrix(unitary)[None]
    _check_unitaries(u)
    d = u.shape[1]
    if blocks is None:
        blocks = [[j] for j in range(d)]
    for j in (j for block in blocks for j in block):
        _require_int("block index", j)
        if not 0 <= j < d:
            raise ValidationError(f"block index {j} is outside [0, {d})")
    return Povm(tuple(_block_projectors(u, blocks)[0]), projective=True)


def _check_unitaries(stack: np.ndarray) -> None:
    """Check every matrix of a finite complex (K, d, d) stack for
    max |U+ U - I| <= UNITARY_TOL with one batched product; a failing
    matrix raises what ``basis_measurement`` raises for it."""
    residual = np.abs(stack.conj().swapaxes(1, 2) @ stack - np.eye(stack.shape[1]))
    if np.any(residual.max(axis=(1, 2)) > UNITARY_TOL):
        raise ValidationError("matrix is not unitary")


def _block_projectors(unitaries: np.ndarray, blocks) -> np.ndarray:
    """The (K, len(blocks), d, d) projectors onto each block of columns of
    each unitary of a (K, d, d) stack: one batched ``cols @ cols+`` a
    block."""
    k, d, _ = unitaries.shape
    out = np.empty((k, len(blocks), d, d), dtype=complex)
    for b, block in enumerate(blocks):
        cols = unitaries[:, :, list(block)]
        out[:, b] = cols @ cols.conj().swapaxes(1, 2)
    return out


class JointDistribution(_Frozen):
    """Joint outcome table p(i, j) = p_i * tr(E_j rho_i).

    Rows index preparations, columns index outcomes.  Entries a hair below
    zero (rounding) are clipped; anything below -PROB_CLIP is an error, and
    so is a non-finite entry.  Every sum of the table's entries adds them
    in order from +0.
    """

    _fields = ("matrix",)

    def __init__(self, matrix):
        p = _clipped_table(np.asarray(matrix, dtype=float))
        p.setflags(write=False)
        self._assign(matrix=p)

    @property
    def priors(self) -> np.ndarray:
        return _row_sums(self.matrix)

    @property
    def outcome_probs(self) -> np.ndarray:
        return _row_sums(self.matrix.T)

    @classmethod
    def _checked(cls, matrix: np.ndarray) -> "JointDistribution":
        """A read-only clipped table that already passed the checks,
        stacked; nothing is checked again."""
        j = object.__new__(cls)
        j._assign(matrix=matrix)
        return j


def _clipped_table(p: np.ndarray) -> np.ndarray:
    """A float table with ``JointDistribution``'s checks, in its order: two
    axes, then ``_table_checks``.  Returns the clipped table."""
    if p.ndim != 2 or p.size == 0:
        raise ValidationError(f"expected a 2-d table, got shape {p.shape}")
    _raise_first_failure(_table_checks(p[None]))
    return np.maximum(p, 0.0)


def _table_checks(tables: np.ndarray):
    """``JointDistribution``'s checks of each table of a (B, n, m) stack,
    for ``_raise_first_failure``: ``_joint_checks`` of its own figures."""
    flat = tables.reshape(len(tables), -1)
    finite = np.logical_and.reduce(np.isfinite(flat), axis=1)
    return _joint_checks(finite, flat.min(axis=1), _row_sums(np.maximum(flat, 0.0)))


def _joint_checks(finite: np.ndarray, lowest: np.ndarray, totals: np.ndarray):
    """``JointDistribution``'s checks of B tables, for ``_raise_first_failure``,
    from whether each has finite entries only, its lowest entry and its sum
    with entries below zero clipped to zero (within TRACE_TOL of 1)."""
    return [
        (~finite, lambda k: ValidationError("joint probabilities have non-finite entries")),
        (
            lowest < -PROB_CLIP,
            lambda k: ValidationError(f"joint probability {lowest[k]:.3e} below -{PROB_CLIP:.0e}"),
        ),
        (
            np.abs(totals - 1.0) > TRACE_TOL,
            lambda k: ValidationError(f"joint probabilities sum to {totals[k]:.12g}"),
        ),
    ]


def _drift_check(drift: np.ndarray):
    """The check that each of B tables' rows sum to its priors within TRACE_TOL."""
    return (
        drift > TRACE_TOL,
        lambda k: NumericalFailure("joint distribution rows do not reproduce the priors"),
    )


def _require_same_dim(what: str, dim: int, v: Povm) -> None:
    """Raise ``DimensionMismatch`` unless a ``what`` of dimension ``dim`` fits ``v``."""
    if dim != v.dim:
        raise DimensionMismatch(f"{what} dim {dim} vs measurement dim {v.dim}")


def joint_distribution(e: Ensemble, v: Povm) -> JointDistribution:
    """Outcome statistics of measuring each ensemble member, one trace row
    per state; ``_joint_distributions`` gives each of many pairs these bits
    and errors."""
    _require_same_dim("ensemble", e.dim, v)
    table, _ = _joint_table(e.probs, e._matrices, v._stack)
    return JointDistribution._checked(table)


def _traces(elements: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Re tr(E rho) of each pair of the broadcast (..., d, d) stacks, from
    their matrix products: every trace of an element and a state."""
    return (elements @ states).trace(axis1=-2, axis2=-1).real


def _joint_table(probs: np.ndarray, states: np.ndarray, elements: np.ndarray):
    """``joint_distribution``'s checked, read-only table of the priors
    ``probs``, the stacked member states and the stacked elements, from one
    broadcast product, and its row sums."""
    raw = probs[:, None] * _traces(elements, states[:, None])
    table = np.maximum(raw, 0.0)
    rows = _row_sums(table)
    drift = np.abs(rows - probs).max(keepdims=True)
    _raise_first_failure(_table_checks(raw[None]) + [_drift_check(drift)])
    table.setflags(write=False)
    return table, rows


def _joint_distributions(groups: "list[_Group]", sizes, counts, priors):
    """``joint_distribution`` of each pair of consecutive groups, whose
    sizes, counts and priors, joined, are ``sizes``, ``counts`` and
    ``priors``, with each table's row sums (its ``priors``) and column sums
    (its ``outcome_probs``), all to the last bit of the per-pair call.

    One pair takes ``_joint_table``'s broadcast product, which costs less
    than the gather's index work.  Many pairs take one gather over the live
    (member, element) pairs of every table of a group, so no product is
    taken twice or with a state past a pair's members; the rest runs once
    for all the groups, and each table is a row-major run of the flat
    result, summed by ``_ordered_sums``.  The lowest-index failing pair
    raises what ``joint_distribution`` raises for it alone.  Returns the
    flat tables row-major and outcome-major, the row sums (one a member)
    and the column sums (one an element)."""
    if len(sizes) == 1:
        table, row_sums = _joint_table(priors, groups[0].states, groups[0].elements)
        return table.ravel(), table.T.ravel(), row_sums, _row_sums(table.T)
    first, starts = np.cumsum(sizes) - sizes, np.cumsum(counts) - counts
    cells = sizes * counts
    offsets = np.cumsum(cells) - cells
    owner, cell = _local_index(cells)
    width, height = counts[owner], sizes[owner]
    member = first[owner] + cell // width
    element = starts[owner] + cell % width
    # each group's traces, by its own member and element indices
    traces, s0, e0, c0 = [], 0, 0, 0
    for g in groups:
        c1 = c0 + int(g.sizes @ g.counts)
        traces.append(_traces(g.elements[element[c0:c1] - e0], g.states[member[c0:c1] - s0]))
        s0, e0, c0 = s0 + len(g.states), e0 + len(g.elements), c1
    raw = priors[member] * (np.concatenate(traces) if len(traces) > 1 else traces[0])
    tables = np.maximum(raw, 0.0)
    # entry t of a table's outcome-major run is row t % n of column t // n
    by_outcome = tables[offsets[owner] + (cell % height) * width + cell // height]
    row_sums = _ordered_sums(tables, np.repeat(counts, sizes))
    totals = _ordered_sums(tables, cells)
    col_sums = _ordered_sums(by_outcome, np.repeat(sizes, counts))
    finite = np.logical_and.reduceat(np.isfinite(raw), offsets)
    lowest = np.minimum.reduceat(raw, offsets)
    drift = np.maximum.reduceat(np.abs(row_sums - priors), first)
    _raise_first_failure(_joint_checks(finite, lowest, totals) + [_drift_check(drift)])
    return tables, by_outcome, row_sums, col_sums


def outcome_distribution(r: DensityMatrix, v: Povm) -> np.ndarray:
    """Outcome probabilities tr(E_j rho) of a single state, clipped; they sum to 1."""
    _require_same_dim("state", r.dim, v)
    q = np.maximum(_traces(v._stack, r.matrix), 0.0)
    total = _row_sums(q[None])[0]
    if abs(total - 1.0) > TRACE_TOL:
        raise NumericalFailure(f"outcome probabilities sum to {total:.12g}")
    return q


def mutual_information(j: JointDistribution) -> float:
    """I(A:B) = H(A) + H(B) - H(A,B) in bits, clipped to be nonnegative."""
    p = j.matrix
    n, m = p.shape
    flat = np.concatenate([j.priors, j.outcome_probs, p.ravel()])
    h_a, h_b, h_ab = _entropies(flat, [n, m, n * m])
    return _clipped(h_a + h_b - h_ab, _information_check)


def _clipped(value, check) -> float:
    """One I or delta_s, checked (stacked ``check``) and clipped as the analysis does."""
    values = np.array([value])
    _raise_first_failure([check(values)])
    return float(_nonnegative(values)[0])


def _information_check(infos: np.ndarray):
    """The check of each of a (B,) array of mutual informations, for
    ``_raise_first_failure``: none is below -PROB_CLIP."""
    return (
        infos < -PROB_CLIP,
        lambda k: NumericalFailure(f"mutual information came out {infos[k]:.3e}"),
    )


def _with_record(blocks: np.ndarray) -> np.ndarray:
    """sum_j blocks[j] (x) |j><j| on system (x) record, for an (m, d, d)
    stack: the record index is the fast one, as in ``tensor_product``."""
    m, d, _ = blocks.shape
    out = np.zeros((d, m, d, m), dtype=complex)
    j = np.arange(m)
    out[:, j, :, j] = blocks
    return out.reshape(d * m, d * m)


def _record_blocks(matrix, system_dim: int, record_dim: int) -> np.ndarray:
    """An operator on system (x) record as its (d, m, d, m) view; each
    dimension is an integer of at least 1."""
    m = as_complex_matrix(matrix)
    for name, dim in (("system_dim", system_dim), ("record_dim", record_dim)):
        _require_int(name, dim)
        if dim < 1:
            raise ValidationError(f"{name} must be at least 1, got {dim}")
    if m.shape[0] != system_dim * record_dim:
        raise DimensionMismatch(
            f"operator dim {m.shape[0]} is not {system_dim}*{record_dim}"
        )
    return m.reshape(system_dim, record_dim, system_dim, record_dim)


def post_measurement_state(r: DensityMatrix, v: Povm) -> DensityMatrix:
    """State after an unread (non-selective) measurement.

    Projective case: sum_j P_j rho P_j on the original space.  General
    case: the measurement is run through its record construction, giving
    sum_j (sqrt(E_j) rho sqrt(E_j)) (x) |j><j| on the system-record space
    of dimension dim * n_outcomes.
    """
    _require_same_dim("state", r.dim, v)
    if v.projective:
        return DensityMatrix(_ordered_sums(v._stack @ r.matrix @ v._stack, [v.size])[0])
    roots = _psd_function_stack(v._stack, np.sqrt)
    return DensityMatrix(_with_record(roots @ r.matrix @ roots))


def _post_measurement_spectrum(r: DensityMatrix, v: Povm) -> np.ndarray:
    """Eigenvalues of ``post_measurement_state(r, v)``, ascending, clipped
    to be nonnegative, without building the system-record state:
    ``_post_measurement_spectra`` of one stack of one pair, the record
    route's sqrt(rho) from ``r``'s kept eigendecomposition."""
    _require_same_dim("state", r.dim, v)
    return _post_measurement_spectra([(r.matrix[None], v._stack, [v.size], [v.projective])], r)[0]


def _post_measurement_spectra(stacks, rho: DensityMatrix | None = None):
    """``_post_measurement_spectrum`` of each pair of consecutive stacks,
    each (rhos, elements, counts, projective): checked (K, d, d) states,
    state k measured by ``counts[k]`` consecutive elements of the (M, d, d)
    ``elements``, projectively where ``projective[k]``.  Each stack's
    projective pairs take one ``_dephased_spectra``; its other pairs take
    one stacked sqrt(rho), one ``_root_spectra`` and one ``_record_unions``
    (``records``).  ``rho``, given for one stack of one state, is that
    state, whose kept eigendecomposition gives its sqrt(rho).  Returns the
    spectra in pair order, stack after stack, flat, and their lengths.  The
    checks of all routes run as one stack, so the lowest failing pair,
    counted stack after stack, raises with its own route's message; only
    each sqrt(rho) is checked first, as it is taken."""
    def records(rhos, elements, counts):
        roots = _psd_function_stack(rhos, np.sqrt) if rho is None else rho._function(np.sqrt)[None]
        return _record_unions(*_root_spectra(roots, elements, counts))

    parts, total = [], 0
    for rhos, elements, counts, projective in stacks:
        counts, projective = np.asarray(counts), np.asarray(projective, dtype=bool)
        for route, flags in ((_dephased_spectra, projective), (records, ~projective)):
            pairs = flags.nonzero()[0]
            if pairs.size == len(flags):
                parts.append((total + pairs, *route(rhos, elements, counts)))
            elif pairs.size:
                lanes = flags.repeat(counts)
                parts.append((total + pairs, *route(rhos[pairs], elements[lanes], counts[pairs])))
        total += len(counts)
    if len(parts) == 1:
        _raise_first_failure(parts[0][3])
        return parts[0][1:3]
    _raise_first_failure([check for p, _, _, c in parts for check in _placed(c, p, total)])
    pairs, spectra, lengths = (np.concatenate(part) for part in list(zip(*parts))[:3])
    # each pair's run of the parts' spectra, taken in pair order
    order = np.argsort(pairs)
    owner, local = _local_index(lengths[order])
    return spectra[(np.cumsum(lengths) - lengths)[order][owner] + local], lengths[order]


def _dephased_spectra(rhos: np.ndarray, projectors: np.ndarray, counts: np.ndarray):
    """The spectrum of sum_j P_j rho P_j of each state of a (K, d, d) stack
    under its ``counts[k]`` consecutive projectors, which is d x d already;
    the record-state union of ``_root_spectra`` would agree to rounding,
    but on commuting instances delta_s is itself rounding noise and would
    change in the printed digits.  Each pair's products are added in
    order, as ``post_measurement_state`` adds them.  Returns the clipped
    spectra, flat, their lengths, and the dephased states' density checks."""
    products = projectors @ rhos.repeat(counts, axis=0) @ projectors
    w, checks = _density_spectra(_ordered_sums(products, counts))
    return np.maximum(w, 0.0).ravel(), np.full(len(counts), w.shape[1]), checks


def _root_spectra(roots: np.ndarray, elements: np.ndarray, counts: np.ndarray):
    """The record state of a state rho under elements E_j is block diagonal
    with blocks A_j A_j^+, where A_j = sqrt(E_j) sqrt(rho); each block shares
    its spectrum with A_j^+ A_j = sqrt(rho) E_j sqrt(rho), so its d*m
    eigenvalues are the union of m d x d spectra.  Returns those spectra of
    each state of a (K, d, d) stack under its ``counts[k]`` consecutive
    elements, from the stack ``roots`` of sqrt(rho) and one batched
    ``eigvalsh``, flat, and each union's length."""
    roots = roots.repeat(counts, axis=0)
    spectra = _eigvalsh(roots @ elements @ roots)
    return spectra.ravel(), counts * spectra.shape[1]


def _record_unions(flat: np.ndarray, lengths: np.ndarray):
    """Each consecutive run of ``lengths`` block eigenvalues of ``flat`` as
    one record state's spectrum, sorted as one row of its length.  Returns
    the clipped spectra, flat, their lengths, and the unit-trace and PSD
    checks that ``DensityMatrix`` would give the record states."""
    if (lengths == lengths[0]).all():
        unions = np.sort(flat.reshape(len(lengths), -1))
        checks = _density_checks(unions.sum(axis=1), unions[:, 0])
        return np.maximum(unions, 0.0).ravel(), lengths, checks
    out, traces, lowest = np.empty(flat.size), np.empty(len(lengths)), np.empty(len(lengths))
    offsets = np.cumsum(lengths) - lengths
    for n in set(lengths.tolist()):
        ks = np.flatnonzero(lengths == n)
        runs = offsets[ks][:, None] + np.arange(n)
        unions = np.sort(flat[runs])
        traces[ks], lowest[ks] = unions.sum(axis=1), unions[:, 0]
        out[runs] = np.maximum(unions, 0.0)
    return out, lengths, _density_checks(traces, lowest)


def _entropy_increase_check(increases: np.ndarray):
    """The check of each of a (B,) array of entropy increases, for
    ``_raise_first_failure``: none is below -BOUND_TOL."""
    return (
        increases < -BOUND_TOL,
        lambda k: NumericalFailure(f"entropy increase came out {increases[k]:.3e}"),
    )


def delta_s(r: DensityMatrix, v: Povm) -> float:
    """Entropy increase S(post-measurement) - S(rho), in bits.

    Nonnegative by construction (dephasing never lowers entropy); values a
    hair below zero are clipped, below -BOUND_TOL they raise.  For a general
    POVM the post-measurement entropy comes from the union of the spectra
    of sqrt(rho) E_j sqrt(rho); the d*m-dim record state is never built.
    """
    sigma = _post_measurement_spectrum(r, v)
    s_sigma, s_rho = _entropies(np.concatenate([sigma, r.spectrum()]), [sigma.size, r.dim])
    return _clipped(s_sigma - s_rho, _entropy_increase_check)


class _Group(NamedTuple):
    """One dimension's (ensemble, measurement) pairs as flat stacks, as
    drawn: pair k has ``sizes[k]`` members and ``counts[k]`` elements,
    consecutive in the member and element stacks."""

    states: np.ndarray  # (S, d, d) checked member states
    eigenvalues: np.ndarray  # (S, d) their eigenvalues, ascending, from the check
    priors: np.ndarray  # (S,) checked priors, clipped
    sizes: np.ndarray  # (K,) members of each pair
    elements: np.ndarray  # (M, d, d) checked measurement elements
    counts: np.ndarray  # (K,) elements of each pair
    projective: np.ndarray  # (K,) each measurement's projective flag


class _Analysis(NamedTuple):
    """The analysis of consecutive (ensemble, measurement) pairs, which the
    bounds and the cycle booking read: every field is flat over the pairs,
    pair after pair, so a pair's part of a field is the field of its own
    one-pair analysis."""

    priors: np.ndarray  # (S,) clipped priors, S members in all
    sizes: np.ndarray  # (K,) members of each pair
    counts: np.ndarray  # (K,) elements of each pair
    projective: np.ndarray  # (K,) each measurement's projective flag
    dims: np.ndarray  # (K,) each pair's dimension d
    by_outcome: np.ndarray  # the clipped joint tables, each outcome-major
    outcome_probs: np.ndarray  # (M,) the tables' column sums
    rho_spectra: np.ndarray  # clipped, of the average states, d a pair
    member_spectra: np.ndarray  # clipped, d a member
    sigma_spectra: np.ndarray  # clipped, d or d m a pair
    sigma_sizes: np.ndarray  # (K,) the sigma spectra's lengths
    info: np.ndarray  # (K,) I(A:B)
    chi: np.ndarray  # (K,)
    delta_s: np.ndarray  # (K,)


def _group(pairs) -> _Group:
    """(ensemble, measurement) pairs, all of one dimension, as one
    ``_Group``, the record a suite draw gives, a lone pair's arrays as
    they are; a measurement whose dimension is not its ensemble's raises
    ``DimensionMismatch``."""
    for e, v in pairs:
        _require_same_dim("ensemble", e.dim, v)

    def joined(parts):
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    return _Group(
        joined([e._matrices for e, _ in pairs]),
        np.array([s._eigenvalues for e, _ in pairs for s in e.states]),
        joined([e.probs for e, _ in pairs]),
        np.array([e.size for e, _ in pairs]),
        joined([v._stack for _, v in pairs]),
        np.array([v.size for _, v in pairs]),
        np.array([v.projective for _, v in pairs]),
    )


def _pairs(g: _Group) -> list[tuple[Ensemble, Povm]]:
    """Each pair of a group as an ``Ensemble`` and a ``Povm`` of views of
    its stacks, which become read-only; nothing is checked again."""
    g.states.setflags(write=False)
    g.elements.setflags(write=False)
    states = [DensityMatrix._checked(m, w) for m, w in zip(g.states, g.eigenvalues)]
    sizes, counts = g.sizes.tolist(), g.counts.tolist()
    ensembles = [
        Ensemble._checked(p, tuple(members))
        for p, members in zip(_segments(g.priors, sizes), _segments(states, sizes))
    ]
    povms = [
        Povm._checked(stack, flag)
        for stack, flag in zip(_segments(g.elements, counts), g.projective.tolist())
    ]
    return list(zip(ensembles, povms))


def _analyse_groups(groups: list[_Group], rho: DensityMatrix | None = None) -> _Analysis:
    """The ``_Analysis`` of every pair of the groups, group after group,
    with the kernels and checks of ``mutual_information``, ``holevo_chi``
    and ``delta_s``, stage by stage over all of them: a kernel that needs
    one (K, d, d) stack runs once a group, everything else once.  The
    stages, in order: one ``_joint_distributions`` for the tables and
    their marginals; each group's average states (``_averages``) and their
    density checks; one ``_post_measurement_spectra``, each group's
    sqrt(rho) checked as it is taken, then every route check; one
    ``_entropies`` for every entropy; then I, chi (``_chis``) and delta_s
    of every pair, checked, then clipped.  The first stage with a failing
    pair raises, for the lowest failing pair counted group after group,
    with that pair's own error.  ``rho``, given for one group of one pair
    (``_group``), is that pair's checked average state, whose eigenvalues
    and kept eigendecomposition the analysis reads in place of its own."""
    # the groups' fields, each as one flat array; a lone group's as they are
    fields = [
        (g.sizes, g.counts, g.priors, g.projective, g.eigenvalues.reshape(-1)) for g in groups
    ]
    sizes, counts, priors, projective, members = (
        fields[0] if len(fields) == 1 else [np.concatenate(parts) for parts in zip(*fields)]
    )
    tables, by_outcome, row_sums, col_sums = _joint_distributions(groups, sizes, counts, priors)
    if rho is None:
        averages = [_averages(g.priors, g.states, g.sizes) for g in groups]
        lam = np.concatenate(
            [np.maximum(_density_eigenvalues(rhos), 0.0).ravel() for rhos in averages]
        )
    else:
        averages, lam = [rho.matrix[None]], rho.spectrum()
    sigma, sigma_sizes = _post_measurement_spectra(
        [(rhos, g.elements, g.counts, g.projective) for rhos, g in zip(averages, groups)], rho
    )
    members = np.maximum(members, 0.0)
    dims = np.array([g.states.shape[1] for g in groups]).repeat([len(g.sizes) for g in groups])
    vectors = [row_sums, col_sums, tables, lam, sigma, members]
    lengths = [sizes, counts, sizes * counts, dims, sigma_sizes, dims.repeat(sizes)]
    h = _entropies(np.concatenate(vectors), np.concatenate(lengths))
    k = len(sizes)
    h_a, h_b, h_ab, s_rho, s_sigma = h[:5 * k].reshape(5, k)
    infos, increases = h_a + h_b - h_ab, s_sigma - s_rho
    _raise_first_failure([_information_check(infos)])
    _raise_first_failure([_entropy_increase_check(increases)])
    chis = _chis(s_rho, priors, h[5 * k:], sizes)
    info, chi, ds = _nonnegative(np.array([infos, chis, increases]))
    return _Analysis(
        priors,
        sizes,
        counts,
        projective,
        dims,
        by_outcome,
        col_sums,
        lam,
        members,
        sigma,
        sigma_sizes,
        info,
        chi,
        ds,
    )


def naimark_dilation(v: Povm) -> tuple[np.ndarray, Povm]:
    """Isometry and projective measurement reproducing a POVM's statistics.

    Returns ``(V, P)`` with ``V = sum_j sqrt(E_j) (x) |j>`` mapping the
    system space into system (x) record, and ``P`` the projective
    measurement {I (x) |j><j|} on that larger space.  For any state rho,
    tr(P_j V rho V+) = tr(E_j rho).
    """
    d, m = v.dim, v.size
    roots = _psd_function_stack(v._stack, np.sqrt)
    iso = roots.transpose(1, 0, 2).reshape(d * m, d)
    if max_abs(iso.conj().T @ iso - np.eye(d)) > DILATION_TOL:
        raise NumericalFailure("dilation isometry failed V+V = I check")
    picks = np.eye(m)[:, :, None, None] * np.eye(d)
    return iso, Povm(tuple(_with_record(blocks) for blocks in picks), projective=True)


def partial_trace_record(matrix: np.ndarray, system_dim: int, record_dim: int) -> np.ndarray:
    """Trace out the record factor of an operator on system (x) record."""
    return _einsum("ikjk->ij", _record_blocks(matrix, system_dim, record_dim))


def partial_trace_system(matrix: np.ndarray, system_dim: int, record_dim: int) -> np.ndarray:
    """Trace out the system factor, leaving the record marginal."""
    return _einsum("ikil->kl", _record_blocks(matrix, system_dim, record_dim))


def demon_record_state(r: DensityMatrix, v: Povm) -> DensityMatrix:
    """Joint system-memory state after a projective measurement is recorded.

    sum_m (P_m rho P_m) (x) |m><m| on system (x) memory, with the memory
    dimension equal to the number of outcomes.  Tracing out the memory
    recovers the dephased state.
    """
    if not v.projective:
        raise NotProjective("recording requires a projective measurement")
    _require_same_dim("state", r.dim, v)
    return DensityMatrix(_with_record(v._stack @ r.matrix @ v._stack))


def demon_reset(r_pm: DensityMatrix, v: Povm) -> tuple[np.ndarray, DensityMatrix]:
    """Logically reversible erasure of the memory register.

    Builds the controlled shift U = sum_m P_m (x) Shift^(-m) (control on
    the system in the measurement basis) and applies it to the recorded
    state.  For a state with the record structure produced by
    ``demon_record_state`` the result factorizes as sigma (x) |0><0|: the
    memory is blank again and no entropy was produced (U is unitary).
    """
    if not v.projective:
        raise NotProjective("reset is defined for projective records")
    m = v.size
    if r_pm.dim % m != 0 or r_pm.dim // m != v.dim:
        raise DimensionMismatch(
            f"recorded state dim {r_pm.dim} does not factor as {v.dim}*{m}"
        )
    unitary = np.zeros((r_pm.dim, r_pm.dim), dtype=complex)
    for idx, proj in enumerate(v.elements):
        # np.roll(I, -idx) is Shift^(-idx), taking |k> to |k - idx mod m>
        unitary += tensor_product(proj, np.roll(np.eye(m), -idx, axis=0))
    if max_abs(unitary @ unitary.conj().T - np.eye(r_pm.dim)) > DILATION_TOL:
        raise NumericalFailure("reset unitary failed the unitarity check")
    after = unitary @ r_pm.matrix @ unitary.conj().T
    blocks = np.zeros((m, v.dim, v.dim), dtype=complex)
    blocks[0] = partial_trace_record(after, v.dim, m)
    expected = _with_record(blocks)
    if max_abs(after - expected) > DILATION_TOL:
        raise BlockFormViolation(
            "recorded state lacks the system-memory correlation the reset needs"
        )
    return unitary, DensityMatrix(after)
