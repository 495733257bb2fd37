"""Measurements and what they do to information and to states.

Covers POVM validation, outcome statistics and mutual information, the
post-measurement (dephased) state, the entropy increase it carries, and the
explicit record/memory constructions: Naimark dilation of a general POVM
into a projective measurement on a larger space, and the measure-then-reset
pipeline for a memory that stores the outcome.

The checks of joint tables, of mutual informations and of record spectra
are each written once, stacked, as ``linops`` writes its own: a one-pair
call feeds the same check builders its own figures as a stack of one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    _chi,
    _chis,
    _density_checks,
    _density_eigenvalues,
    _density_spectra,
    _entropies,
    _entropy_of_spectrum,
    average_state,
)


def _detect_projective(stack: np.ndarray, counts) -> np.ndarray:
    """For each (offset, count) segment of the (M, d, d) element stack, in
    order, whether E_j E_k = delta_jk E_j for every j, k in it: idempotence
    of every element first, as one batched product, then orthogonality one
    row j at a time, batched over the idempotent segments, so a product
    stack never holds more than one entry per element."""
    counts = np.asarray(counts)
    offsets = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(counts.size), counts)
    residual = np.abs(stack @ stack - stack).max(axis=(1, 2))
    flags = np.maximum.reduceat(residual, offsets) <= PROJECTIVE_TOL
    members = np.flatnonzero(flags[owner])
    for j in range(int(counts[flags].max(initial=0))):
        members = members[counts[owner[members]] > j]
        rows = offsets[owner[members]] + j
        products = stack[rows] @ stack[members]
        same = rows == members
        products[same] -= stack[rows[same]]
        failing = np.abs(products).max(axis=(1, 2)) > PROJECTIVE_TOL
        flags[owner[members[failing]]] = False
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
    lowest = np.linalg.eigvalsh(stack)[:, 0]
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


@dataclass(frozen=True)
class Povm:
    """A validated measurement: PSD elements resolving the identity.

    ``projective`` may be passed explicitly; when omitted it is detected
    from the elements.  Passing ``projective=True`` for elements that fail
    the orthogonality check is a validation error.  The elements are
    checked and kept as one read-only (m, d, d) stack; ``elements`` holds
    its slices.
    """

    elements: tuple[np.ndarray, ...]
    projective: bool | None = None
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elements = tuple(as_complex_matrix(el) for el in self.elements)
        if len(elements) == 0:
            raise ValidationError("measurement needs at least one element")
        dims = {el.shape[0] for el in elements}
        if len(dims) != 1:
            raise DimensionMismatch(f"elements have mixed dimensions {sorted(dims)}")
        stack = np.stack(elements)
        flag = _povm_flags(stack, [len(elements)], [self.projective])[0]
        stack.setflags(write=False)
        self._set(stack, flag)

    def _set(self, stack: np.ndarray, projective) -> None:
        object.__setattr__(self, "elements", tuple(stack))
        object.__setattr__(self, "projective", bool(projective))
        object.__setattr__(self, "_stack", stack)

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


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome table p(i, j) = p_i * tr(E_j rho_i).

    Rows index preparations, columns index outcomes.  Entries a hair below
    zero (rounding) are clipped; anything below -PROB_CLIP is an error, and
    so is a non-finite entry.  Every sum of the table's entries adds them
    in order from +0.
    """

    matrix: np.ndarray

    def __post_init__(self):
        p = _clipped_table(np.asarray(self.matrix, dtype=float))
        p.setflags(write=False)
        object.__setattr__(self, "matrix", p)

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
        object.__setattr__(j, "matrix", matrix)
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
    states = np.array([s.matrix for s in e.states])
    raw = e.probs[:, None] * np.trace(v._stack @ states[:, None], axis1=2, axis2=3).real
    table = np.maximum(raw, 0.0)
    drift = np.abs(_row_sums(table) - e.probs).max(keepdims=True)
    _raise_first_failure(_table_checks(raw[None]) + [_drift_check(drift)])
    table.setflags(write=False)
    return JointDistribution._checked(table)


def _joint_distributions(groups: "list[_Group]"):
    """``joint_distribution`` of each pair of consecutive groups, with each
    table's row sums (its ``priors``) and column sums (its
    ``outcome_probs``), all to the last bit of the per-pair call.

    The products are one gather over the live (member, element) pairs of
    every table of a group, so no product is taken twice or with a state
    past a pair's members; the rest runs once for all the groups, pair
    after pair, and each table is a row-major run of the flat result.  Its
    sums are ``_ordered_sums``, in order from +0 as the per-pair call adds.
    Each pair's average state adds its weighted members in
    ``_average_matrix``'s order.  The checks run stacked; the lowest-index
    failing pair raises what ``joint_distribution`` raises for it alone.
    Returns the flat tables row-major and outcome-major, the row sums (one
    a member), the column sums (one an element) and each group's (K, d, d)
    stack of average states."""
    sizes, counts, priors = (_joined(groups, name) for name in ("sizes", "counts", "priors"))
    first, starts = np.cumsum(sizes) - sizes, np.cumsum(counts) - counts
    cells = sizes * counts
    offsets = np.cumsum(cells) - cells
    owner, cell = _local_index(cells)
    width, height = counts[owner], sizes[owner]
    member = first[owner] + cell // width
    element = starts[owner] + cell % width
    # each group's products, by its own member and element indices
    traces, s0, e0, c0 = [], 0, 0, 0
    for g in groups:
        c1 = c0 + int(g.sizes @ g.counts)
        products = g.elements[element[c0:c1] - e0] @ g.states[member[c0:c1] - s0]
        traces.append(np.trace(products, axis1=1, axis2=2).real)
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
    averages = [_ordered_sums(g.priors[:, None, None] * g.states, g.sizes) for g in groups]
    return tables, by_outcome, row_sums, col_sums, averages


def outcome_distribution(r: DensityMatrix, v: Povm) -> np.ndarray:
    """Outcome probabilities tr(E_j rho) for a single state."""
    _require_same_dim("state", r.dim, v)
    q = np.trace(v._stack @ r.matrix, axis1=1, axis2=2).real
    q = np.clip(q, 0.0, None)
    if abs(q.sum() - 1.0) > TRACE_TOL:
        raise NumericalFailure(f"outcome probabilities sum to {q.sum():.12g}")
    return q


def mutual_information(j: JointDistribution) -> float:
    """I(A:B) = H(A) + H(B) - H(A,B) in bits, clipped to be nonnegative."""
    p = j.matrix
    return _clipped_information(
        _entropy_of_spectrum(_row_sums(p))
        + _entropy_of_spectrum(_row_sums(p.T))
        - _entropy_of_spectrum(p.reshape(-1))
    )


def _clipped_information(info: float) -> float:
    """A mutual information a hair below zero clipped to zero; below
    -PROB_CLIP it raises: ``_information_check`` of one value."""
    _raise_first_failure([_information_check(np.array([info]))])
    return max(0.0, info)


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
    """An operator on system (x) record as its (d, m, d, m) view."""
    m = as_complex_matrix(matrix)
    if m.shape[0] != system_dim * record_dim:
        raise DimensionMismatch(
            f"operator dim {m.shape[0]} is not {system_dim}*{record_dim}"
        )
    return m.reshape(system_dim, record_dim, system_dim, record_dim)


def _dephased_matrix(rho: np.ndarray, v: Povm) -> np.ndarray:
    """sum_j P_j rho P_j, the elements' products summed in order."""
    return (v._stack @ rho @ v._stack).sum(axis=0)


def post_measurement_state(r: DensityMatrix, v: Povm) -> DensityMatrix:
    """State after an unread (non-selective) measurement.

    Projective case: sum_j P_j rho P_j on the original space.  General
    case: the measurement is run through its record construction, giving
    sum_j (sqrt(E_j) rho sqrt(E_j)) (x) |j><j| on the system-record space
    of dimension dim * n_outcomes.
    """
    _require_same_dim("state", r.dim, v)
    if v.projective:
        return DensityMatrix(_dephased_matrix(r.matrix, v))
    roots = _psd_function_stack(v._stack, np.sqrt)
    return DensityMatrix(_with_record(roots @ r.matrix @ roots))


def _post_measurement_spectrum(r: DensityMatrix, v: Povm) -> np.ndarray:
    """Eigenvalues of ``post_measurement_state(r, v)``, ascending, clipped
    to be nonnegative, without building the system-record state: the
    one-pair case of ``_post_measurement_spectra``'s route for ``v``."""
    _require_same_dim("state", r.dim, v)
    route = _dephased_spectra if v.projective else _record_spectra
    spectrum, _, checks = route(r.matrix[None], v._stack, np.array([v.size]))
    _raise_first_failure(checks)
    return spectrum


def _post_measurement_spectra(stacks):
    """``_post_measurement_spectrum`` of each pair of consecutive stacks,
    each (rhos, elements, counts, projective): checked (K, d, d) states,
    state k measured by ``counts[k]`` consecutive elements of the (M, d, d)
    ``elements``, projectively where ``projective[k]``.  Each stack's
    projective pairs take one ``_dephased_spectra``, the rest one
    ``_block_spectra``, and every stack's general pairs one
    ``_record_unions``.  Returns the spectra in pair order, stack after
    stack, flat, and their lengths.  The checks of all routes run as one
    stack, so the lowest failing pair, counted stack after stack, raises
    with its own route's message; only each sqrt(rho) is checked first, as
    it is taken."""
    parts, general, total = [], [], 0
    for rhos, elements, counts, projective in stacks:
        counts, projective = np.asarray(counts), np.asarray(projective, dtype=bool)
        for route, flags, found in (
            (_dephased_spectra, projective, parts),
            (_block_spectra, ~projective, general),
        ):
            pairs = np.flatnonzero(flags)
            if pairs.size == len(flags):
                found.append((total + pairs, *route(rhos, elements, counts)))
            elif pairs.size:
                lanes = np.repeat(flags, counts)
                found.append((total + pairs, *route(rhos[pairs], elements[lanes], counts[pairs])))
        total += len(counts)
    if general:
        pairs, spectra, lengths = (np.concatenate(part) for part in zip(*general))
        parts.append((pairs, *_record_unions(spectra, lengths)))
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
    the record-state union of ``_record_spectra`` would agree to rounding,
    but on commuting instances delta_s is itself rounding noise and would
    change in the printed digits.  Each pair's products are added in
    order, as ``_dephased_matrix`` adds them.  Returns the clipped spectra,
    flat, their lengths, and the dephased states' density checks."""
    products = projectors @ np.repeat(rhos, counts, axis=0) @ projectors
    w, checks = _density_spectra(_ordered_sums(products, counts))
    return np.maximum(w, 0.0).ravel(), np.full(len(counts), w.shape[1]), checks


def _record_spectra(rhos: np.ndarray, elements: np.ndarray, counts: np.ndarray):
    """The spectrum of each record state sum_j (sqrt(E_j) rho sqrt(E_j))
    (x) |j><j| of a (K, d, d) stack of states under ``counts[k]``
    consecutive elements each: ``_record_unions`` of ``_block_spectra``."""
    return _record_unions(*_block_spectra(rhos, elements, counts))


def _block_spectra(rhos: np.ndarray, elements: np.ndarray, counts: np.ndarray):
    """The record state of a state rho under elements E_j is block diagonal
    with blocks A_j A_j^+, where A_j = sqrt(E_j) sqrt(rho); each block shares
    its spectrum with A_j^+ A_j = sqrt(rho) E_j sqrt(rho), so its d*m
    eigenvalues are the union of m d x d spectra.  Returns those spectra of
    each state of a (K, d, d) stack under its ``counts[k]`` consecutive
    elements, from one stacked sqrt(rho) and one batched ``eigvalsh``,
    flat, and each union's length."""
    roots = np.repeat(_psd_function_stack(rhos, np.sqrt), counts, axis=0)
    spectra = np.linalg.eigvalsh(roots @ elements @ roots)
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


def _entropy_increase(sigma_entropy: float, rho_entropy: float) -> float:
    """S(sigma) - S(rho) from the two entropies; a hair below zero is
    clipped, anything below -BOUND_TOL raises: ``_entropy_increase_check``
    of one value."""
    ds = sigma_entropy - rho_entropy
    if ds < -BOUND_TOL:
        _raise_first_failure([_entropy_increase_check(np.array([ds]))])
    return max(0.0, ds)


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
    return _entropy_increase(
        _entropy_of_spectrum(_post_measurement_spectrum(r, v)), _entropy_of_spectrum(r.spectrum())
    )


class _Group(NamedTuple):
    """One dimension's (ensemble, measurement) pairs as flat stacks, from
    the draw to the booking: pair k has ``sizes[k]`` members and
    ``counts[k]`` elements, consecutive in the member and element stacks.
    ``_analyse_groups`` fills in the analysis fields, each a flat array
    over the pairs, whose pair-k parts are the fields of the pair's
    one-pair group from ``_analyse``."""

    states: np.ndarray  # (S, d, d) checked member states
    eigenvalues: np.ndarray  # (S, d) their eigenvalues, ascending, from the check
    priors: np.ndarray  # (S,) checked priors, clipped
    sizes: np.ndarray  # (K,) members of each pair
    elements: np.ndarray  # (M, d, d) checked measurement elements
    counts: np.ndarray  # (K,) elements of each pair
    projective: np.ndarray  # (K,) each measurement's projective flag
    tables: np.ndarray | None = None  # the clipped joint tables, each row-major
    by_outcome: np.ndarray | None = None  # the same tables, each outcome-major
    outcome_probs: np.ndarray | None = None  # (M,) the tables' column sums
    rho_spectra: np.ndarray | None = None  # (K, d) clipped, of the average states
    member_spectra: np.ndarray | None = None  # (S, d) clipped
    sigma_spectra: np.ndarray | None = None  # clipped, d or d m a pair
    sigma_sizes: np.ndarray | None = None  # (K,) the sigma spectra's lengths
    info: np.ndarray | None = None  # (K,) I(A:B)
    chi: np.ndarray | None = None  # (K,)
    delta_s: np.ndarray | None = None  # (K,)


def _group(pairs) -> _Group:
    """The (ensemble, measurement) pairs, all of one dimension, as one
    ``_Group``.  ``np.array`` stacks the states' equal-shape arrays as
    ``np.stack`` would, at a fraction of its fixed cost."""
    for e, v in pairs:
        _require_same_dim("ensemble", e.dim, v)
    states = [s for e, _ in pairs for s in e.states]
    return _Group(
        np.array([s.matrix for s in states]),
        np.array([s._eigenvalues for s in states]),
        np.concatenate([e.probs for e, _ in pairs]),
        np.array([e.size for e, _ in pairs]),
        np.concatenate([v._stack for _, v in pairs]),
        np.array([v.size for _, v in pairs]),
        np.array([v.projective for _, v in pairs]),
    )


def _analyse(e: Ensemble, v: Povm, rho: DensityMatrix | None = None) -> _Group:
    """The analysis ``evaluate_bounds``, ``run_cycle`` and ``block_scan``
    read, as the pair's one-pair ``_Group``, with the arithmetic and checks
    of ``mutual_information``, ``holevo_chi`` and ``delta_s``;
    ``_analyse_groups`` gives each of many pairs these bits.  ``rho`` is
    ``average_state(e)``, built here unless the caller already has it."""
    joint = joint_distribution(e, v)
    rho = average_state(e) if rho is None else rho
    sigma = _post_measurement_spectrum(rho, v)
    info = mutual_information(joint)
    g = _group([(e, v)])
    members = np.maximum(g.eigenvalues, 0.0)
    s_rho = _entropy_of_spectrum(rho.spectrum())
    chi = _chi(e.probs, s_rho, [_entropy_of_spectrum(w) for w in members])
    ds = _entropy_increase(_entropy_of_spectrum(sigma), s_rho)
    table = joint.matrix
    return _Group(
        *g[:7],
        table.ravel(),
        table.T.ravel(),
        joint.outcome_probs,
        rho.spectrum()[None],
        members,
        sigma,
        np.array([sigma.size]),
        np.array([info]),
        np.array([chi]),
        np.array([ds]),
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


def _joined(groups, name: str) -> np.ndarray:
    """One field of consecutive groups as one flat array."""
    parts = [getattr(g, name).reshape(-1) for g in groups]
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _analyse_groups(groups: list[_Group]) -> list[_Group]:
    """Each group with its analysis, stage by stage over all of them: a
    kernel that needs one (K, d, d) stack runs once a group, everything
    else once.  The stages, in order: one ``_joint_distributions`` for the
    tables, their marginals and each group's average states; the average
    states' density checks; one ``_post_measurement_spectra``, each
    group's sqrt(rho) checked as it is taken, then every route check; one
    ``_entropies`` for every entropy; then I, chi and delta_s of every pair
    with the arithmetic and stacked checks of ``mutual_information``,
    ``holevo_chi`` and ``delta_s``.  Each pair's values are ``_analyse``'s
    to the last bit.  The first stage with a failing pair raises, for the
    lowest failing pair counted group after group, with that pair's own
    error."""
    tables, by_outcome, row_sums, col_sums, averages = _joint_distributions(groups)
    rho_spectra = [np.maximum(_density_eigenvalues(rhos), 0.0) for rhos in averages]
    sigma, sigma_sizes = _post_measurement_spectra(
        [(rhos, g.elements, g.counts, g.projective) for rhos, g in zip(averages, groups)]
    )
    sizes, counts, priors = (_joined(groups, name) for name in ("sizes", "counts", "priors"))
    members = [np.maximum(g.eigenvalues, 0.0) for g in groups]
    trials = [len(g.sizes) for g in groups]
    widths = [w.shape[1] for w in members]
    vectors = [row_sums, col_sums, tables] + [w.ravel() for w in rho_spectra]
    vectors += [sigma] + [w.ravel() for w in members]
    lengths = [sizes, counts, sizes * counts, np.repeat(widths, trials), sigma_sizes]
    lengths += [np.repeat(widths, [len(w) for w in members])]
    k = len(sizes)
    h_a, h_b, h_ab, s_rho, s_sigma, h_members = np.split(
        _entropies(np.concatenate(vectors), np.concatenate(lengths)), np.arange(1, 6) * k
    )
    infos = h_a + h_b - h_ab
    _raise_first_failure([_information_check(infos)])
    increases = s_sigma - s_rho
    _raise_first_failure([_entropy_increase_check(increases)])
    # each flat field back into its groups' parts
    cells = [int(g.sizes @ g.counts) for g in groups]
    lengths = _segments(sigma_sizes, trials)
    fields = zip(
        _segments(tables, cells),
        _segments(by_outcome, cells),
        _segments(col_sums, [len(g.elements) for g in groups]),
        rho_spectra,
        members,
        _segments(sigma, [int(n.sum()) for n in lengths]),
        lengths,
        _segments(np.where(infos > 0.0, infos, 0.0), trials),
        _segments(_chis(priors, sizes, s_rho, h_members), trials),
        _segments(np.where(increases > 0.0, increases, 0.0), trials),
    )
    return [_Group(*g[:7], *parts) for g, parts in zip(groups, fields)]


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
    return np.einsum("ikjk->ij", _record_blocks(matrix, system_dim, record_dim))


def partial_trace_system(matrix: np.ndarray, system_dim: int, record_dim: int) -> np.ndarray:
    """Trace out the system factor, leaving the record marginal."""
    return np.einsum("ikil->kl", _record_blocks(matrix, system_dim, record_dim))


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
