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
from typing import Sequence

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
    _psd_function_stack,
    _raise_first_failure,
    _require_int,
    _segments,
    as_complex_matrix,
    max_abs,
    tensor_product,
)
from .quantum import (
    DensityMatrix,
    Ensemble,
    _chi,
    _density_checks,
    _density_eigenvalues,
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
    so is a non-finite entry.
    """

    matrix: np.ndarray

    def __post_init__(self):
        p = _clipped_table(np.asarray(self.matrix, dtype=float))
        p.setflags(write=False)
        object.__setattr__(self, "matrix", p)

    @property
    def priors(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    @property
    def outcome_probs(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

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
    return _joint_checks(finite, flat.min(axis=1), np.maximum(flat, 0.0).sum(axis=1))


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
    states = np.stack([s.matrix for s in e.states])
    raw = e.probs[:, None] * np.trace(v._stack @ states[:, None], axis1=2, axis2=3).real
    table = np.maximum(raw, 0.0)
    drift = np.abs(table.sum(axis=1) - e.probs).max(keepdims=True)
    _raise_first_failure(_table_checks(raw[None]) + [_drift_check(drift)])
    table.setflags(write=False)
    return JointDistribution._checked(table)


def _joint_distributions(pairs):
    """``joint_distribution`` of each (ensemble, measurement) pair, all of
    one dimension, with each table's row sums (its ``priors``) and column
    sums (its ``outcome_probs``), all to the last bit of the per-pair call.

    Element x of the stacked elements belongs to a pair; row i of the
    trace array reads that pair's i-th member by index, or a zero state
    with prior 0 past the pair's rows, so each row is one (M, d, d)
    product, and each pair's average state adds its i-th weighted member
    in ``_average_matrix``'s order.  Each table is cut from the trace array
    and its sums are numpy's, on that table alone.  The checks run stacked;
    the lowest-index failing pair raises what ``joint_distribution`` raises
    for it alone.  Returns (tables, row sums, column sums), three lists in
    pair order, and the (K, d, d) stack of average states."""
    for e, v in pairs:
        _require_same_dim("ensemble", e.dim, v)
    sizes = np.array([e.size for e, _ in pairs])
    counts = np.array([v.size for _, v in pairs])
    starts = np.cumsum(counts) - counts
    first = np.cumsum(sizes) - sizes
    elements = np.concatenate([v._stack for _, v in pairs])
    zero = np.zeros_like(elements[0])
    # every member's state and prior, then the zero state that index -1 reads
    states = np.stack([s.matrix for e, _ in pairs for s in e.states] + [zero])
    probs = np.concatenate([e.probs for e, _ in pairs] + [[0.0]])
    lane_sizes, lane_first = np.repeat(sizes, counts), np.repeat(first, counts)
    # raw[i, x] = p_i tr(E_x rho_i) with p_i rho_i the i-th member of
    # element x's pair, and a zero of either sign past that pair's rows,
    # which no table holds
    raw = np.empty((sizes.max(), len(elements)))
    # a pair past its members adds +0, which no sum begun at +0 can see
    averages = np.zeros((len(pairs),) + zero.shape, dtype=complex)
    for i in range(len(raw)):
        member = np.where(lane_sizes > i, lane_first + i, -1)
        raw[i] = probs[member] * np.trace(elements @ states[member], axis1=1, axis2=2).real
        member = np.where(sizes > i, first + i, -1)
        averages += probs[member][:, None, None] * states[member]
    finite = np.logical_and.reduceat(np.isfinite(raw).all(axis=0), starts)
    lowest = np.minimum.reduceat(raw.min(axis=0), starts)
    tables = [np.maximum(raw[:n, s:s + m], 0.0) for n, s, m in zip(sizes, starts, counts)]
    for t in tables:
        t.setflags(write=False)
    row_sums = [t.sum(axis=1) for t in tables]
    col_sums = [t.sum(axis=0) for t in tables]
    totals = np.array([t.sum() for t in tables])
    drift = np.maximum.reduceat(np.abs(np.concatenate(row_sums) - probs[:-1]), first)
    _raise_first_failure(_joint_checks(finite, lowest, totals) + [_drift_check(drift)])
    return [JointDistribution._checked(t) for t in tables], row_sums, col_sums, averages


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
        _entropy_of_spectrum(p.sum(axis=1))
        + _entropy_of_spectrum(p.sum(axis=0))
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
    to be nonnegative, without building the system-record state."""
    _require_same_dim("state", r.dim, v)
    return _post_measurement_spectra(r.matrix[None], [v])[0]


def _post_measurement_spectra(rhos: np.ndarray, povms) -> list[np.ndarray]:
    """``_post_measurement_spectrum`` of each checked state of a (K, d, d)
    stack under its measurement: one stacked density check for projective
    pairs, one stacked sqrt(rho) and one batched ``eigvalsh`` for the rest.

    Projective case: the spectrum of sum_j P_j rho P_j, which is d x d
    already; the union below would agree to rounding, but on commuting
    instances delta_s is itself rounding noise and would change in the
    printed digits.  General case: the record state is block diagonal with
    blocks A_j A_j^+, where A_j = sqrt(E_j) sqrt(rho); each block shares its
    spectrum with A_j^+ A_j = sqrt(rho) E_j sqrt(rho), so the d*m
    eigenvalues are the union of m d x d spectra.  The unions get the
    unit-trace and PSD checks that ``DensityMatrix`` would give the record
    states, in its order and stacked: the lowest-index failing general pair
    raises.
    """
    out = [None] * len(povms)
    projective = [i for i, v in enumerate(povms) if v.projective]
    general = [i for i, v in enumerate(povms) if not v.projective]
    if projective:
        dephased = np.stack([_dephased_matrix(rhos[i], povms[i]) for i in projective])
        for i, w in zip(projective, _density_eigenvalues(dephased)):
            out[i] = np.maximum(w, 0.0)
    if general:
        roots = _psd_function_stack(rhos[general], np.sqrt)
        blocks = [root @ povms[i]._stack @ root for i, root in zip(general, roots)]
        spectra = np.linalg.eigvalsh(np.concatenate(blocks))
        counts = [povms[i].size for i in general]
        unions = [np.sort(segment.reshape(-1)) for segment in _segments(spectra, counts)]
        traces = np.array([w.sum() for w in unions])
        _raise_first_failure(_density_checks(traces, np.array([w[0] for w in unions])))
        for i, w in zip(general, unions):
            out[i] = np.maximum(w, 0.0)
    return out


def _entropy_increase(sigma_entropy: float, rho_entropy: float) -> float:
    """S(sigma) - S(rho) from the two entropies; a hair below zero is
    clipped, anything below -BOUND_TOL raises."""
    ds = sigma_entropy - rho_entropy
    if ds < -BOUND_TOL:
        raise NumericalFailure(f"entropy increase came out {ds:.3e}")
    return max(0.0, ds)


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


@dataclass(frozen=True)
class _Analysis:
    """One (ensemble, measurement) pair's joint table and its outcome
    marginal, I, spectra of rho, of each member and of sigma, chi and
    delta_s, each computed once."""

    joint: JointDistribution
    outcome_probs: np.ndarray
    info: float
    rho_spectrum: np.ndarray
    member_spectra: tuple[np.ndarray, ...]
    chi: float
    sigma_spectrum: np.ndarray
    delta_s: float


def _analyse(e: Ensemble, v: Povm, rho: DensityMatrix | None = None) -> _Analysis:
    """The analysis ``evaluate_bounds``, ``run_cycle`` and ``block_scan``
    read, with the arithmetic and checks of ``mutual_information``,
    ``holevo_chi`` and ``delta_s``; ``_analyse_pairs`` gives each of many
    pairs these bits.  ``rho`` is ``average_state(e)``, built here unless
    the caller already has it."""
    joint = joint_distribution(e, v)
    rho = average_state(e) if rho is None else rho
    sigma = _post_measurement_spectrum(rho, v)
    info = mutual_information(joint)
    members = tuple(s.spectrum() for s in e.states)
    s_rho = _entropy_of_spectrum(rho.spectrum())
    chi = _chi(e.probs, s_rho, [_entropy_of_spectrum(w) for w in members])
    ds = _entropy_increase(_entropy_of_spectrum(sigma), s_rho)
    return _Analysis(
        joint, joint.outcome_probs, info, rho.spectrum(), members, chi, sigma, ds
    )


def _analyse_pairs(pairs) -> list[_Analysis]:
    """``_Analysis`` of each (ensemble, measurement) pair, all of one
    dimension: one ``_joint_distributions`` for the tables, their
    marginals and the average states, one stacked density check, one
    ``_post_measurement_spectra``, and one ``_entropies`` for every
    entropy.  Only the scalars are combined per pair, with the arithmetic
    and checks of ``mutual_information``, ``holevo_chi`` and ``delta_s``,
    so the values match theirs to the last bit."""
    ensembles = [e for e, _ in pairs]
    joints, row_sums, col_sums, rhos = _joint_distributions(pairs)
    rho_spectra = np.maximum(_density_eigenvalues(rhos), 0.0)
    sigmas = _post_measurement_spectra(rhos, [v for _, v in pairs])
    members = np.maximum(np.stack([s._eigenvalues for e in ensembles for s in e.states]), 0.0)
    sizes = [e.size for e in ensembles]
    h_a, h_b, h_ab, s_rho, s_sigma, *h_members = _segments(
        _entropies(
            row_sums
            + col_sums
            + [j.matrix.reshape(-1) for j in joints]
            + list(rho_spectra)
            + sigmas
            + list(members)
        ),
        [len(pairs)] * 5 + sizes,
    )
    infos = np.add(h_a, h_b) - h_ab
    _raise_first_failure([_information_check(infos)])
    infos = [max(0.0, info) for info in infos.tolist()]
    out = []
    for k, (e, member_spectra) in enumerate(zip(ensembles, _segments(members, sizes))):
        chi = _chi(e.probs, s_rho[k], h_members[k])
        ds = _entropy_increase(s_sigma[k], s_rho[k])
        spectra = tuple(member_spectra)
        out.append(
            _Analysis(
                joints[k], col_sums[k], infos[k], rho_spectra[k], spectra, chi, sigmas[k], ds
            )
        )
    return out


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
