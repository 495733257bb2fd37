"""Measurements and what they do to information and to states.

Covers POVM validation, outcome statistics and mutual information, the
post-measurement (dephased) state, the entropy increase it carries, and the
explicit record/memory constructions: Naimark dilation of a general POVM
into a projective measurement on a larger space, and the measure-then-reset
pipeline for a memory that stores the outcome.
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
    as_complex_matrix,
    max_abs,
    tensor_product,
)
from .quantum import (
    DensityMatrix,
    Ensemble,
    _average_matrix,
    _chi_from_spectra,
    _density_eigenvalues,
    _density_matrices,
    _entropy_of_spectrum,
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
    segments = np.split(stack, np.cumsum(counts)[:-1])
    return [Povm._checked(segment, flag) for segment, flag in zip(segments, flags)]


def basis_measurement(unitary, blocks: Sequence[Sequence[int]] | None = None) -> Povm:
    """Projective measurement built from the columns of a unitary.

    With ``blocks`` the columns are grouped into coarse-grained projectors;
    by default each column becomes its own rank-1 projector.
    """
    return Povm(tuple(_basis_elements(unitary, blocks)), projective=True)


def _basis_elements(unitary, blocks) -> list[np.ndarray]:
    """The projectors of ``basis_measurement``, after its unitarity check."""
    u = as_complex_matrix(unitary)
    d = u.shape[0]
    if max_abs(u.conj().T @ u - np.eye(d)) > UNITARY_TOL:
        raise ValidationError("matrix is not unitary")
    if blocks is None:
        blocks = [[j] for j in range(d)]
    elements = []
    for block in blocks:
        cols = u[:, list(block)]
        elements.append(cols @ cols.conj().T)
    return elements


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome table p(i, j) = p_i * tr(E_j rho_i).

    Rows index preparations, columns index outcomes.  Entries a hair below
    zero (rounding) are clipped; anything below -PROB_CLIP is an error, and
    so is a non-finite entry.
    """

    matrix: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.matrix, dtype=float)
        if p.ndim != 2 or p.size == 0:
            raise ValidationError(f"expected a 2-d table, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise ValidationError("joint probabilities have non-finite entries")
        if np.any(p < -PROB_CLIP):
            raise ValidationError(f"joint probability {p.min():.3e} below -{PROB_CLIP:.0e}")
        p = np.maximum(p, 0.0)
        if abs(p.sum() - 1.0) > TRACE_TOL:
            raise ValidationError(f"joint probabilities sum to {p.sum():.12g}")
        p.setflags(write=False)
        object.__setattr__(self, "matrix", p)

    @property
    def priors(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    @property
    def outcome_probs(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


def joint_distribution(e: Ensemble, v: Povm) -> JointDistribution:
    """Outcome statistics of measuring each ensemble member."""
    if e.dim != v.dim:
        raise DimensionMismatch(f"ensemble dim {e.dim} vs measurement dim {v.dim}")
    traces = np.array(
        [np.trace(v._stack @ s.matrix, axis1=1, axis2=2).real for s in e.states]
    )
    jd = JointDistribution(e.probs[:, None] * traces)
    if max_abs(jd.priors - e.probs) > TRACE_TOL:
        raise NumericalFailure("joint distribution rows do not reproduce the priors")
    return jd


def outcome_distribution(r: DensityMatrix, v: Povm) -> np.ndarray:
    """Outcome probabilities tr(E_j rho) for a single state."""
    if r.dim != v.dim:
        raise DimensionMismatch(f"state dim {r.dim} vs measurement dim {v.dim}")
    q = np.trace(v._stack @ r.matrix, axis1=1, axis2=2).real
    q = np.clip(q, 0.0, None)
    if abs(q.sum() - 1.0) > TRACE_TOL:
        raise NumericalFailure(f"outcome probabilities sum to {q.sum():.12g}")
    return q


def mutual_information(j: JointDistribution) -> float:
    """I(A:B) = H(A) + H(B) - H(A,B) in bits, clipped to be nonnegative."""
    p = j.matrix
    info = (
        _entropy_of_spectrum(p.sum(axis=1))
        + _entropy_of_spectrum(p.sum(axis=0))
        - _entropy_of_spectrum(p.reshape(-1))
    )
    if info < -PROB_CLIP:
        raise NumericalFailure(f"mutual information came out {info:.3e}")
    return max(0.0, info)


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


def _dephased_matrix(r: DensityMatrix, v: Povm) -> np.ndarray:
    """sum_j P_j rho P_j, the elements' products summed in order."""
    return (v._stack @ r.matrix @ v._stack).sum(axis=0)


def post_measurement_state(r: DensityMatrix, v: Povm) -> DensityMatrix:
    """State after an unread (non-selective) measurement.

    Projective case: sum_j P_j rho P_j on the original space.  General
    case: the measurement is run through its record construction, giving
    sum_j (sqrt(E_j) rho sqrt(E_j)) (x) |j><j| on the system-record space
    of dimension dim * n_outcomes.
    """
    if r.dim != v.dim:
        raise DimensionMismatch(f"state dim {r.dim} vs measurement dim {v.dim}")
    if v.projective:
        return DensityMatrix(_dephased_matrix(r, v))
    roots = _psd_function_stack(v._stack, np.sqrt)
    return DensityMatrix(_with_record(roots @ r.matrix @ roots))


def _post_measurement_spectrum(r: DensityMatrix, v: Povm) -> np.ndarray:
    """Eigenvalues of ``post_measurement_state(r, v)``, ascending, clipped
    to be nonnegative, without building the system-record state."""
    return _post_measurement_spectra([r], [v])[0]


def _post_measurement_spectra(rhos, povms) -> list[np.ndarray]:
    """``_post_measurement_spectrum`` of each (state, measurement) pair, all
    of one dimension: one stacked density check for the projective pairs,
    and one stacked sqrt(rho) and one batched ``eigvalsh`` for the rest.

    Projective case: the spectrum of sum_j P_j rho P_j, which is d x d
    already; the union below would agree to rounding, but on commuting
    instances delta_s is itself rounding noise and would change in the
    printed digits.  General case: the record state is block diagonal with
    blocks A_j A_j^+, where A_j = sqrt(E_j) sqrt(rho); each block shares its
    spectrum with A_j^+ A_j = sqrt(rho) E_j sqrt(rho), so the d*m
    eigenvalues are the union of m d x d spectra.  The union gets the PSD
    and unit-trace checks that ``DensityMatrix`` would give the record state.
    """
    for r, v in zip(rhos, povms):
        if r.dim != v.dim:
            raise DimensionMismatch(f"state dim {r.dim} vs measurement dim {v.dim}")
    out = [None] * len(povms)
    projective = [i for i, v in enumerate(povms) if v.projective]
    general = [i for i, v in enumerate(povms) if not v.projective]
    if projective:
        dephased = np.stack([_dephased_matrix(rhos[i], povms[i]) for i in projective])
        for i, w in zip(projective, _density_eigenvalues(dephased)):
            out[i] = np.maximum(w, 0.0)
    if general:
        roots = _psd_function_stack(np.stack([rhos[i].matrix for i in general]), np.sqrt)
        blocks = [root @ povms[i]._stack @ root for i, root in zip(general, roots)]
        spectra = np.linalg.eigvalsh(np.concatenate(blocks))
        counts = [povms[i].size for i in general]
        for i, segment in zip(general, np.split(spectra, np.cumsum(counts)[:-1])):
            w = np.sort(segment.reshape(-1))
            if w[0] < -PSD_TOL:
                raise ValidationError(
                    f"density matrix has eigenvalue {w[0]:.3e} below -{PSD_TOL:.1e}"
                )
            total = w.sum()
            if abs(total - 1.0) > TRACE_TOL:
                raise ValidationError(f"density matrix has trace {total:.12g}, expected 1")
            out[i] = np.maximum(w, 0.0)
    return out


def _entropy_increase(sigma_spectrum: np.ndarray, rho_spectrum: np.ndarray) -> float:
    """S(sigma) - S(rho) from the two spectra; a hair below zero is clipped,
    anything below -BOUND_TOL raises."""
    ds = _entropy_of_spectrum(sigma_spectrum) - _entropy_of_spectrum(rho_spectrum)
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
    return _entropy_increase(_post_measurement_spectrum(r, v), r.spectrum())


@dataclass(frozen=True)
class _Analysis:
    """One (ensemble, measurement) pair's joint table, I, spectra of rho, of
    each member and of sigma, chi and delta_s, each computed once."""

    joint: JointDistribution
    info: float
    rho_spectrum: np.ndarray
    member_spectra: tuple[np.ndarray, ...]
    chi: float
    sigma_spectrum: np.ndarray
    delta_s: float


def _analyse(e: Ensemble, v: Povm) -> _Analysis:
    """The analysis ``evaluate_bounds`` and ``run_cycle`` both read; the
    one-pair case of ``_analyse_pairs``."""
    return _analyse_pairs([(e, v)])[0]


def _analyse_pairs(pairs) -> list[_Analysis]:
    """``_Analysis`` of each (ensemble, measurement) pair, all of one
    dimension.  The joint tables and every scalar stay per pair; the average
    states get one stacked density check and the post-measurement spectra
    one ``_post_measurement_spectra``.  The formulas are those of
    ``mutual_information``, ``holevo_chi`` and ``delta_s``, so the values
    match theirs to the last bit."""
    joints = [joint_distribution(e, v) for e, v in pairs]
    infos = [mutual_information(joint) for joint in joints]
    rhos = _density_matrices(np.stack([_average_matrix(e) for e, _ in pairs]))
    sigmas = _post_measurement_spectra(rhos, [v for _, v in pairs])
    out = []
    for (e, _), joint, info, rho, sigma_spectrum in zip(pairs, joints, infos, rhos, sigmas):
        rho_spectrum = rho.spectrum()
        members = tuple(s.spectrum() for s in e.states)
        chi = _chi_from_spectra(e.probs, rho_spectrum, members)
        ds = _entropy_increase(sigma_spectrum, rho_spectrum)
        out.append(_Analysis(joint, info, rho_spectrum, members, chi, sigma_spectrum, ds))
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
    if r.dim != v.dim:
        raise DimensionMismatch(f"state dim {r.dim} vs measurement dim {v.dim}")
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
