"""States, ensembles, and the entropy quantities defined on them.

All entropies are in bits (log base 2), matching the convention that one
bit of work at temperature T is kT ln 2.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .linops import (
    COMMUTATOR_TOL,
    HERMITICITY_TOL,
    JOINT_BASIS_TOL,
    PROB_CLIP,
    PSD_TOL,
    TRACE_TOL,
    _asymmetry,
    _ordered_sums,
    _raise_first_failure,
    _require_finite,
    _require_int,
    _segments,
    as_complex_matrix,
    hermitian_eig,
    max_abs,
)


def _entropy_of_spectrum(values: np.ndarray) -> float:
    """-sum(v log2 v) over the nonzero entries, tiny negatives clipped."""
    w = np.maximum(np.asarray(values, dtype=float), 0.0)
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    return float(max(0.0, -np.dot(w, np.log2(w))))


def _entropies(flat: np.ndarray, lengths) -> np.ndarray:
    """``_entropy_of_spectrum`` of each consecutive segment of the float
    array ``flat``, of ``lengths`` items each, to the last bit: one clip and
    one ``log2`` for all of them, then one batched ``(K, 1, c) @ (K, c, 1)``
    product for the K segments with c positive entries each.  Segments are
    never padded to a common length, because the zeros would change the
    bits of the dot products."""
    lengths = np.asarray(lengths)
    flat = np.maximum(flat, 0.0)
    positive = flat > 0.0
    w = flat[positive]
    logs = np.log2(w)
    # the number of positive entries before each segment, and after the last
    seen = np.concatenate(([0], np.cumsum(positive)))[np.concatenate(([0], np.cumsum(lengths)))]
    starts, counts = seen[:-1], seen[1:] - seen[:-1]
    dots = np.zeros(len(lengths))
    for c in set(counts.tolist()) - {0}:
        ks = np.flatnonzero(counts == c)
        idx = starts[ks][:, None] + np.arange(c)
        dots[ks] = (w[idx][:, None, :] @ logs[idx][:, :, None])[:, 0, 0]
    return np.where(-dots > 0.0, -dots, 0.0)


def _density_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of each matrix of a finite complex (B, d, d)
    stack, from one batched ``eigvalsh``, once each matrix has passed the
    density-matrix checks of ``_density_spectra``.  The lowest-index failing
    item raises the error ``DensityMatrix`` raises for it alone."""
    w, checks = _density_spectra(stack)
    _raise_first_failure(checks)
    return w


def _density_spectra(stack: np.ndarray):
    """The eigenvalues (ascending) of each matrix of a finite complex
    (B, d, d) stack, from one batched ``eigvalsh``, and its density-matrix
    checks for ``_raise_first_failure``: Hermitian, then ``_density_checks``."""
    asym = _asymmetry(stack)
    w = np.linalg.eigvalsh(stack)
    hermitian = (
        asym > HERMITICITY_TOL,
        lambda k: ValidationError(f"density matrix deviates from Hermitian by {asym[k]:.3e}"),
    )
    return w, [hermitian] + _density_checks(np.trace(stack, axis1=1, axis2=2), w[:, 0])


def _density_checks(traces: np.ndarray, lowest: np.ndarray):
    """The unit-trace and PSD checks of B density matrices, in
    ``DensityMatrix``'s order, for ``_raise_first_failure``, from each
    one's trace and lowest eigenvalue."""
    return [
        (
            np.abs(traces - 1.0) > TRACE_TOL,
            lambda k: ValidationError(f"density matrix has trace {traces[k]:.12g}, expected 1"),
        ),
        (
            lowest < -PSD_TOL,
            lambda k: ValidationError(
                f"density matrix has eigenvalue {lowest[k]:.3e} below -{PSD_TOL:.1e}"
            ),
        ),
    ]


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix: Hermitian, unit trace, PSD.

    ``matrix`` is a read-only copy of the input, so the eigenvalues found
    by the PSD check stay those of ``matrix`` and ``spectrum`` reuses them.
    """

    matrix: np.ndarray
    _eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = as_complex_matrix(self.matrix).copy()
        w = _density_eigenvalues(m[None])[0]
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_eigenvalues", w)

    @classmethod
    def _checked(cls, matrix: np.ndarray, eigenvalues: np.ndarray) -> "DensityMatrix":
        """A read-only ``matrix`` that already passed the checks, stacked,
        with the eigenvalues they found; nothing is checked again."""
        r = object.__new__(cls)
        object.__setattr__(r, "matrix", matrix)
        object.__setattr__(r, "_eigenvalues", eigenvalues)
        return r

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, ascending, clipped to be nonnegative."""
        return np.maximum(self._eigenvalues, 0.0)


def _density_matrices(stack: np.ndarray) -> tuple[DensityMatrix, ...]:
    """Every matrix of a finite complex (B, d, d) stack as a ``DensityMatrix``,
    checked with one ``_density_eigenvalues``.  The stack becomes read-only
    and the states are views of it, so the caller hands it over."""
    w = _density_eigenvalues(stack)
    stack.setflags(write=False)
    return tuple(DensityMatrix._checked(m, wk) for m, wk in zip(stack, w))


def pure_state(amplitudes) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| from a (not necessarily normalized) ket."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    _require_finite(psi)
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ValidationError("zero vector cannot be normalized to a state")
    psi = psi / norm
    return DensityMatrix(np.outer(psi, psi.conj()))


def maximally_mixed(dim: int) -> DensityMatrix:
    _require_int("dim", dim)
    if dim < 1:
        raise ValidationError(f"dim must be at least 1, got {dim}")
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class Ensemble:
    """A classical source of quantum states: priors p_i and states rho_i."""

    probs: np.ndarray
    states: tuple[DensityMatrix, ...] = field()

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        states = tuple(self.states)
        if p.size == 0 or len(states) != p.size:
            raise ValidationError(
                f"{p.size} priors for {len(states)} states"
            )
        p = _checked_priors([p])[0]
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionMismatch(f"states have mixed dimensions {sorted(dims)}")
        self._set(p, states)

    def _set(self, probs: np.ndarray, states: tuple) -> None:
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)

    @classmethod
    def _checked(cls, probs: np.ndarray, states: tuple) -> "Ensemble":
        """Priors that already passed ``_checked_priors`` and as many states
        of one dimension; nothing is checked again."""
        e = object.__new__(cls)
        e._set(probs, states)
        return e

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


def _checked_priors(priors) -> list[np.ndarray]:
    """Each nonempty float vector of ``priors``, clipped to be nonnegative,
    once all have passed the prior checks of ``Ensemble`` stacked, by
    ``_probability_checks``; the lowest-index failing vector raises the
    error ``Ensemble`` raises for it alone."""
    counts = [p.size for p in priors]
    clipped, checks = _probability_checks(np.concatenate(priors), counts)
    _raise_first_failure(checks)
    return _segments(clipped, counts)


def _probability_checks(flat: np.ndarray, lengths, noun: str = "prior", plural: str = "priors"):
    """Each consecutive segment of the float array ``flat``, of ``lengths``
    items each, clipped to be nonnegative, and the checks of each segment
    as a probability vector, for ``_raise_first_failure``: finite, none
    below -PROB_CLIP, the clipped entries added in order from +0 within
    TRACE_TOL of 1.
    ``noun`` and ``plural`` name an entry and the vector in the messages."""
    lengths = np.asarray(lengths)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    clipped = np.clip(flat, 0.0, None)
    totals = _ordered_sums(clipped, lengths)

    def flagged(entries):
        bad = np.zeros(len(lengths), dtype=bool)
        bad[owner[entries]] = True
        return bad

    return clipped, [
        (
            flagged(~np.isfinite(flat)),
            lambda k: ValidationError(f"{plural} have non-finite entries"),
        ),
        (
            flagged(flat < -PROB_CLIP),
            lambda k: ValidationError(f"negative {noun} {flat[owner == k].min():.3e}"),
        ),
        (
            np.abs(totals - 1.0) > TRACE_TOL,
            lambda k: ValidationError(f"{plural} sum to {totals[k]:.12g}, expected 1"),
        ),
    ]


def average_state(e: Ensemble) -> DensityMatrix:
    """The source average sum_i p_i rho_i."""
    return DensityMatrix(_average_matrix(e))


def _average_matrix(e: Ensemble) -> np.ndarray:
    acc = np.zeros((e.dim, e.dim), dtype=complex)
    for p, s in zip(e.probs, e.states):
        acc += p * s.matrix
    return acc


def von_neumann_entropy(r: DensityMatrix) -> float:
    """S(rho) = -Tr rho log2 rho, in bits."""
    return _entropy_of_spectrum(r.spectrum())


def shannon_entropy(p) -> float:
    """H(p) = -sum p_i log2 p_i for a probability vector, in bits, once it
    has passed ``_probability_checks``."""
    p = np.asarray(p, dtype=float).reshape(-1)
    clipped, checks = _probability_checks(p, [p.size], "probability", "probabilities")
    _raise_first_failure(checks)
    return _entropy_of_spectrum(clipped)


def holevo_chi(e: Ensemble) -> float:
    """chi = S(avg) - sum_i p_i S(rho_i), clipped to be nonnegative.

    Concavity of S makes the true value nonnegative; floating error on a
    saturating ensemble can land a hair below zero, which we clip.
    """
    return _chi(
        e.probs,
        von_neumann_entropy(average_state(e)),
        [von_neumann_entropy(s) for s in e.states],
    )


def _chi(probs, rho_entropy: float, member_entropies) -> float:
    """``holevo_chi`` from the entropies of the average state and the members."""
    cond = sum(p * h for p, h in zip(probs, member_entropies) if p > 0.0)
    return float(max(0.0, rho_entropy - cond))


def _chis(priors: np.ndarray, sizes, rho_entropies: np.ndarray, member_entropies: np.ndarray):
    """``_chi`` of each of K ensembles, to the last bit, from the flat
    priors and member entropies of all of them (``sizes`` members each) and
    the (K,) entropies of their average states: the weighted entropies of
    each ensemble added in order from +0, where the +0 term of a zero prior
    adds nothing, as skipping it does."""
    chi = rho_entropies - _ordered_sums(priors * member_entropies, sizes)
    return np.where(chi > 0.0, chi, 0.0)


def ensemble_commutes(e: Ensemble) -> bool:
    """True when every pair of member states commutes within COMMUTATOR_TOL."""
    mats = [s.matrix for s in e.states]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if max_abs(mats[i] @ mats[j] - mats[j] @ mats[i]) > COMMUTATOR_TOL:
                return False
    return True


def shared_eigenbasis(e: Ensemble) -> np.ndarray:
    """A unitary whose columns diagonalize every state of a commuting ensemble.

    Diagonalizes a generic positive mixture of the members (weights chosen
    deterministically and pairwise distinct), which breaks any degeneracy
    that a plain average would leave; the result's columns then jointly
    diagonalize each member.  Raises ``ValidationError`` if the ensemble
    does not commute.
    """
    if not ensemble_commutes(e):
        raise ValidationError("ensemble states do not commute")
    weights = np.pi ** np.arange(1, e.size + 1)
    weights /= weights.sum()
    probe = sum(w * s.matrix for w, s in zip(weights, e.states))
    basis = hermitian_eig(probe).eigenvectors
    for s in e.states:
        off = basis.conj().T @ s.matrix @ basis
        if max_abs(off - np.diag(np.diag(off))) > JOINT_BASIS_TOL:
            raise ValidationError(
                "failed to find a joint eigenbasis (degenerate probe mixture)"
            )
    return basis
