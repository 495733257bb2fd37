"""States, ensembles, and the entropy quantities defined on them.

All entropies are in bits (log base 2), matching the convention that one
bit of work at temperature T is kT ln 2.
"""
from __future__ import annotations

import functools
from typing import Callable

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
    _eigh_checks,
    _eigvalsh,
    _Frozen,
    _ordered_sums,
    _raise_first_failure,
    _require_finite,
    _require_int,
    _spectral_function,
    as_complex_matrix,
    hermitian_eig,
    max_abs,
)


def _nonnegative(values: np.ndarray) -> np.ndarray:
    """``values`` with each entry that is not above zero (or NaN) as +0."""
    return np.where(values > 0.0, values, 0.0)


def _entropies(flat: np.ndarray, lengths) -> np.ndarray:
    """-sum(w log2 w) in bits over the positive entries w of each run of
    ``lengths`` items of the float array ``flat``: one clip and one
    ``log2`` for all of them, then one batched ``(K, 1, c) @ (K, c, 1)``
    product for the K runs with c positive entries each, never padded to
    one length, as zeros would change the bits of the dot products."""
    lengths = np.asarray(lengths)
    flat = np.maximum(flat, 0.0)
    at = (flat > 0.0).nonzero()[0]
    w = flat[at]
    logs = np.log2(w)
    # each segment's first positive entry in ``w`` and its number of them
    ends = np.add.accumulate(lengths)
    starts = at.searchsorted(ends - lengths)
    counts = at.searchsorted(ends) - starts
    dots = np.zeros(len(lengths))
    for c in set(counts.tolist()) - {0}:
        ks = (counts == c).nonzero()[0]
        idx = starts[ks][:, None] + np.arange(c)
        dots[ks] = (w[idx][:, None, :] @ logs[idx][:, :, None])[:, 0, 0]
    return _nonnegative(-dots)


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
    w = _eigvalsh(stack)
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
            # a stack's traces are complex; the message prints the real part
            lambda k: ValidationError(
                f"density matrix has trace {traces[k].real:.12g}, expected 1"
            ),
        ),
        (
            lowest < -PSD_TOL,
            lambda k: ValidationError(
                f"density matrix has eigenvalue {lowest[k]:.3e} below -{PSD_TOL:.1e}"
            ),
        ),
    ]


class DensityMatrix(_Frozen):
    """A validated density matrix: Hermitian, unit trace, PSD.

    ``matrix`` is a read-only copy of the input, so the eigenvalues found
    by the PSD check stay those of ``matrix`` and ``spectrum`` reuses them.
    Its full eigendecomposition, with ``psd_function``'s checks of it, is
    taken the first time a function of the matrix is asked for and kept,
    so every function of one state (rho^-1/2, its kernel projector,
    sqrt(rho)) shares one eigensolve.
    """

    _fields = ("matrix",)

    def __init__(self, matrix):
        m = as_complex_matrix(matrix).copy()
        w = _density_eigenvalues(m[None])[0]
        m.setflags(write=False)
        self._assign(matrix=m, _eigenvalues=w, _decomposition=None)

    @classmethod
    def _checked(cls, matrix: np.ndarray, eigenvalues: np.ndarray) -> "DensityMatrix":
        """A read-only ``matrix`` that already passed the checks, stacked,
        with the eigenvalues they found; nothing is checked again."""
        r = object.__new__(cls)
        r._assign(matrix=matrix, _eigenvalues=eigenvalues, _decomposition=None)
        return r

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, ascending, clipped to be nonnegative."""
        return np.maximum(self._eigenvalues, 0.0)

    def _function(self, f: Callable, pseudo: bool = False) -> np.ndarray:
        """``psd_function(matrix, f, pseudo)`` to the last bit, with its
        checks and errors, from the kept eigendecomposition; only arrays
        are kept, and a decomposition that fails its checks is not."""
        if self._decomposition is None:
            w, v, checks = _eigh_checks(self.matrix[None])
            _raise_first_failure(checks)
            self._assign(_decomposition=(w, v))
        return _spectral_function(*self._decomposition, [], f, pseudo)[0]


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


class Ensemble(_Frozen):
    """A classical source of quantum states: priors p_i and states rho_i."""

    _fields = ("probs", "states")

    def __init__(self, probs, states):
        p = np.asarray(probs, dtype=float).reshape(-1)
        states = tuple(states)
        if p.size == 0 or len(states) != p.size:
            raise ValidationError(
                f"{p.size} priors for {len(states)} states"
            )
        p = _checked_priors(p)
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionMismatch(f"states have mixed dimensions {sorted(dims)}")
        self._assign(probs=p, states=states)

    @classmethod
    def _checked(cls, probs: np.ndarray, states: tuple) -> "Ensemble":
        """Priors that already passed ``_checked_priors`` and as many states
        of one dimension; nothing is checked again."""
        e = object.__new__(cls)
        e._assign(probs=probs, states=states)
        return e

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @functools.cached_property
    def _matrices(self) -> np.ndarray:
        """The members' matrices as one read-only (n, d, d) stack, kept."""
        stack = np.array([s.matrix for s in self.states])
        stack.setflags(write=False)
        return stack


def _checked_priors(p: np.ndarray) -> np.ndarray:
    """A nonempty float vector of priors, clipped to be nonnegative, once it
    has passed ``Ensemble``'s prior checks: ``_probability_checks`` of one
    vector."""
    clipped, checks = _probability_checks(p, [p.size])
    _raise_first_failure(checks)
    return clipped


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
    return DensityMatrix(_averages(e.probs, e._matrices, [e.size])[0])


def _averages(priors: np.ndarray, states: np.ndarray, sizes) -> np.ndarray:
    """sum_i p_i rho_i of each run of ``sizes`` members of the (S, d, d)
    stack ``states``, added in order from +0 (``_ordered_sums``)."""
    return _ordered_sums(priors[:, None, None] * states, sizes)


def von_neumann_entropy(r: DensityMatrix) -> float:
    """S(rho) = -Tr rho log2 rho, in bits."""
    return float(_entropies(r.spectrum(), [r.dim])[0])


def shannon_entropy(p) -> float:
    """H(p) = -sum p_i log2 p_i for a probability vector, in bits, once it
    has passed ``_probability_checks``."""
    p = np.asarray(p, dtype=float).reshape(-1)
    clipped, checks = _probability_checks(p, [p.size], "probability", "probabilities")
    _raise_first_failure(checks)
    return float(_entropies(clipped, [p.size])[0])


def holevo_chi(e: Ensemble) -> float:
    """chi = S(avg) - sum_i p_i S(rho_i), nonnegative by the concavity of
    S; a hair below zero (rounding, on a saturating ensemble) is clipped."""
    spectra = [average_state(e).spectrum()] + [s.spectrum() for s in e.states]
    h = _entropies(np.concatenate(spectra), [e.dim] * (1 + e.size))
    return float(_nonnegative(_chis(h[:1], e.probs, h[1:], [e.size]))[0])


def _chis(s_rho: np.ndarray, priors: np.ndarray, member_entropies: np.ndarray, sizes):
    """chi of each of K ensembles of ``sizes`` members, before its clip,
    from the entropies of their average states and of their members: the
    weighted member entropies are added in order from +0."""
    return s_rho - _ordered_sums(priors * member_entropies, sizes)


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
    probe = _averages(weights, e._matrices, [e.size])[0]
    basis = hermitian_eig(probe).eigenvectors
    for s in e.states:
        off = basis.conj().T @ s.matrix @ basis
        if max_abs(off - np.diag(np.diag(off))) > JOINT_BASIS_TOL:
            raise ValidationError(
                "failed to find a joint eigenbasis (degenerate probe mixture)"
            )
    return basis
