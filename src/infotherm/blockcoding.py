"""Block coding: product ensembles, the pretty good measurement, and
how the per-letter information budget behaves as blocks grow.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, ValidationError
from .linops import BOUND_TOL, PSD_EPSILON, psd_function
from .measurement import Povm, _povms, joint_distribution, mutual_information
from .measurement import delta_s as measurement_delta_s
from .quantum import DensityMatrix, Ensemble, _density_matrices, average_state, holevo_chi

#: Caps: sequence states of dimension at most 32, at most 4096 sequences.
DIM_CAP = 32
SEQUENCE_CAP = 4096


def sequence_ensemble(e: Ensemble, m: int) -> Ensemble:
    """All length-``m`` sequences of ensemble members as one product ensemble.

    Priors multiply and states tensor, so the result has n^m members of
    dimension d^m, in lexicographic order of the sequences; ``DIM_CAP``
    (d^m <= 32) and ``SEQUENCE_CAP`` (n^m <= 4096) keep that from exploding.
    Each extra letter is one broadcast outer product over the whole stack,
    and the finished stack gets one stacked density check.
    """
    if m < 1:
        raise ValidationError(f"block length must be at least 1, got {m}")
    n, d = e.size, e.dim
    if d**m > DIM_CAP:
        raise BudgetExceeded(
            f"sequence dimension {d}^{m} = {d**m} exceeds the cap {DIM_CAP}"
        )
    if n**m > SEQUENCE_CAP:
        raise BudgetExceeded(
            f"sequence count {n}^{m} = {n**m} exceeds the cap {SEQUENCE_CAP}"
        )
    letters = np.stack([s.matrix for s in e.states])
    probs, stack = e.probs, letters
    for _ in range(m - 1):
        k, dim = stack.shape[:2]
        probs = (probs[:, None] * e.probs[None, :]).reshape(-1)
        stack = (
            stack[:, None, :, None, :, None] * letters[None, :, None, :, None, :]
        ).reshape(k * n, dim * d, dim * d)
    # Product priors can drift from summing to exactly 1; renormalize the
    # rounding away rather than letting it trip validation downstream.
    return Ensemble(probs / probs.sum(), _density_matrices(stack))


def pretty_good_measurement(e: Ensemble) -> Povm:
    """The square-root measurement of an ensemble.

    E_i = rho^(-1/2) (p_i rho_i) rho^(-1/2) with the inverse square root
    taken on the support of rho; when rho is rank deficient the projector
    onto its kernel is appended as a final element so the elements resolve
    the identity exactly.
    """
    return _pretty_good_measurement(e, average_state(e))


def _pretty_good_measurement(e: Ensemble, rho: DensityMatrix) -> Povm:
    """``pretty_good_measurement`` of ``e`` from its average state ``rho``,
    with every E_i from one stacked product."""
    inv_root = psd_function(rho.matrix, lambda x: 1.0 / np.sqrt(x), pseudo=True)
    weighted = e.probs[:, None, None] * np.stack([s.matrix for s in e.states])
    elements = inv_root @ weighted @ inv_root
    support_rank = int(np.sum(rho.spectrum() > PSD_EPSILON))
    if support_rank < rho.dim:
        kernel = np.eye(rho.dim, dtype=complex) - psd_function(
            rho.matrix, np.ones_like, pseudo=True
        )
        elements = np.concatenate([elements, kernel[None]])
    return _povms(elements, [len(elements)], [None])[0]


@dataclass(frozen=True)
class BlockReport:
    """Per-letter budget of one block length.

    ``chi`` is the single-letter value, so ``per_letter_info <= chi`` (up
    to tolerance) is exactly the single-letter ceiling applied to blocks.
    """

    m: int
    per_letter_info: float
    per_letter_delta_s: float
    chi: float
    sequence_count: int

    def __post_init__(self):
        if self.m < 1 or self.sequence_count < 1:
            raise ValidationError("block length and sequence count must be positive")
        if self.per_letter_info > self.chi + BOUND_TOL:
            raise ValidationError(
                f"per-letter information {self.per_letter_info:.12g} exceeds "
                f"the single-letter ceiling {self.chi:.12g}"
            )


def block_scan(e: Ensemble, m_max: int) -> list[BlockReport]:
    """Measure blocks of length 1..m_max with their square-root measurement.

    Each block length gets its sequence ensemble, the pretty good
    measurement of that ensemble, and a report of information and entropy
    increase per letter after measuring.  A block beyond ``DIM_CAP`` or
    ``SEQUENCE_CAP`` raises ``BudgetExceeded``.
    """
    if m_max < 1:
        raise ValidationError(f"m_max must be at least 1, got {m_max}")
    chi = holevo_chi(e)
    reports = []
    for m in range(1, m_max + 1):
        seq = sequence_ensemble(e, m)
        rho = average_state(seq)
        povm = _pretty_good_measurement(seq, rho)
        info = mutual_information(joint_distribution(seq, povm))
        ds = measurement_delta_s(rho, povm)
        reports.append(
            BlockReport(
                m=m,
                per_letter_info=info / m,
                per_letter_delta_s=ds / m,
                chi=chi,
                sequence_count=seq.size,
            )
        )
    return reports
