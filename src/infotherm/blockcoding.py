"""Block coding: product ensembles, the pretty good measurement, and
how the per-letter information budget behaves as blocks grow.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .errors import BudgetExceeded, ValidationError
from .linops import BOUND_TOL, PSD_EPSILON, _Frozen, _require_int
from .measurement import Povm, _analyse_groups, _group, _povms
from .quantum import DensityMatrix, Ensemble, _density_matrices, average_state

#: Caps: sequence states of dimension at most 32, at most 4096 sequences.
DIM_CAP = 32
SEQUENCE_CAP = 4096


def _check_caps(n: int, d: int, m: int) -> None:
    """Raise ``BudgetExceeded`` if n states of dimension d pass a cap at
    length m, or if 2^m > ``SEQUENCE_CAP``, which bounds a one-state,
    one-dimensional ensemble that neither cap can.  No check raises a base
    past the power cap.bit_length(), so any m is checked at once."""
    if _exceeds(d, m, DIM_CAP):
        raise BudgetExceeded(f"sequence dimension {_power(d, m)} exceeds the cap {DIM_CAP}")
    if _exceeds(n, m, SEQUENCE_CAP):
        raise BudgetExceeded(f"sequence count {_power(n, m)} exceeds the cap {SEQUENCE_CAP}")
    if m >= SEQUENCE_CAP.bit_length():
        raise BudgetExceeded(f"block length {m}: 2^{m} exceeds the cap {SEQUENCE_CAP}")


def _exceeds(base: int, m: int, cap: int) -> bool:
    """Whether base^m > cap; a base above 1 passes cap by the power
    cap.bit_length(), so no larger power is built."""
    return base > 1 and base ** min(m, cap.bit_length()) > cap


def _power(base: int, m: int) -> str:
    """base^m with its value, or without it where the value has more
    digits than an int may print."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if m * math.log10(base) < limit:
        return f"{base}^{m} = {base**m}"
    return f"{base}^{m}"


def sequence_ensemble(e: Ensemble, m: int) -> Ensemble:
    """All length-``m`` sequences of ensemble members as one product ensemble.

    Priors multiply and states tensor, so the result has n^m members of
    dimension d^m, in lexicographic order of the sequences; ``DIM_CAP``
    (d^m <= 32) and ``SEQUENCE_CAP`` (n^m <= 4096, and 2^m <= 4096 for a
    one-state, one-dimensional ensemble) keep that from exploding.
    Each extra letter is one broadcast outer product over the whole stack,
    and the finished stack gets one stacked density check.
    """
    _require_int("m", m)
    if m < 1:
        raise ValidationError(f"block length must be at least 1, got {m}")
    _check_caps(e.size, e.dim, m)
    n, d = e.size, e.dim
    letters = e._matrices
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
    taken on the support of rho, every E_i from one stacked product; when
    rho is rank deficient the projector onto its kernel is appended as a
    final element so the elements resolve the identity exactly.
    """
    return _pretty_good_measurement(e, average_state(e))


def _pretty_good_measurement(e: Ensemble, rho: DensityMatrix) -> Povm:
    """``pretty_good_measurement`` of ``e`` with ``rho = average_state(e)``.
    rho^(-1/2) and the kernel projector come from rho's one kept
    eigendecomposition, which the analysis's sqrt(rho) reads again."""
    inv_root = rho._function(lambda x: 1.0 / np.sqrt(x), pseudo=True)
    weighted = e.probs[:, None, None] * e._matrices
    elements = inv_root @ weighted @ inv_root
    support_rank = int(np.sum(rho.spectrum() > PSD_EPSILON))
    if support_rank < rho.dim:
        kernel = np.eye(rho.dim, dtype=complex) - rho._function(np.ones_like, pseudo=True)
        elements = np.concatenate([elements, kernel[None]])
    return _povms(elements, [len(elements)], [None])[0]


class BlockReport(_Frozen):
    """Per-letter budget of one block length.

    ``chi`` is the single-letter value, so ``per_letter_info <= chi`` (up
    to tolerance) is exactly the single-letter ceiling applied to blocks.
    """

    _fields = ("m", "per_letter_info", "per_letter_delta_s", "chi", "sequence_count")

    def __init__(
        self,
        m: int,
        per_letter_info: float,
        per_letter_delta_s: float,
        chi: float,
        sequence_count: int,
    ):
        if m < 1 or sequence_count < 1:
            raise ValidationError("block length and sequence count must be positive")
        if per_letter_info > chi + BOUND_TOL:
            raise ValidationError(
                f"per-letter information {per_letter_info:.12g} exceeds "
                f"the single-letter ceiling {chi:.12g}"
            )
        self._assign(
            m=m,
            per_letter_info=per_letter_info,
            per_letter_delta_s=per_letter_delta_s,
            chi=chi,
            sequence_count=sequence_count,
        )


def block_scan(e: Ensemble, m_max: int) -> list[BlockReport]:
    """Per-letter information and entropy increase of blocks of length
    1..m_max, each measured with its square-root measurement.

    A block's n^m sequences carry product priors, so its average state is
    rho^(x)m, with inverse square root (rho^(-1/2))^(x)m on the support: its
    square-root measurement is the m-fold product of the single letter's,
    and the products with a kernel factor make up its kernel element, which
    has probability zero on every sequence state.  Joint table and record
    spectrum factor too, so I_m = m I_1 and delta_s_m = m delta_s_1, and
    every report carries the values of one single-letter analysis.  A block
    gains only through a code, a subset of the sequences (Hausladen, Jozsa,
    Schumacher, Westmoreland & Wootters, PRA 54, 1869 (1996)), not searched
    here.  The first length that fails ``_check_caps`` raises
    ``BudgetExceeded`` before any analysis.  The single letter's rho is
    built and checked once, and its one kept eigendecomposition gives the
    measurement's rho^(-1/2) and kernel projector and the analysis's
    sqrt(rho).
    """
    _require_int("m_max", m_max)
    if m_max < 1:
        raise ValidationError(f"m_max must be at least 1, got {m_max}")
    for m in range(1, m_max + 1):
        _check_caps(e.size, e.dim, m)
    rho = average_state(e)
    a = _analyse_groups([_group([(e, _pretty_good_measurement(e, rho))])], rho)
    info, ds, chi = float(a.info[0]), float(a.delta_s[0]), float(a.chi[0])
    return [BlockReport(m, info, ds, chi, e.size**m) for m in range(1, m_max + 1)]
