"""Work ledgers for the measurement engine cycle.

Every stage is modeled as isothermal moves of an ideal gas of "state
molecules" in a vessel of total volume 1, with work measured in bits
(1 bit = kT ln 2).  A full cycle runs three stages:

1. extraction   -- measure and cash in the correlations; nets +I(A:B)
2. sigma -> rho -- undo the measurement dephasing; nets -(S(sigma) - S(rho))
3. rho -> start -- rebuild the original ensemble; nets -chi

Each entry's work comes from ``work_isothermal`` volume ratios, so stage
totals provide an arithmetic path to I, delta_s and chi that is
independent of the entropy formulas in the other modules; the cycle
invariant net = I - delta_s - chi <= 0 is checked at the end.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, log2

import numpy as np

from .errors import (
    NonPositiveVolume,
    NumericalFailure,
    SecondLawViolation,
    ValidationError,
)
from .linops import CYCLE_TOL, PROB_CLIP, WEIGHT_FLOOR
from .measurement import JointDistribution, Povm, _analyse, _Analysis, joint_distribution
from .quantum import DensityMatrix, Ensemble, average_state

STAGE_EXTRACTION = "extraction"
STAGE_SIGMA_COMPRESSION = "sigma_compression"
STAGE_ISENTROPIC = "isentropic_transform"
STAGE_RHO_EXPANSION = "rho_expansion"
STAGE_RHO_COMPRESSION = "rho_compression"
STAGE_ENSEMBLE_RECOMPRESSION = "ensemble_recompression"

STAGES = (
    STAGE_EXTRACTION,
    STAGE_SIGMA_COMPRESSION,
    STAGE_ISENTROPIC,
    STAGE_RHO_EXPANSION,
    STAGE_RHO_COMPRESSION,
    STAGE_ENSEMBLE_RECOMPRESSION,
)


def work_isothermal(fraction: float, v_initial: float, v_final: float) -> float:
    """Work, in bits, extracted by ``fraction`` of the gas expanding
    isothermally from ``v_initial`` to ``v_final`` (negative for compression)."""
    if not (0.0 < v_initial < inf and 0.0 < v_final < inf):
        raise NonPositiveVolume(
            f"volumes must be finite and positive, got {v_initial!r} -> {v_final!r}"
        )
    if not 0.0 <= fraction <= 1.0 + PROB_CLIP:
        raise ValidationError(f"molecule fraction {fraction!r} outside [0, 1]")
    if fraction == 0.0:
        return 0.0
    return fraction * log2(v_final / v_initial)


@dataclass(frozen=True)
class LedgerEntry:
    """One isothermal move: which stage it belongs to, what moved, and the
    work in bits (positive = extracted)."""

    stage: str
    description: str
    work_bits: float

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValidationError(f"unknown stage label {self.stage!r}")
        if self.stage == STAGE_ISENTROPIC and self.work_bits != 0.0:
            raise ValidationError("isentropic transforms exchange no work")


@dataclass(frozen=True)
class CycleLedger:
    """Every entry of one full cycle plus the quantities it must reconcile with."""

    entries: tuple[LedgerEntry, ...]
    net_bits: float
    i_ab: float
    chi: float
    delta_s: float


def stage_total(entries, stage: str | None = None) -> float:
    """Sum of work over entries, optionally restricted to one stage label."""
    return float(
        sum(en.work_bits for en in entries if stage is None or en.stage == stage)
    )


def _entries(rows) -> list[LedgerEntry]:
    """The ledger entries of booked ``(stage, work, template, args)`` rows;
    each description is ``template.format(*args)``."""
    return [
        LedgerEntry(stage, template.format(*args), work)
        for stage, work, template, args in rows
    ]


def extraction_stage(e: Ensemble, v: Povm) -> list[LedgerEntry]:
    """Measure, then cash the correlations in; nets I(A:B).

    Realized as the difference of two membrane processes: expanding every
    preparation's gas from its p_i slot to the full vessel pays out H(A);
    re-sorting the gas inside each outcome compartment by preparation costs
    H(A|B) back.  Both run on ``work_isothermal`` volume ratios only.
    """
    return _entries(_extraction_rows(e.probs, joint_distribution(e, v)))


def _extraction_rows(probs: np.ndarray, jd: JointDistribution) -> list[tuple]:
    """The rows of ``extraction_stage``, from the priors and the joint table."""
    rows = []
    for i, p in enumerate(probs):
        if p <= WEIGHT_FLOOR:
            continue
        rows.append(
            (STAGE_EXTRACTION, work_isothermal(p, p, 1.0),
             "preparation {}: expand from volume {:.6g} to 1", (i, p))
        )
    outcome_probs = jd.outcome_probs
    for j, q in enumerate(outcome_probs):
        if q <= WEIGHT_FLOOR:
            continue
        for i in range(len(probs)):
            cond = jd.matrix[i, j] / q
            if cond <= WEIGHT_FLOOR:
                continue
            rows.append(
                (STAGE_EXTRACTION, work_isothermal(q * cond, q, cond * q),
                 "outcome {}: sort preparation {} into its sub-volume", (j, i))
            )
    return rows


def sigma_to_rho_stage(sigma: DensityMatrix, rho: DensityMatrix) -> list[LedgerEntry]:
    """Turn the dephased state back into rho; nets -(S(sigma) - S(rho)).

    Attaching the empty twin vessel and separating the eigencomponents is
    free; compressing component j from the full vessel into its c_j slot
    costs S(sigma); an isentropic transform lines the components up with
    rho's eigenbasis for free; expanding rho's eigencomponents back to the
    full vessel pays out S(rho).
    """
    if sigma.dim != rho.dim:
        raise ValidationError(
            f"states live on different dimensions ({sigma.dim} vs {rho.dim})"
        )
    return _entries(_sigma_to_rho_rows(sigma.spectrum(), rho.spectrum()))


def _sigma_to_rho_rows(sigma_spectrum: np.ndarray, rho_spectrum: np.ndarray) -> list[tuple]:
    """The rows of ``sigma_to_rho_stage``, from the two ascending spectra."""
    rows = [
        (STAGE_SIGMA_COMPRESSION, 0.0,
         "attach empty vessel and separate eigencomponents (no work)", ())
    ]
    for j, c in enumerate(sigma_spectrum):
        if c <= WEIGHT_FLOOR:
            continue
        rows.append(
            (STAGE_SIGMA_COMPRESSION, work_isothermal(c, 1.0, c),
             "compress component {} from volume 1 to {:.6g}", (j, c))
        )
    rows.append((STAGE_ISENTROPIC, 0.0, "rotate eigencomponents into the target basis", ()))
    for k, lam in enumerate(rho_spectrum):
        if lam <= WEIGHT_FLOOR:
            continue
        rows.append(
            (STAGE_RHO_EXPANSION, work_isothermal(lam, lam, 1.0),
             "expand component {} from volume {:.6g} to 1", (k, lam))
        )
    return rows


def rho_to_initial_stage(e: Ensemble) -> list[LedgerEntry]:
    """Rebuild the labeled ensemble from its average state; nets -chi.

    Runs the reversible preparation path backwards: compress rho's
    eigencomponents into their lambda_k slots (costs S(rho)), isentropically
    rotate each slot's gas into the right member eigenbasis (free), then let
    every member's eigencomponents expand inside its p_i compartment
    (pays out sum_i p_i S(rho_i))."""
    return _entries(
        _rho_to_initial_rows(
            e.probs, average_state(e).spectrum(), [s.spectrum() for s in e.states]
        )
    )


def _rho_to_initial_rows(probs, rho_spectrum, member_spectra) -> list[tuple]:
    """The rows of ``rho_to_initial_stage``, from the priors and spectra."""
    rows = []
    for k, lam in enumerate(rho_spectrum):
        if lam <= WEIGHT_FLOOR:
            continue
        rows.append(
            (STAGE_RHO_COMPRESSION, work_isothermal(lam, 1.0, lam),
             "compress component {} from volume 1 to {:.6g}", (k, lam))
        )
    rows.append((STAGE_ISENTROPIC, 0.0, "rotate components into the member eigenbases", ()))
    for i, (p, spectrum) in enumerate(zip(probs, member_spectra)):
        if p <= WEIGHT_FLOOR:
            continue
        for k, mu in enumerate(spectrum):
            if mu <= WEIGHT_FLOOR:
                continue
            rows.append(
                (STAGE_ENSEMBLE_RECOMPRESSION, work_isothermal(p * mu, mu * p, p),
                 "preparation {}: expand component {} from volume {:.6g} to {:.6g}",
                 (i, k, mu * p, p))
            )
    return rows


def run_cycle(e: Ensemble, v: Povm) -> CycleLedger:
    """Run the full engine cycle and reconcile its books.

    Its inputs come from the analysis ``evaluate_bounds`` also reads; its
    net comes from its own volume-ratio arithmetic.  For a general
    (non-projective) measurement the dephased state lives on the
    system-record space, so the return leg starts from rho (x) |0><0|
    there -- same entropy, matching dimension.  Only spectra enter that
    leg: the dephased state's is the union of the spectra of
    sqrt(rho) E_j sqrt(rho), and rho (x) |0><0| has rho's spectrum plus
    d*(m-1) zeros, so neither d*m-dim state is built.  Raises
    ``SecondLawViolation`` if the net work comes out positive beyond
    tolerance, and ``NumericalFailure`` if it is not finite.
    """
    a = _analyse(e, v)
    rows, net = _book_cycle(e, v, a)
    return CycleLedger(
        entries=tuple(_entries(rows)), net_bits=net, i_ab=a.info, chi=a.chi, delta_s=a.delta_s
    )


def _book_cycle(e: Ensemble, v: Povm, a: _Analysis) -> tuple[list[tuple], float]:
    """The booked rows of ``run_cycle`` for the pair ``(e, v)``, from its
    analysis ``a``, and their net work, checked against the second law.

    A row is ``(stage, work, template, args)``: the work is booked here,
    and the description is formatted only when ``run_cycle`` turns the
    rows into ledger entries, so a caller that needs only the net (the
    suite) builds no entry."""
    rho_spectrum = a.rho_spectrum
    if not v.projective:
        rho_spectrum = np.concatenate([np.zeros(e.dim * (v.size - 1)), rho_spectrum])

    rows = _extraction_rows(e.probs, a.joint)
    rows += _sigma_to_rho_rows(a.sigma_spectrum, rho_spectrum)
    rows += _rho_to_initial_rows(e.probs, a.rho_spectrum, a.member_spectra)
    net = float(sum(work for _, work, _, _ in rows))
    if not isfinite(net):
        raise NumericalFailure(f"cycle net work came out {net!r}")
    if net > CYCLE_TOL:
        raise SecondLawViolation(
            f"cycle netted {net:.3e} bits of extracted work (> {CYCLE_TOL:.1e})"
        )
    return rows, net
