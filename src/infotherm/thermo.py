"""Work ledgers for the measurement engine cycle.

Every stage is modeled as isothermal moves of an ideal gas of "state
molecules" in a vessel of total volume 1, with work measured in bits
(1 bit = kT ln 2).  A full cycle runs three stages:

1. extraction   -- measure and cash in the correlations; nets +I(A:B)
2. sigma -> rho -- undo the measurement dephasing; nets -(S(sigma) - S(rho))
3. rho -> start -- rebuild the original ensemble; nets -chi

Each entry's work is a ``work_isothermal`` volume-ratio term, so stage
totals provide an arithmetic path to I, delta_s and chi that is
independent of the entropy formulas in the other modules; the cycle
invariant net = I - delta_s - chi <= 0 is checked at the end.

Booking is stacked.  The (fraction, v_initial, v_final) terms of many
pairs' cycles are laid out in zero-padded (pairs, terms) arrays, one row
a pair in the order of its ``_Analysis``, each in ledger order, and one
pass checks them, takes each work with ``math.log2`` of its volume ratio
and sums each row left to right, so every work and net has the bits of
booking the rows one at a time.  The suite books a chunk of trials in
one pass; ``run_cycle`` and the stage functions are its one-pair case and
``work_isothermal`` its one-row case.  Descriptions are formatted only
when ``LedgerEntry`` objects are built, so the suite formats none.
"""
from __future__ import annotations

from math import inf, log2
from typing import NamedTuple

import numpy as np

from .errors import (
    NonPositiveVolume,
    NumericalFailure,
    SecondLawViolation,
    ValidationError,
)
from .linops import CYCLE_TOL, PROB_CLIP, WEIGHT_FLOOR, _Frozen, _raise_first_failure
from .measurement import Povm, _analyse_groups, _Analysis, _group, joint_distribution
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
    isothermally from ``v_initial`` to ``v_final`` (negative for compression);
    the one-row case of the stacked booking."""
    terms = (np.array([[x]], dtype=float) for x in (fraction, v_initial, v_final))
    works, _ = _book(*terms, np.ones((1, 1), dtype=bool))
    return float(works[0, 0])


def _book(fractions, v_initial, v_final, live) -> tuple[np.ndarray, np.ndarray]:
    """The work of every live term of (K, L) term arrays, 0 elsewhere, and
    each row's net, summed left to right.

    A term must have finite positive volumes and a fraction in [0, 1]; a
    term with fraction 0 books 0.  Each work is ``fraction *
    math.log2(v_final / v_initial)``, with the ratio taken in numpy (the
    same IEEE quotient), or ``fraction * (log2(v_final) - log2(v_initial))``
    where the ratio leaves the float range.  The lowest-index row with a
    bad term, in its first bad term, or with a non-finite net raises what
    booking its terms one at a time would raise."""
    bad_volume = live & ~(
        (0.0 < v_initial) & (v_initial < inf) & (0.0 < v_final) & (v_final < inf)
    )
    bad_fraction = live & ~((0.0 <= fractions) & (fractions <= 1.0 + PROB_CLIP))
    bad = bad_volume | bad_fraction
    on = live & ~bad & (fractions != 0.0)
    lows, highs = v_initial[on], v_final[on]
    with np.errstate(over="ignore"):
        ratios = highs / lows
    outside = ~((0.0 < ratios) & (ratios < inf))
    ratios[outside] = 1.0
    logs = np.fromiter(map(log2, ratios.tolist()), float, len(ratios))
    # the ratio left the float range; the volumes' own logs did not
    logs[outside] = [
        log2(high) - log2(low)
        for low, high in zip(lows[outside].tolist(), highs[outside].tolist())
    ]
    works = np.zeros(fractions.shape)
    works[on] = fractions[on] * logs
    # np.sum would add pairwise; each pair's net is its rows added in order
    nets = np.add.accumulate(works, axis=1)[:, -1]

    def term_error(k):
        c = int(np.argmax(bad[k]))
        if bad_volume[k, c]:
            return NonPositiveVolume(
                "volumes must be finite and positive, got "
                f"{float(v_initial[k, c])!r} -> {float(v_final[k, c])!r}"
            )
        return ValidationError(f"molecule fraction {float(fractions[k, c])!r} outside [0, 1]")

    _raise_first_failure(
        [
            (bad.any(axis=1), term_error),
            (
                ~np.isfinite(nets),
                lambda k: NumericalFailure(f"cycle net work came out {float(nets[k])!r}"),
            ),
        ]
    )
    return works, nets


class LedgerEntry(_Frozen):
    """One isothermal move: which stage it belongs to, what moved, and the
    work in bits (positive = extracted)."""

    _fields = ("stage", "description", "work_bits")

    def __init__(self, stage: str, description: str, work_bits: float):
        if stage not in STAGES:
            raise ValidationError(f"unknown stage label {stage!r}")
        if stage == STAGE_ISENTROPIC and work_bits != 0.0:
            raise ValidationError("isentropic transforms exchange no work")
        self._assign(stage=stage, description=description, work_bits=work_bits)


class CycleLedger(_Frozen):
    """Every entry of one full cycle plus the quantities it must reconcile with."""

    _fields = ("entries", "net_bits", "i_ab", "chi", "delta_s")

    def __init__(
        self,
        entries: tuple[LedgerEntry, ...],
        net_bits: float,
        i_ab: float,
        chi: float,
        delta_s: float,
    ):
        self._assign(entries=entries, net_bits=net_bits, i_ab=i_ab, chi=chi, delta_s=delta_s)


def stage_total(entries, stage: str | None = None) -> float:
    """Sum of work over entries, optionally restricted to one stage label."""
    return float(
        sum(en.work_bits for en in entries if stage is None or en.stage == stage)
    )


# A kind of ledger row: its stage, the free step booked before its rows (a
# (stage, description) pair, or None), and the description of one row, with
# fields {0} and {1} for its indices and {2} and {3} for its volumes.
_PRIORS = (STAGE_EXTRACTION, None, "preparation {0}: expand from volume {2:.6g} to 1")
_SORTING = (STAGE_EXTRACTION, None, "outcome {0}: sort preparation {1} into its sub-volume")
_SIGMA_COMPRESSION = (
    STAGE_SIGMA_COMPRESSION,
    (STAGE_SIGMA_COMPRESSION, "attach empty vessel and separate eigencomponents (no work)"),
    "compress component {0} from volume 1 to {3:.6g}",
)
_RHO_EXPANSION = (
    STAGE_RHO_EXPANSION,
    (STAGE_ISENTROPIC, "rotate eigencomponents into the target basis"),
    "expand component {0} from volume {2:.6g} to 1",
)
_RHO_COMPRESSION = (STAGE_RHO_COMPRESSION, None, "compress component {0} from volume 1 to {3:.6g}")
_RECOMPRESSION = (
    STAGE_ENSEMBLE_RECOMPRESSION,
    (STAGE_ISENTROPIC, "rotate components into the member eigenbases"),
    "preparation {0}: expand component {1} from volume {2:.6g} to {3:.6g}",
)


class _Segment(NamedTuple):
    """The rows of one kind for a stack of pairs: flat term arrays, pair
    after pair, ``counts[k]`` terms for pair k.  A term is booked where
    ``live`` (its weights are above ``WEIGHT_FLOOR``); term t has indices
    ``divmod(t, inner[k])`` where the kind has two."""

    kind: tuple
    fractions: np.ndarray
    v_initial: np.ndarray
    v_final: np.ndarray
    live: np.ndarray
    counts: np.ndarray
    inner: np.ndarray | None = None


def _alive(weights: np.ndarray) -> np.ndarray:
    """Weights that get a ledger row: not at or below ``WEIGHT_FLOOR``."""
    return ~(weights <= WEIGHT_FLOOR)


def _flat(arrays) -> tuple[np.ndarray, np.ndarray]:
    """A list of 1-d arrays as one array, and their lengths."""
    return np.concatenate(arrays), np.array([len(a) for a in arrays])


def _extraction(p, n, q, m, tables) -> list[_Segment]:
    """The extraction rows of each pair, from its n priors p, its m outcome
    probabilities q and its joint table, flattened outcome-major.

    Expanding every preparation's gas from its p_i slot to the full vessel
    pays out H(A); re-sorting the gas inside each outcome compartment q_j
    by preparation costs H(A|B) back."""
    slots = np.repeat(q, np.repeat(n, m))
    kept = _alive(slots)
    cond = np.divide(tables, slots, out=np.zeros_like(tables), where=kept)
    moved = slots * cond  # q * cond == cond * q, the sub-volume it ends in
    return [
        _Segment(_PRIORS, p, p, np.ones_like(p), _alive(p), n),
        _Segment(_SORTING, moved, slots, moved, kept & _alive(cond), n * m, n),
    ]


def _sigma_to_rho(c, s, lam, r) -> list[_Segment]:
    """The sigma -> rho rows of each pair, from the s eigenvalues c of
    sigma and the r eigenvalues lam of rho, both ascending; where r < s,
    rho's spectrum gets s - r zeros in front.

    Compressing sigma's component j from the full vessel into its c_j slot
    costs S(sigma); expanding rho's components back to the full vessel
    pays out S(rho)."""
    padded = np.zeros_like(c)
    padded[np.arange(len(lam)) + np.repeat(np.cumsum(s) - np.cumsum(r), r)] = lam
    ones = np.ones_like(c)
    return [
        _Segment(_SIGMA_COMPRESSION, c, ones, c, _alive(c), s),
        _Segment(_RHO_EXPANSION, padded, padded, ones, _alive(padded), s),
    ]


def _rho_to_initial(p, n, lam, d, mu) -> list[_Segment]:
    """The rho -> start rows of each pair, from its n priors p, the d
    eigenvalues lam of rho and its members' eigenvalues mu, member-major.

    Compressing rho's components into their lambda_k slots costs S(rho);
    every member's components then expand inside its p_i compartment,
    paying out sum_i p_i S(rho_i)."""
    slots = np.repeat(p, np.repeat(d, n))
    moved = slots * mu  # p * mu == mu * p, the volume it starts in
    return [
        _Segment(_RHO_COMPRESSION, lam, np.ones_like(lam), lam, _alive(lam), d),
        _Segment(_RECOMPRESSION, moved, moved, slots, _alive(slots) & _alive(mu), n * d, d),
    ]


class _Booking(NamedTuple):
    """Booked segments: the (K, L) works, each row's net, and the column
    where each segment's terms start in each row."""

    segments: list[_Segment]
    works: np.ndarray
    nets: np.ndarray
    starts: np.ndarray

    @property
    def breaks(self) -> np.ndarray:
        """Which rows' cycles net positive work beyond ``CYCLE_TOL``."""
        return self.nets > CYCLE_TOL


def _books(segments: list[_Segment]) -> _Booking:
    """Lay the segments' terms out as zero-padded (K, L) arrays, pair k's
    terms in segment order in row k, and book them."""
    counts = np.array([s.counts for s in segments]).T
    starts = np.cumsum(counts, axis=1) - counts
    k, width = len(counts), int(counts.sum(axis=1).max())
    # the concatenated terms run segment by segment, pair by pair; each
    # (segment, pair) block goes to the pair's row at the segment's start
    blocks = counts.T.ravel()
    places = (starts + width * np.arange(k)[:, None]).T.ravel()
    places = np.arange(blocks.sum()) + np.repeat(places - (np.cumsum(blocks) - blocks), blocks)
    terms = []
    for name in ("fractions", "v_initial", "v_final", "live"):
        flat = np.concatenate([getattr(s, name) for s in segments])
        stacked = np.zeros(k * width, dtype=flat.dtype)
        stacked[places] = flat
        terms.append(stacked.reshape(k, width))
    works, nets = _book(*terms)
    return _Booking(segments, works, nets, starts)


def _entries(booking: _Booking) -> list[LedgerEntry]:
    """The ledger entries of the first pair of a booking: per segment, its
    free step, then one entry per live term."""
    entries, works = [], booking.works[0]
    for s, start in zip(booking.segments, booking.starts[0].tolist()):
        stage, step, template = s.kind
        if step is not None:
            entries.append(LedgerEntry(*step, 0.0))
        count = int(s.counts[0])
        v_initial, v_final = s.v_initial[:count].tolist(), s.v_final[:count].tolist()
        for t in np.flatnonzero(s.live[:count]).tolist():
            first, second = (t, None) if s.inner is None else divmod(t, int(s.inner[0]))
            description = template.format(first, second, v_initial[t], v_final[t])
            entries.append(LedgerEntry(stage, description, works[start + t]))
    return entries


def extraction_stage(e: Ensemble, v: Povm) -> list[LedgerEntry]:
    """Measure, then cash the correlations in; nets I(A:B).

    Realized as the difference of two membrane processes: expanding every
    preparation's gas from its p_i slot to the full vessel pays out H(A);
    re-sorting the gas inside each outcome compartment by preparation costs
    H(A|B) back.  Both run on ``work_isothermal`` volume ratios only.
    """
    jd = joint_distribution(e, v)
    return _entries(
        _books(
            _extraction(*_flat([e.probs]), *_flat([jd.outcome_probs]), jd.matrix.T.ravel())
        )
    )


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
    return _entries(_books(_sigma_to_rho(*_flat([sigma.spectrum()]), *_flat([rho.spectrum()]))))


def rho_to_initial_stage(e: Ensemble) -> list[LedgerEntry]:
    """Rebuild the labeled ensemble from its average state; nets -chi.

    Runs the reversible preparation path backwards: compress rho's
    eigencomponents into their lambda_k slots (costs S(rho)), isentropically
    rotate each slot's gas into the right member eigenbasis (free), then let
    every member's eigencomponents expand inside its p_i compartment
    (pays out sum_i p_i S(rho_i))."""
    mu = np.concatenate([s.spectrum() for s in e.states])
    return _entries(
        _books(
            _rho_to_initial(*_flat([e.probs]), *_flat([average_state(e).spectrum()]), mu)
        )
    )


@np.errstate(all="ignore")
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
    tolerance, and ``NumericalFailure`` if it is not finite.  The analysis
    and the booking compute with numpy's floating-point errors ignored.
    """
    a = _analyse_groups([_group([(e, v)])])
    booking = _book_cycles(a)
    net = float(booking.nets[0])
    if booking.breaks[0]:
        raise SecondLawViolation(
            f"cycle netted {net:.3e} bits of extracted work (> {CYCLE_TOL:.1e})"
        )
    return CycleLedger(
        tuple(_entries(booking)), net, float(a.info[0]), float(a.chi[0]), float(a.delta_s[0])
    )


def _book_cycles(a: _Analysis) -> _Booking:
    """Book the cycle of every pair of an ``_Analysis``, all in one pass,
    pair k in row k: extraction, sigma -> rho with rho's spectrum padded by
    d*(m-1) zeros for a general measurement, and rho -> start.  The lowest
    row whose booking fails raises; a net above ``CYCLE_TOL`` is left to
    the caller, in ``breaks``."""
    p, n, lam, d = a.priors, a.sizes, a.rho_spectra, a.dims
    segments = _extraction(p, n, a.outcome_probs, a.counts, a.by_outcome)
    segments += _sigma_to_rho(a.sigma_spectra, a.sigma_sizes, lam, d)
    return _books(segments + _rho_to_initial(p, n, lam, d, a.member_spectra))
