"""Accessible information against its entropic ceilings.

``evaluate_bounds`` checks a concrete (ensemble, measurement) pair against
both ceilings: the measurement-independent one (chi) and the looser one
that credits the measurement's own entropy production (chi + delta_s).
``maximize_accessible_information`` searches over measurements, and
``random_instance`` manufactures reproducible test cases.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, ToolkitError, UnsupportedDimension, ValidationError
from .linops import (
    BOUND_TOL,
    CONVERGENCE_TOL,
    PSD_EPSILON,
    _decomposition_checks,
    _eigenvalue_floor_check,
    _eigenvalue_function,
    _eigh,
    _finite_function_check,
    _ordered_sums,
    _psd_function_stack,
    _raise_first_failure,
    _require_finite,
    _require_int,
    _segments,
)
from .measurement import (
    Povm,
    _analyse_groups,
    _block_projectors,
    _check_unitaries,
    _group,
    _Group,
    _information_check,
    _pairs,
    _povm_flags,
    _povms,
    _table_checks,
)
from .measurement import delta_s as measurement_delta_s  # noqa: F401 (read by bench/)
from .quantum import DensityMatrix, Ensemble, _density_eigenvalues, _probability_checks

#: The optimizer methods ``OptimizerConfig`` accepts.
METHODS = ("qubit_grid", "random_restart_ascent")
#: The largest ``grid_points``: the qubit lattice's memory grows as its square.
GRID_CAP = 1000
#: The ascent's work cap.  A restart scores its start and up to
#: max_iterations steps, each about 7-9 ns an n d^4 term for n states of
#: dimension d (runs at the cap at d = 12-24, one BLAS thread on a 2-vCPU
#: VM) plus numpy's fixed cost, about 45 us a step alone at d = 4 and 18 us
#: a restart's step in lockstep with 7 others, counted as ASCENT_STEP_WORK
#: more terms.  The slowest admitted run timed took about 4.4 s.
ASCENT_WORK_CAP = 6 * 10**8
ASCENT_STEP_WORK = 10**4
#: The ascent checks a restart's steps in blocks of this many: a full
#: block's checks run as one stack before the next step is recorded, so the
#: steps held stay few at any max_iterations, while a block's stacked
#: checks cost little more a step than one stack for the whole restart.
_STEP_BLOCK = 32
#: Restarts run in lockstep in groups whose R d^4 gradient and R n d^2 table
#: entries stay within this many: 8 at d = 16 (8 MiB) ran 1.2x slower than alone.
_LOCKSTEP_ENTRIES = 2**16
#: The ensemble kinds ``random_instance`` draws.
_KINDS = ("pure", "mixed", "commuting")

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class BoundReport:
    """One (ensemble, measurement) pair scored against both ceilings.

    ``holevo_slack = chi - I`` and ``thermo_slack = holevo_slack + delta_s``,
    so the two slacks always differ by exactly ``delta_s``.
    """

    accessible_info: float
    chi: float
    delta_s: float
    holevo_slack: float
    thermo_slack: float
    holevo_satisfied: bool
    thermo_satisfied: bool


def _report(info: float, chi: float, ds: float) -> BoundReport:
    info, chi, ds = float(info), float(chi), float(ds)
    holevo_slack = chi - info
    thermo_slack = holevo_slack + ds
    return BoundReport(
        accessible_info=info,
        chi=chi,
        delta_s=ds,
        holevo_slack=holevo_slack,
        thermo_slack=thermo_slack,
        holevo_satisfied=bool(holevo_slack >= -BOUND_TOL),
        thermo_satisfied=bool(thermo_slack >= -BOUND_TOL),
    )


def evaluate_bounds(e: Ensemble, v: Povm) -> BoundReport:
    """Score a concrete measurement of an ensemble against both ceilings,
    from the one analysis of the pair that ``run_cycle`` also reads."""
    a = _analyse_groups([_group([(e, v)])])
    return _report(a.info[0], a.chi[0], a.delta_s[0])


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for ``maximize_accessible_information``.

    ``method`` is one of ``METHODS``: ``"qubit_grid"`` (dense Bloch-angle
    sweep, qubits only) is a lattice optimum over *projective* measurements
    only, so it undershoots accessible information when three or more
    states call for a general POVM (0.4591 against log2(3/2) = 0.58496 on
    the trine); ``"random_restart_ascent"`` (the rank-one fixed-point
    ascent, any dimension) searches general POVMs.  ``grid_points`` runs
    from 2 to ``GRID_CAP`` and ``seed`` is nonnegative.
    """

    method: str = "qubit_grid"
    grid_points: int = 100
    restarts: int = 8
    max_iterations: int = 200
    convergence_tol: float = CONVERGENCE_TOL
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown optimizer method {self.method!r}")
        for name in ("grid_points", "restarts", "max_iterations", "seed"):
            _require_int(name, getattr(self, name))
        if self.grid_points < 2:
            raise ValidationError("grid_points must be at least 2")
        if self.grid_points > GRID_CAP:
            raise ValidationError(f"grid_points allows at most the cap {GRID_CAP}")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.restarts < 1 or self.max_iterations < 1:
            raise ValidationError("restarts and max_iterations must be positive")
        tol = self.convergence_tol
        if isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating)):
            raise ValidationError(f"convergence_tol must be a real number, got {tol!r}")
        if not (np.isfinite(tol) and tol > 0):
            raise ValidationError("convergence_tol must be positive and finite")


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    out = np.zeros_like(x)
    for val in (x, 1.0 - x):
        mask = val > 0.0
        out[mask] -= val[mask] * np.log2(val[mask])
    return out


def _bloch_vector(r: DensityMatrix) -> np.ndarray:
    m = r.matrix
    return np.array(
        [
            float(np.trace(m @ _PAULI_X).real),
            float(np.trace(m @ _PAULI_Y).real),
            float(np.trace(m @ _PAULI_Z).real),
        ]
    )


def _qubit_basis_povm(theta: float, phi: float) -> Povm:
    e1 = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    e2 = np.array([np.sin(theta / 2), -np.exp(1j * phi) * np.cos(theta / 2)])
    return Povm((np.outer(e1, e1.conj()), np.outer(e2, e2.conj())), projective=True)


def _qubit_grid_search(e: Ensemble, cfg: OptimizerConfig) -> Povm:
    """Dense sweep of projective qubit measurements over Bloch angles.

    The lattice covers theta in [0, pi) and phi in [0, 2*pi) with
    ``grid_points`` samples each; ties go to the first lattice point in
    row-major (theta-major) order.  Works entirely through Bloch vectors,
    so the whole grid is one vectorized pass.
    """
    if e.dim != 2:
        raise UnsupportedDimension("qubit_grid requires dimension-2 states")
    g = cfg.grid_points
    thetas = np.linspace(0.0, np.pi, g, endpoint=False)
    phis = np.linspace(0.0, 2.0 * np.pi, g, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    axes = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)

    bloch = np.stack([_bloch_vector(s) for s in e.states])  # (n, 3)
    # P(first outcome | state i) at every lattice point
    p_first = np.clip((1.0 + axes @ bloch.T) / 2.0, 0.0, 1.0)  # (g*g, n)
    q_first = p_first @ e.probs
    # I = H(outcome) - H(outcome | preparation), both binary
    info = _binary_entropy(q_first) - _binary_entropy(p_first) @ e.probs
    best = int(np.argmax(info))
    return _qubit_basis_povm(tt.reshape(-1)[best], pp.reshape(-1)[best])


def _random_restart_ascent(e: Ensemble, cfg: OptimizerConfig) -> Povm:
    """Steepest-ascent fixed-point iteration over dim^2 rank-one elements.

    Řeháček, Englert & Kaszlikowski, PRA 71, 054303 (2005).  The elements
    are E_k = |phi_k><phi_k|; dim^2 rank-one outcomes always suffice for the
    optimum (Davies 1978).  Each step moves every ket to
    (1 + eps R_k)|phi_k> with R_k = sum_i p_i rho_i log2(q_ik / (p_i q_k)),
    the gradient of I with respect to E_k, and then restores completeness
    with S^{-1/2}, S = sum_k |phi_k><phi_k|, so every iterate is a valid
    POVM.  A step takes one eigensolve of S (``_normalised``) and one table
    with its log table (``_ascent_score``); an accepted step's log table
    gives the next gradient, and the gradient is kept while the step is
    retried.  A step that loses information is retried with half the
    ``eps``; a restart ends when an accepted step gains less than
    ``convergence_tol`` or after ``max_iterations`` steps.  Restarts draw
    in turn from one seeded generator, run in lockstep (``_ascent_lockstep``)
    and the first best wins.  A run whose work passes ``ASCENT_WORK_CAP``
    raises ``BudgetExceeded`` before any step.

    The steps check nothing as they go, except that S is finite: each
    records what the checks of ``psd_function``, ``JointDistribution`` and
    ``mutual_information`` read, and the checks run stacked once per block
    of ``_STEP_BLOCK`` steps and at the end (``_StepChecks``).  The steps
    run under numpy error settings that raise wherever the caller's would
    warn or raise, and on the invalid flag a failed eigensolve sets.  A
    lockstep group that raises runs again restart by restart, so the lowest
    failing restart raises; one that would warn runs again with each step
    checked as it goes (a step after a failing one may compute on values
    its checks refuse), and raises or warns as that step does.
    """
    d, outcomes = e.dim, e.dim * e.dim
    # Python ints, as numpy integers from the config could wrap
    scores = int(cfg.restarts) * (int(cfg.max_iterations) + 1)
    work = scores * (e.size * d**4 + ASCENT_STEP_WORK)
    if work > ASCENT_WORK_CAP:
        raise BudgetExceeded(
            f"ascent work {work} ({cfg.restarts} restarts of up to {cfg.max_iterations} "
            f"steps, n = {e.size}, d = {d}) exceeds the cap {ASCENT_WORK_CAP}"
        )
    rng = np.random.default_rng(cfg.seed)
    probs = e.probs
    weighted = probs[:, None, None] * np.stack([s.matrix for s in e.states])
    strict = {k: "raise" if k == "invalid" or m != "ignore" else m for k, m in np.geterr().items()}

    def ascent(starts, eager=False):
        with np.errstate(**({} if eager else strict)):
            return _ascent_lockstep(starts, weighted, probs, cfg, _StepChecks(eager))

    runs, group = [], max(1, _LOCKSTEP_ENTRIES // (d**4 + e.size * outcomes))
    for first in range(0, cfg.restarts, group):
        starts = np.array([rng.normal(size=(d, outcomes)) + 1j * rng.normal(size=(d, outcomes))
                           for _ in range(min(group, cfg.restarts - first))])
        if len(starts) > 1:
            try:
                runs += ascent(starts)
                continue
            except (FloatingPointError, ToolkitError):
                pass  # each runs again alone, in turn
        for start in starts[:, None]:
            try:
                runs += ascent(start)
            except FloatingPointError:
                runs += ascent(start, eager=True)
    kets, _ = max(runs, key=lambda run: run[1])  # the first best
    return _rank_one_povm(kets)


def _ascent_lockstep(starts, weighted, probs, cfg: OptimizerConfig, checks: _StepChecks):
    """The ascent from each of the (R, d, K) kets ``starts``, to the bits each
    reaches alone: a step moves every restart still going, each with its own
    eps, I and stop.  ``checks`` runs the checks held at the end and before
    anything inside raises.  Returns each restart's final kets and I."""
    priors, ratio = probs[:, None], np.empty((len(starts), len(probs), starts.shape[2]))
    rows, done = list(range(len(starts))), {}
    try:
        kets = _normalised(starts, checks)
        logs, values = _ascent_score(kets, weighted, priors, ratio, checks)
        values = [max(0.0, x) for x in values.tolist()]
        # each restart's eps, complex as numpy casts it for the step
        eps, direction = np.ones((len(rows), 1, 1), dtype=complex), None
        for _ in range(cfg.max_iterations):
            if direction is None:
                r = np.einsum("rik,iab->rkab", logs, weighted)
                direction = np.einsum("rkab,rbk->rak", r, kets)
            trial = _normalised(kets + eps * direction, checks)
            trial_logs, trial_values = _ascent_score(trial, weighted, priors, ratio, checks)
            retried, going = [], []
            for row, (new, old) in enumerate(zip(trial_values.tolist(), values)):
                if max(0.0, new) < old:
                    retried.append(row)
                    going.append(row)
                elif not max(0.0, new) - old < cfg.convergence_tol:
                    going.append(row)
                values[row] = max(0.0, new, old)
            if retried:  # only then are the stacks indexed
                eps[retried] *= 0.5
                if len(retried) == len(rows):
                    continue
                trial[retried], trial_logs[retried] = kets[retried], logs[retried]
            kets, logs, direction = trial, trial_logs, None
            if len(going) < len(rows):
                if not going:
                    break
                done.update(zip(rows, zip(kets, values)))
                kets, logs, eps, ratio = kets[going], logs[going], eps[going], ratio[: len(going)]
                rows, values = [rows[row] for row in going], [values[row] for row in going]
        done.update(zip(rows, zip(kets, values)))
    except ToolkitError:
        checks.run()
        raise
    checks.run()
    return [done[row] for row in range(len(starts))]


class _StepChecks:
    """The checks of a run of ascent steps, recorded as the steps go and
    run as one stack.

    A step records what each check reads, in the order the checks run:
    S = K K+ with the eigenvalues w and eigenvectors v its eigensolve gave,
    then f(w), which ``psd_function`` checks; the raw table q, which
    ``JointDistribution`` checks; and the I that ``mutual_information``
    checks, each of a lockstep stack.  ``run`` runs those checks, with
    their tolerances, on every record held, and the lowest failing one
    raises the error they raise for it alone; then the records are
    dropped.  A step's last record runs the checks once ``_STEP_BLOCK``
    steps are held; with ``eager`` every record runs them, as one checked
    call does."""

    def __init__(self, eager: bool = False):
        self.eager = eager
        self._drop()

    def _drop(self) -> None:
        self.s, self.w, self.v, self.fw, self.tables, self.infos = [], [], [], [], [], []

    def eigensolve(self, s, w, v) -> None:
        self.s.append(s)
        self.w.append(w)
        self.v.append(v)
        if self.eager:
            self.run()

    def function(self, fw) -> None:
        self.fw.append(fw)
        if self.eager:
            self.run()

    def table(self, q) -> None:
        self.tables.append(q)
        if self.eager:
            self.run()

    def information(self, info) -> None:
        self.infos.append(info)
        if self.eager or len(self.infos) == _STEP_BLOCK:
            self.run()

    def run(self) -> None:
        checks = []
        if self.s:
            s, w, v = map(np.concatenate, (self.s, self.w, self.v))
            checks += _decomposition_checks(s, w, v) + [_eigenvalue_floor_check(w)]
        if self.fw:
            checks.append(_finite_function_check(np.concatenate(self.fw)))
        if self.tables:
            checks += _table_checks(np.concatenate(self.tables))
        if self.infos:
            checks.append(_information_check(np.concatenate(self.infos)))
        self._drop()
        _raise_first_failure(checks)


def _inverse_root(x: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(x)


def _normalised(kets: np.ndarray, checks: _StepChecks) -> np.ndarray:
    """S^{-1/2} K and S = K K+ for each (d, K) ket array K of a stack: the
    kets of a rank-one POVM on S's support, with ``psd_function``'s bits.
    A non-finite S raises as ``psd_function`` raises; S's other checks go
    to ``checks``, and its ``_eigh`` is checked only if ``checks`` is eager."""
    s = kets @ kets.conj().swapaxes(-1, -2)
    _require_finite(s)
    w, v = _eigh(s, checks.eager)
    checks.eigensolve(s, w, v)
    kernel = min(w[:, 0].tolist()) <= PSD_EPSILON  # w ascends
    fw = _eigenvalue_function(w, _inverse_root, pseudo=True) if kernel else _inverse_root(w)
    checks.function(fw)
    return (v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2) @ kets


def _ascent_score(kets, weighted, priors, buffer, checks: _StepChecks):
    """The information of the rank-one measurement with (d, K) kets phi_k,
    for each of a stack, on the states with priors p (``priors``, an
    (n, 1) column) and weighted states p_i rho_i (``weighted``): the table
    q_ik = <phi_k|p_i rho_i|phi_k>, clipped as ``JointDistribution`` clips
    it; its log ratio table L_ik = log2(q_ik / (p_i q_k)), 0 where q_ik = 0,
    the ratio formed in ``buffer``; and I = sum_ik q_ik L_ik, which
    ``mutual_information`` clips at 0.  The checks of both are recorded in
    ``checks``.  Returns (L, I)."""
    raw = np.einsum("...ak,iab,...bk->...ik", kets.conj(), weighted, kets).real
    checks.table(raw)
    q = np.maximum(raw, 0.0)
    buffer.fill(1.0)
    np.divide(q, priors * np.add.reduce(q, axis=-2, keepdims=True), out=buffer, where=q > 0.0)
    logs = np.log2(buffer)
    info = np.add.reduce(q * logs, axis=(-2, -1))
    checks.information(info)
    return logs, info


def _rank_one_povm(kets: np.ndarray) -> Povm:
    """The ``Povm`` of elements |k><k| for the columns k of a (d, K) ket
    array, each as ``np.outer`` builds it, in one stacked product and one
    stacked check.  Non-finite kets raise what ``Povm`` raises for them."""
    _require_finite(kets)
    rows = kets.T
    stack = rows[:, :, None] * rows.conj()[:, None, :]
    return _povms(stack, [len(stack)], [None])[0]


def maximize_accessible_information(
    e: Ensemble, cfg: OptimizerConfig | None = None
) -> tuple[Povm, BoundReport]:
    """Search for the measurement extracting the most mutual information.

    Returns the best measurement found and its bound report.  Both methods
    are heuristic searches: the reported value is a certified lower bound
    on the true optimum, not a certificate of optimality.
    """
    cfg = cfg or OptimizerConfig()
    if cfg.method == "qubit_grid":
        best = _qubit_grid_search(e, cfg)
    else:
        best = _random_restart_ascent(e, cfg)
    return best, evaluate_bounds(e, best)


def _complex_gaussians(z: np.ndarray) -> np.ndarray:
    """Complex Gaussian arrays from a (count, 2, ...) array of standard
    normals drawn by ``rng.normal(size=(count, 2) + shape)``: the generator
    fills in C order, so each array's real part is drawn first and then
    its imaginary part, as two calls per array would."""
    return z[:, 0] + 1j * z[:, 1]


def _dirichlet_rows(exponentials: np.ndarray, lengths) -> np.ndarray:
    """The flat Dirichlet(1, ..., 1) rows that ``rng.dirichlet`` forms from
    the standard exponentials it draws, for consecutive rows of ``lengths``
    draws each (``rng.standard_exponential`` yields the same stream): each
    row times one over its left-to-right sum, numpy's own arithmetic."""
    return exponentials * np.repeat(1.0 / _ordered_sums(exponentials, lengths), lengths)


def _haar_unitaries(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from a ``(K, d, d)`` stack of complex Gaussian
    matrices: the Q of each QR decomposition, with each column's phase
    fixed by R's diagonal."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


@functools.cache
def _column_blocks(dim: int, outcomes: int) -> tuple[tuple[int, ...], ...]:
    """The column indices of each of ``outcomes`` near-equal blocks of ``dim``
    columns, as ``np.array_split`` splits them."""
    return tuple(tuple(chunk.tolist()) for chunk in np.array_split(np.arange(dim), outcomes))


def _is_seed(seed) -> bool:
    """A nonnegative integer (numpy's included, ``bool`` not), or a
    sequence of them (a 1-d array included)."""
    if isinstance(seed, np.ndarray) and seed.ndim != 1:
        return False
    parts = seed if isinstance(seed, (list, tuple, np.ndarray)) else [seed]
    return all(
        isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 0 for x in parts
    )


#: numpy's ``SeedSequence`` constants (O'Neill's seed_seq_fe): the pool
#: hash, the output hash, the two-word mix, the pool size in words and
#: the xorshift of every hash and mix.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_SHIFT = np.uint32(16)


def _mix_entropy(entropy: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence.mix_entropy`` of the (L, R) uint32 entropy words of R
    seeds of L words each, as numpy writes it: the pool's 4 words, each a
    (R,) row.  The running hash constant is the same for every seed."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)  # a new array: the words hashed stay
        const = const * _MULT_A & _MASK32
        value *= np.uint32(const)
        value ^= value >> _SHIFT
        return value

    def mix(x, y):
        result = _MIX_L * x - _MIX_R * y
        result ^= result >> _SHIFT
        return result

    zeros = np.zeros(entropy.shape[1], dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL)]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL, len(entropy)):
        for i_dst in range(_POOL):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src]))
    return pool


def _generate_state(pool: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` of R seeds' pools from
    ``_mix_entropy``, as numpy writes it: 8 uint32 words read off the pool
    in cycle, paired into little-endian uint64s.  Returns (R, 4)."""
    const, words = _INIT_B, []
    for i_dst in range(2 * _POOL):
        value = pool[i_dst % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value *= np.uint32(const)
        value ^= value >> _SHIFT
        words.append(value)
    return np.array(words).T.astype("<u4", order="C").view("<u8")


def _seed_states(seeds) -> np.ndarray:
    """The (K, 4) uint64 PCG64 states of K seeds, each a nonnegative integer
    or a sequence of them: row k is
    ``np.random.SeedSequence(seeds[k]).generate_state(4, np.uint64)``.
    Each seed becomes its integers' 32-bit words, least significant first
    (one zero word for 0), as ``SeedSequence`` reads them; the seeds of
    each word count are then hashed together, ``_mix_entropy`` and
    ``_generate_state`` vectorised over them."""
    lengths, flat = [], []
    for seed in seeds:
        start = len(flat)
        for x in seed if isinstance(seed, (list, tuple, np.ndarray)) else (seed,):
            x = int(x)
            while x > _MASK32:
                flat.append(x & _MASK32)
                x >>= 32
            flat.append(x)
        lengths.append(len(flat) - start)
    counts = np.array(lengths, dtype=np.intp)
    flat = np.array(flat, dtype=np.uint32)
    starts = np.cumsum(counts) - counts
    states = np.empty((len(counts), 4), dtype=np.uint64)
    for length in sorted(set(lengths)):
        rows = np.flatnonzero(counts == length)
        entropy = flat[starts[rows] + np.arange(length)[:, None]]
        states[rows] = _generate_state(_mix_entropy(entropy))
    return states


@functools.cache
def _state_seed_type() -> type:
    """A minimal ``ISeedSequence`` that hands ``PCG64`` a state computed
    ahead.  Built on first use: importing the package does not import
    ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class StateSeed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds 4 uint64 words, asked for {n_words} {dtype}")
            return self.state

    return StateSeed


def _generator(state: np.ndarray) -> np.random.Generator:
    """The generator ``np.random.default_rng(seed)`` builds, from the seed's
    row of ``_seed_states``: ``PCG64`` seeds itself from that state."""
    return np.random.Generator(np.random.PCG64(_state_seed_type()(state)))


def _draw_instance(dim: int, n_states: int, m_outcomes: int, kind: str, rng):
    """One instance's raw draws from the generator ``rng``, in the order it
    yields them: the priors' standard exponentials; for ``commuting``, the
    normals of the Haar unitary of its shared basis, then its states'
    diagonals' standard exponentials, (n_states, dim); otherwise its states'
    normals, ``(n_states, 2) + shape`` (kets for ``pure``, matrices for
    ``mixed``), then, where m_outcomes <= dim, a coin, and the normals of
    the Haar unitary whose column blocks make a projective basis (a coin
    below 0.5), or of the raw PSD elements.  Returns (priors, states,
    unitary or ``None``, raw elements or ``None``); the normals of a
    matrix stack are ``(count, 2, dim, dim)``."""
    probs = rng.standard_exponential(n_states)
    if kind == "commuting":
        unitary = rng.normal(size=(1, 2, dim, dim))
        return probs, rng.standard_exponential((n_states, dim)), unitary, None
    shape = (dim,) if kind == "pure" else (dim, dim)
    states = rng.normal(size=(n_states, 2) + shape)
    if m_outcomes <= dim and rng.random() < 0.5:
        return probs, states, rng.normal(size=(1, 2, dim, dim)), None
    return probs, states, None, rng.normal(size=(m_outcomes, 2, dim, dim))


def random_instance(
    dim: int, n_states: int, m_outcomes: int, kind: str, seed
) -> tuple[Ensemble, Povm]:
    """Reproducible random (ensemble, measurement) pair.

    ``kind`` selects the ensemble flavor: ``pure`` (uniform random kets),
    ``mixed`` (normalized Wishart matrices), or ``commuting`` (random
    diagonal states conjugated by one shared unitary, measured in that
    shared basis).  Priors are a flat simplex draw.  For the non-commuting
    kinds the measurement is a coin flip between a random projective basis
    (column blocks of a fresh unitary, only possible when m <= dim) and
    random PSD elements normalized to resolve the identity.  ``seed`` is a
    nonnegative integer or a sequence of them, read by
    ``np.random.default_rng``.  This is the one-instance case of
    ``_random_instances``.
    """
    for name, value in (("dim", dim), ("n_states", n_states), ("m_outcomes", m_outcomes)):
        _require_int(name, value)
    if dim < 2:
        raise ValidationError("dimension must be at least 2")
    if n_states < 1:
        raise ValidationError("need at least one state")
    if m_outcomes < 2:
        raise ValidationError("need at least two outcomes")
    if kind not in _KINDS:
        raise ValidationError(f"unknown ensemble kind {kind!r}")
    if kind == "commuting" and m_outcomes > dim:
        raise ValidationError(
            "a commuting instance is measured in its shared basis, "
            f"so outcomes ({m_outcomes}) cannot exceed the dimension ({dim})"
        )
    if not _is_seed(seed):
        raise ValidationError(
            f"seed must be a nonnegative integer or a sequence of them, got {seed!r}"
        )
    rng = np.random.default_rng(seed)
    return _pairs(_random_instances([(dim, n_states, m_outcomes, kind, rng)])[0])[0]


def _random_instances(specs) -> list[_Group]:
    """``random_instance`` of each (dim, n_states, m_outcomes, kind, rng)
    spec, each valid as ``random_instance`` checks, where ``rng`` is the
    spec's own ``Generator``: one ``_Group`` a dimension, in ascending
    order, each holding its specs in the order given.  Each spec makes only
    its generator calls (``_draw_instance``), in spec order.  The rest runs
    stage by stage over all the specs, a kernel that needs one (K, d, d)
    stack once a dimension and everything else once.  The stages, in
    order: each dimension's states (``_dimension_states``) with their one
    stacked density check; every Dirichlet row of the priors and one
    stacked prior check; each dimension's unitarity check of its Haar
    unitaries; its raw PSD elements' one stacked ``psd_function``
    normalization (``_instance_elements``); its one stacked ``Povm``
    check.  The first stage with a failing spec raises, for the lowest
    failing dimension and, in it, the lowest failing spec."""
    draws = [_draw_instance(*spec) for spec in specs]
    dims = sorted({spec[0] for spec in specs})
    runs = [[k for k, spec in enumerate(specs) if spec[0] == d] for d in dims]
    sizes, counts, haar, unitaries, raw, states, eigenvalues = zip(
        *(_dimension_states(d, [specs[k] for k in run], [draws[k] for k in run])
          for d, run in zip(dims, runs))
    )
    flat_sizes = np.concatenate(sizes)
    exponentials = np.concatenate([draws[k][0] for run in runs for k in run])
    priors, checks = _probability_checks(_dirichlet_rows(exponentials, flat_sizes), flat_sizes)
    _raise_first_failure(checks)
    for u in unitaries:
        if u is not None:
            _check_unitaries(u)
    elements = [_instance_elements(*args) for args in zip(dims, counts, haar, unitaries, raw)]
    flags = [
        _povm_flags(stack, c, [True if h else None for h in flagged.tolist()])
        for stack, c, flagged in zip(elements, counts, haar)
    ]
    priors = _segments(priors, [int(n.sum()) for n in sizes])
    fields = zip(states, eigenvalues, priors, sizes, elements, counts, flags)
    return [_Group(*parts) for parts in fields]


def _dimension_states(dim: int, specs, draws):
    """The member states of one dimension's specs from their draws, each
    kind's as one stack: one stacked QR for the Haar unitaries, one stacked
    ``g g+`` for the Wishart draws (mixed states and raw elements), then
    ``_instance_states``, and one stacked density check of the states.
    Returns the specs' sizes, counts and Haar flags, the Haar unitaries (or
    ``None``), the raw elements' Wishart products, the states and their
    eigenvalues."""
    sizes = np.array([spec[1] for spec in specs])
    counts = np.array([spec[2] for spec in specs])
    kinds = np.array([spec[3] for spec in specs])
    haar = np.array([draw[2] is not None for draw in draws])

    def joined(part, chosen):
        """One array of the chosen specs' draws of one part, or ``None``."""
        found = [draw[part] for draw, keep in zip(draws, chosen) if keep]
        return np.concatenate(found) if found else None

    unitaries = _haar_unitaries(_complex_gaussians(joined(2, haar))) if haar.any() else None
    # the mixed states' Gaussian matrices, then the raw elements': one g g+
    gaussians = [g for g in (joined(1, kinds == "mixed"), joined(3, ~haar)) if g is not None]
    wishart = np.empty((0,))
    if gaussians:
        g = _complex_gaussians(np.concatenate(gaussians))
        wishart = g @ g.conj().transpose(0, 2, 1)
    n_mixed = int(sizes[kinds == "mixed"].sum())
    commuting = kinds == "commuting"
    states = _instance_states(
        dim,
        kinds,
        sizes,
        joined(1, kinds == "pure"),
        wishart[:n_mixed],
        joined(1, commuting),
        unitaries[(np.cumsum(haar) - 1)[commuting]] if commuting.any() else None,
    )
    eigenvalues = _density_eigenvalues(states)
    return sizes, counts, haar, unitaries, wishart[n_mixed:], states, eigenvalues


def _instance_states(dim, kinds, sizes, kets, mixed, diags, unitaries) -> np.ndarray:
    """The member states of every drawn instance, in spec order, each
    kind's as one stack: the pure kets' complex Gaussians (``kets``, raw
    normals) normalised and outer-multiplied; the ``mixed`` Wishart
    products over their traces; and the commuting states' Dirichlet
    diagonals (``diags``, raw exponentials) conjugated by their instance's
    one of ``unitaries``."""
    kind_of_row = np.repeat(kinds, sizes)
    states = np.empty((len(kind_of_row), dim, dim), dtype=complex)
    if kets is not None:
        kets = _complex_gaussians(kets)
        re, im = kets.real, kets.imag
        # np.linalg.norm's arithmetic for one ket (two dot products), stacked
        norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])
        kets = kets / norms[:, 0]
        states[kind_of_row == "pure"] = kets[:, :, None] * kets.conj()[:, None, :]
    if len(mixed):
        traces = np.trace(mixed, axis1=1, axis2=2).real
        states[kind_of_row == "mixed"] = mixed / traces[:, None, None]
    if diags is not None:
        diags = _dirichlet_rows(diags.reshape(-1), np.full(len(diags), dim)).reshape(-1, dim)
        u = np.repeat(unitaries, sizes[kinds == "commuting"], axis=0)
        states[kind_of_row == "commuting"] = (u * diags[:, None, :]) @ u.conj().transpose(0, 2, 1)
    return states


def _instance_elements(dim, counts, haar, unitaries, raw) -> np.ndarray:
    """The measurement elements of every drawn instance of one dimension,
    in spec order: the column-block projectors of the (checked) Haar
    unitaries of the instances flagged in ``haar``, built once per outcome
    count; and the raw PSD elements ``raw`` (Wishart products, in spec
    order) normalized to resolve the identity with one stacked
    ``psd_function``."""
    offsets = np.cumsum(counts) - counts
    elements = np.empty((counts.sum(), dim, dim), dtype=complex)
    if haar.any():
        for m in sorted(set(counts[haar].tolist())):
            group = counts[haar] == m
            rows = offsets[haar][group][:, None] + np.arange(m)
            elements[rows] = _block_projectors(unitaries[group], _column_blocks(dim, m))
    if not haar.all():
        rows = np.repeat(~haar, counts)
        # each measurement's element sum, added in the order sum() adds them
        totals = _ordered_sums(raw, counts[~haar])
        inv_roots = np.repeat(
            _psd_function_stack(totals, _inverse_root, pseudo=True), counts[~haar], axis=0
        )
        elements[rows] = inv_roots @ raw @ inv_roots
    return elements
