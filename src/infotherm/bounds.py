"""Accessible information against its entropic ceilings.

``evaluate_bounds`` checks a concrete (ensemble, measurement) pair against
both ceilings: the measurement-independent one (chi) and the looser one
that credits the measurement's own entropy production (chi + delta_s).
``maximize_accessible_information`` searches over measurements, and
``random_instance`` manufactures reproducible test cases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDimension, ValidationError
from .linops import BOUND_TOL, CONVERGENCE_TOL, _psd_function_stack, psd_function
from .measurement import (
    JointDistribution,
    Povm,
    _analyse,
    _basis_elements,
    _povms,
    mutual_information,
)
from .measurement import delta_s as measurement_delta_s  # noqa: F401 (read by bench/)
from .quantum import DensityMatrix, Ensemble, _density_matrices

#: The optimizer methods ``OptimizerConfig`` accepts.
METHODS = ("qubit_grid", "random_restart_ascent")
#: The largest ``grid_points``: the qubit lattice's memory grows as its square.
GRID_CAP = 1000
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
    a = _analyse(e, v)
    return _report(a.info, a.chi, a.delta_s)


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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.grid_points < 2:
            raise ValidationError("grid_points must be at least 2")
        if self.grid_points > GRID_CAP:
            raise ValidationError(f"grid_points allows at most the cap {GRID_CAP}")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.restarts < 1 or self.max_iterations < 1:
            raise ValidationError("restarts and max_iterations must be positive")
        if not (np.isfinite(self.convergence_tol) and self.convergence_tol > 0):
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
    POVM.  A step that loses information is retried with half the ``eps``;
    a restart ends when an accepted step gains less than
    ``convergence_tol`` or after ``max_iterations`` steps.  Restarts draw
    from one seeded generator and the best one wins.
    """
    rng = np.random.default_rng(cfg.seed)
    d, outcomes = e.dim, e.dim * e.dim
    probs = e.probs
    weighted = probs[:, None, None] * np.stack([s.matrix for s in e.states])

    def normalised(kets: np.ndarray) -> np.ndarray:
        s = kets @ kets.conj().T
        return psd_function(s, lambda x: 1.0 / np.sqrt(x), pseudo=True) @ kets

    def score(kets: np.ndarray) -> tuple[np.ndarray, float]:
        joint = JointDistribution(np.einsum("ak,iab,bk->ik", kets.conj(), weighted, kets).real)
        return joint.matrix, mutual_information(joint)

    best_kets = None
    best_value = -np.inf
    for _ in range(cfg.restarts):
        kets = normalised(
            rng.normal(size=(d, outcomes)) + 1j * rng.normal(size=(d, outcomes))
        )
        q, value = score(kets)
        eps = 1.0
        for _ in range(cfg.max_iterations):
            ratio = np.divide(
                q, probs[:, None] * q.sum(axis=0), out=np.ones_like(q), where=q > 0.0
            )
            r = np.einsum("ik,iab->kab", np.log2(ratio), weighted)
            trial = normalised(kets + eps * np.einsum("kab,bk->ak", r, kets))
            trial_q, trial_value = score(trial)
            if trial_value < value:
                eps *= 0.5
                continue
            gained = trial_value - value
            kets, q, value = trial, trial_q, trial_value
            if gained < cfg.convergence_tol:
                break
        if value > best_value:
            best_value = value
            best_kets = kets
    return Povm(tuple(np.outer(k, k.conj()) for k in best_kets.T))


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


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """A complex Gaussian array: its real part drawn first, then its imaginary part."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _haar_unitaries(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from a ``(K, d, d)`` stack of complex Gaussian
    matrices: the Q of each QR decomposition, with each column's phase
    fixed by R's diagonal."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def _column_blocks(dim: int, outcomes: int) -> list[list[int]]:
    return [list(chunk) for chunk in np.array_split(np.arange(dim), outcomes)]


def _draw_instance(dim: int, n_states: int, m_outcomes: int, kind: str, seed):
    """One instance's raw draws, in the order its generator yields them: the
    priors; a draw per state (a Dirichlet diagonal for ``commuting``, a
    complex Gaussian ket for ``pure``, a complex Gaussian matrix for
    ``mixed``); the Gaussian matrix of the Haar unitary whose column blocks
    make a projective basis, or ``None``; and the Gaussian matrices of the
    raw PSD elements, or ``None`` for a basis.  A commuting instance draws
    its unitary before its diagonals."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n_states))
    if kind == "commuting":
        unitary = _gaussian(rng, (dim, dim))
        return probs, [rng.dirichlet(np.ones(dim)) for _ in range(n_states)], unitary, None
    shape = (dim,) if kind == "pure" else (dim, dim)
    states = [_gaussian(rng, shape) for _ in range(n_states)]
    if m_outcomes <= dim and rng.random() < 0.5:
        return probs, states, _gaussian(rng, (dim, dim)), None
    return probs, states, None, [_gaussian(rng, (dim, dim)) for _ in range(m_outcomes)]


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
    random PSD elements normalized to resolve the identity.  This is the
    one-instance case of ``_random_instances``.
    """
    return _random_instances([(dim, n_states, m_outcomes, kind, seed)])[0]


def _random_instances(specs) -> list[tuple[Ensemble, Povm]]:
    """``random_instance(*spec)`` for each (dim, n_states, m_outcomes, kind,
    seed) spec, all of one dimension.  Each spec draws from its own
    generator, in spec order; then the linear algebra runs once for all of
    them: one stacked QR for the Haar unitaries, one stacked ``g g+`` for
    the Wishart draws (mixed states and raw elements), one stacked
    normalise-and-outer for the pure kets, one stacked conjugation for the
    commuting states.  The states get one stacked density check, the raw
    PSD elements one stacked ``psd_function`` normalization, and the
    measurements one stacked ``Povm`` check."""
    for dim, n_states, m_outcomes, kind, _ in specs:
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
    draws = [_draw_instance(*spec) for spec in specs]
    haar = [k for k, draw in enumerate(draws) if draw[2] is not None]
    unitaries = {}
    if haar:
        unitaries = dict(zip(haar, _haar_unitaries(np.stack([draws[k][2] for k in haar]))))
    mixed = [g for spec, draw in zip(specs, draws) if spec[3] == "mixed" for g in draw[1]]
    raw = [g for draw in draws if draw[3] is not None for g in draw[3]]
    wishart = np.empty((0,))
    if mixed or raw:
        g = np.stack(mixed + raw)
        wishart = g @ g.conj().transpose(0, 2, 1)

    states = _density_matrices(_instance_states(specs, draws, unitaries, wishart[: len(mixed)]))
    ensembles, offset = [], 0
    for probs, *_ in draws:
        ensembles.append(Ensemble(probs, states[offset:offset + len(probs)]))
        offset += len(probs)
    counts = [m_outcomes for _, _, m_outcomes, _, _ in specs]
    elements = _instance_elements(specs, counts, unitaries, wishart[len(mixed):])
    declared = [True if k in unitaries else None for k in range(len(specs))]
    return list(zip(ensembles, _povms(elements, counts, declared)))


def _instance_states(specs, draws, unitaries, mixed) -> np.ndarray:
    """The state matrices of every drawn instance, in spec order, from the
    raw draws, the Haar unitaries by spec index and the mixed states'
    Wishart products: each kind's states are built as one stack."""
    dim = specs[0][0]
    kind_of_row = np.repeat([spec[3] for spec in specs], [spec[1] for spec in specs])
    states = np.empty((len(kind_of_row), dim, dim), dtype=complex)
    kets = [x for spec, draw in zip(specs, draws) if spec[3] == "pure" for x in draw[1]]
    if kets:
        kets = np.stack(kets)
        re, im = kets.real, kets.imag
        # np.linalg.norm's arithmetic for one ket (two dot products), stacked
        norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])
        kets = kets / norms[:, 0]
        states[kind_of_row == "pure"] = kets[:, :, None] * kets.conj()[:, None, :]
    if len(mixed):
        traces = np.trace(mixed, axis1=1, axis2=2).real
        states[kind_of_row == "mixed"] = mixed / traces[:, None, None]
    commuting = [k for k, spec in enumerate(specs) if spec[3] == "commuting"]
    if commuting:
        u = np.repeat(
            np.stack([unitaries[k] for k in commuting]), [specs[k][1] for k in commuting], axis=0
        )
        diags = np.stack([x for k in commuting for x in draws[k][1]])
        states[kind_of_row == "commuting"] = (u * diags[:, None, :]) @ u.conj().transpose(0, 2, 1)
    return states


def _instance_elements(specs, counts, unitaries, raw) -> np.ndarray:
    """The measurement elements of every drawn instance, in spec order: the
    column-block projectors of each Haar unitary, and the raw PSD elements
    ``raw`` (Wishart products, in spec order) normalized to resolve the
    identity with one stacked ``psd_function``."""
    dim = specs[0][0]
    offsets = np.cumsum(counts) - counts
    elements = np.empty((sum(counts), dim, dim), dtype=complex)
    for k, u in unitaries.items():
        elements[offsets[k]:offsets[k] + counts[k]] = _basis_elements(
            u, _column_blocks(dim, counts[k])
        )
    general = [k for k in range(len(specs)) if k not in unitaries]
    if general:
        rows = np.concatenate([np.arange(offsets[k], offsets[k] + counts[k]) for k in general])
        elements[rows] = raw
        ms = np.array([counts[k] for k in general])
        # each measurement's element sum, added in the order sum() adds them
        totals = np.zeros((len(general), dim, dim), dtype=complex)
        for j in range(ms.max()):
            has = ms > j
            totals[has] += elements[offsets[general][has] + j]
        inv_roots = np.repeat(
            _psd_function_stack(totals, lambda x: 1.0 / np.sqrt(x), pseudo=True), ms, axis=0
        )
        elements[rows] = inv_roots @ elements[rows] @ inv_roots
    return elements
