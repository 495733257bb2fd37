"""Every reported number from its definition, for the tests to check the
package against.

Nothing here reads the package: ``tests/test_oracle.py`` fails on an import
other than ``math`` and ``numpy``.  The inputs are plain arrays: priors, the
member density matrices and the measurement elements.

- The joint table is a double loop of p_i tr(E_j rho_i).
- I(A:B) = sum_ij p(i, j) log2(p(i, j) / (p_i q_j)), with ``math.log2``,
  the marginals being the table's row and column sums.
- chi = S(rho) - sum_i p_i S(rho_i), with rho = sum_i p_i rho_i.
- delta_s = S(sigma) - S(rho), where sigma is the explicit (d m)-dimensional
  record state sum_j sqrt(E_j) rho sqrt(E_j) (x) |j><j|, built whatever the
  measurement; for projectors its spectrum is that of the dephased state.
- holevo_slack = chi - I and thermo_slack = chi - I + delta_s.
- cycle_net is the engine cycle's net work, booked as the paper books it:
  every move of the gas is an isothermal move of a fraction f of it from
  volume v to volume v', worth f log2(v' / v) bits, and the net is the sum
  of the moves of the cycle's three legs (``cycle_moves``).  It never reads
  I, chi or delta_s.

Spectra come from numpy's ``eigvalsh`` and square roots from its ``eigh``;
every sum of scalars is ``math.fsum``.
"""
import math

import numpy as np


def entropy(values) -> float:
    """-sum w log2 w over the entries above zero, in bits."""
    return -math.fsum(w * math.log2(w) for w in values if w > 0.0)


def von_neumann(matrix) -> float:
    """S(rho) = -tr rho log2 rho from numpy's eigenvalues."""
    return entropy(np.linalg.eigvalsh(matrix).tolist())


def joint_table(priors, states, elements) -> list[list[float]]:
    """p(i, j) = p_i tr(E_j rho_i), one trace per (state, element)."""
    return [[p * np.trace(el @ rho).real for el in elements] for p, rho in zip(priors, states)]


def mutual_information(table) -> float:
    """I(A:B) of a joint table, from its marginals."""
    rows = [math.fsum(row) for row in table]
    cols = [math.fsum(col) for col in zip(*table)]
    return math.fsum(
        pij * math.log2(pij / (rows[i] * cols[j]))
        for i, row in enumerate(table)
        for j, pij in enumerate(row)
        if pij > 0.0
    )


def average(priors, states) -> np.ndarray:
    """rho = sum_i p_i rho_i, one member at a time."""
    rho = np.zeros_like(states[0], dtype=complex)
    for p, s in zip(priors, states):
        rho = rho + p * s
    return rho


def holevo_chi(priors, states) -> float:
    """chi = S(rho) - sum_i p_i S(rho_i)."""
    members = math.fsum(p * von_neumann(s) for p, s in zip(priors, states))
    return von_neumann(average(priors, states)) - members


def psd_sqrt(matrix) -> np.ndarray:
    """The square root of a PSD matrix, its eigenvalues clipped at zero."""
    w, u = np.linalg.eigh(matrix)
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def record_state(rho, elements) -> np.ndarray:
    """sum_j sqrt(E_j) rho sqrt(E_j) (x) |j><j| on system (x) record, the
    record index the fast one: entry (a m + j, b m + j) is block j's (a, b)."""
    d, m = len(rho), len(elements)
    sigma = np.zeros((d * m, d * m), dtype=complex)
    for j, el in enumerate(elements):
        root = psd_sqrt(el)
        sigma[j::m, j::m] = root @ rho @ root
    return sigma


def delta_s(rho, elements) -> float:
    """S(record state) - S(rho)."""
    return von_neumann(record_state(rho, elements)) - von_neumann(rho)


def bounds(priors, states, elements) -> tuple[float, float, float]:
    """(I, chi, delta_s) of an ensemble and a measurement, delta_s of the
    ensemble's average state."""
    info = mutual_information(joint_table(priors, states, elements))
    return info, holevo_chi(priors, states), delta_s(average(priors, states), elements)


def cycle_moves(priors, states, elements) -> list[tuple[float, float, float]]:
    """Every (fraction, v_initial, v_final) move of the engine cycle, in a
    vessel of volume 1, for each weight above zero:
    1. extraction: preparation i's gas expands from its p_i slot to the
       vessel; then, inside outcome j's compartment of volume q_j, the gas
       of preparation i is sorted into its p(i, j) sub-volume;
    2. sigma -> rho: each eigencomponent c of the record state is
       compressed from the vessel into its c slot, and each eigencomponent
       lambda of rho expands from its slot back to the vessel;
    3. rho -> start: each component lambda is compressed into its slot
       again, and member i's component mu, p_i mu of the gas, expands
       from volume p_i mu to its member's compartment p_i."""
    table = joint_table(priors, states, elements)
    q = [math.fsum(col) for col in zip(*table)]
    rho = average(priors, states)
    sigma = np.linalg.eigvalsh(record_state(rho, elements)).tolist()
    lam = np.linalg.eigvalsh(rho).tolist()
    moves = [(p, p, 1.0) for p in priors if p > 0.0]
    moves += [(pij, q[j], pij) for row in table for j, pij in enumerate(row) if pij > 0.0]
    moves += [(c, 1.0, c) for c in sigma if c > 0.0]
    moves += [(w, w, 1.0) for w in lam if w > 0.0]
    moves += [(w, 1.0, w) for w in lam if w > 0.0]
    for p, s in zip(priors, states):
        moves += [(p * mu, p * mu, p) for mu in np.linalg.eigvalsh(s).tolist() if p * mu > 0.0]
    return moves


def cycle_net(priors, states, elements) -> float:
    """The net work of the engine cycle, in bits: the sum of its moves."""
    return math.fsum(f * math.log2(v1 / v0) for f, v0, v1 in cycle_moves(priors, states, elements))


def report(priors, states, elements) -> tuple[float, ...]:
    """(I, chi, delta_s, holevo_slack, thermo_slack, cycle_net), as a suite
    row reports them."""
    info, chi, ds = bounds(priors, states, elements)
    return info, chi, ds, chi - info, chi - info + ds, cycle_net(priors, states, elements)
