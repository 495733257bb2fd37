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
