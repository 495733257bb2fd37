"""Shared fixtures and frozen reference values.

The constants below were recomputed from closed forms with an independent
scalar script before any library code existed, then frozen here:

    b(x)  = -x log2 x - (1-x) log2 (1-x)
    chi   = b((1 + 1/sqrt 2)/2)          for the |0>,|+> equal-prior pair
    I     = b(3/4) - 1/2                 measured in the computational basis
    I_opt = 1 - b((1 + 1/sqrt 2)/2)      at the optimal (Helstrom) basis
"""
import numpy as np
import pytest

import infotherm as it
from infotherm import measurement

CHI_TWO_STATE = 0.6008760366928562
H_THREE_QUARTERS = 0.8112781244591328
INFO_COMPUTATIONAL = 0.3112781244591328
DS_COMPUTATIONAL = 0.2104020877662767
INFO_HELSTROM = 0.3991239633071438
DS_HELSTROM = 0.3991239633071438
P_HELSTROM_CORRECT = 0.8535533905932737
NET_COMPUTATIONAL = -0.5
NET_HELSTROM = -0.6008760366928562


def in_order(values):
    """The floats of ``values`` added left to right from +0: a reference
    sum that numpy's pairwise ``sum`` and Python's compensated ``sum()``
    (3.12 on) are not."""
    total = 0.0
    for x in values:
        total += x
    return total


def analyse(pairs):
    """``measurement._analyse_groups`` of the pairs as one group, as the
    one-pair callers analyse a pair."""
    return measurement._analyse_groups([measurement._group(pairs)])


def joint_distributions(g):
    """``measurement._joint_distributions`` of one group."""
    return measurement._joint_distributions([g], g.sizes, g.counts, g.priors)


def count_eighs(monkeypatch, name="eigh", owner=np.linalg):
    """Wrap ``np.linalg.eigh``, or the solver ``name`` of ``owner``; returns
    the list that grows by one entry a call."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def mixed_kind_instances(count):
    """``count`` seeded random instances of every kind, d in {2, 3, 4}."""
    found = []
    for seed in range(count):
        kind = ("pure", "mixed", "commuting")[seed % 3]
        dim = 2 + (seed // 3) % 3
        if kind == "commuting":
            m = 2 + (seed // 9) % (dim - 1)
        else:
            m = 2 + seed % 5
        found.append((seed, *it.random_instance(dim, 2 + seed % 3, m, kind, seed)))
    return found


@pytest.fixture
def two_state_ensemble():
    """|0> and |+> with equal priors."""
    return it.Ensemble(
        [0.5, 0.5], (it.pure_state([1.0, 0.0]), it.pure_state([1.0, 1.0]))
    )


@pytest.fixture
def orthogonal_ensemble():
    """|0> and |1> with equal priors: a classical bit."""
    return it.Ensemble(
        [0.5, 0.5], (it.pure_state([1.0, 0.0]), it.pure_state([0.0, 1.0]))
    )


@pytest.fixture
def computational_basis():
    return it.basis_measurement(np.eye(2))


@pytest.fixture
def helstrom_basis():
    """Projective basis along the Bloch axis (-1, 0, 1)/sqrt(2)."""
    theta, phi = np.pi / 4, np.pi
    e1 = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    e2 = np.array([np.sin(theta / 2), -np.exp(1j * phi) * np.cos(theta / 2)])
    return it.Povm((np.outer(e1, e1.conj()), np.outer(e2, e2.conj())))
