"""Dense complex linear algebra shared by every other module.

Everything downstream (states, measurements, bounds, ledgers) funnels its
matrix work through the three operations here, so tolerances and phase
conventions are decided once, in this file: the table below holds every
threshold that a check anywhere in the package compares against.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    NegativeEigenvalue,
    NotHermitian,
    NumericalFailure,
    ValidationError,
)

# Every threshold that a check in the package compares against, in one
# table; "max |X|" is the largest absolute entry of a residual matrix X.
HERMITICITY_TOL = 1e-9  # max |M - M+|
PSD_TOL = 1e-9  # eigenvalues >= -PSD_TOL pass: states, POVM elements, psd_function
PSD_EPSILON = 1e-12  # eigenvalues at or below this count as the kernel
RECONSTRUCTION_TOL = 1e-10  # max |V diag(w) V+ - M|, per unit of max |M|
TRACE_TOL = 1e-9  # |tr rho - 1| and |sum_i p_i - 1|
PROB_CLIP = 1e-12  # probabilities in [-PROB_CLIP, 0) are clipped to zero
POVM_SUM_TOL = 1e-8  # max |sum_j E_j - I|
PROJECTIVE_TOL = 1e-8  # max |E_j E_k - delta_jk E_j|
UNITARY_TOL = 1e-8  # max |U+ U - I| of a given basis
DILATION_TOL = 1e-9  # Naimark V+ V = I; reset U U+ = I and its sigma (x) |0><0|
COMMUTATOR_TOL = 1e-9  # max |rho_i rho_j - rho_j rho_i|
JOINT_BASIS_TOL = 1e-7  # off-diagonal max |B+ rho_i B| of a shared eigenbasis
BOUND_TOL = 1e-9  # slack of I <= chi (+ delta_s), per-letter I <= chi, delta_s >= 0
CYCLE_TOL = 1e-9  # net cycle work above this violates the second law
WEIGHT_FLOOR = 1e-15  # spectrum weights at or below this get no ledger entry
CONVERGENCE_TOL = 1e-7  # default ascent gain below which a restart stops


def as_complex_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a square complex ndarray, validating shape and finiteness."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValidationError("empty matrix")
    _require_finite(a)
    return a


def _require_finite(a: np.ndarray) -> None:
    """Raise for an array with a non-finite entry, as ``as_complex_matrix``
    does."""
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")


def max_abs(a) -> float:
    """Largest absolute entry of an array (0 for an empty array)."""
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def is_hermitian(m) -> bool:
    m = np.asarray(m, dtype=complex)
    return max_abs(m - m.conj().T) <= HERMITICITY_TOL


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns, each rotated so that its
    largest-magnitude component is real and positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-|entry| component is real positive.

    Ties go to the first index (np.argmax), which keeps the output
    deterministic for identical input.
    """
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        mag = abs(pivot)
        if mag > 0.0:
            out[:, k] = col * (pivot.conjugate() / mag)
    return out


def _asymmetry(stack: np.ndarray) -> np.ndarray:
    """max |M - M+| of each matrix of a (..., d, d) array, with one
    array-sized temporary: ``np.conjugate`` copies a real array too, where
    its ``conj`` method would hand back the array for the subtraction to
    overwrite."""
    diff = np.conjugate(stack).swapaxes(-1, -2)
    np.subtract(stack, diff, out=diff)
    return np.abs(diff).max(axis=(-2, -1))


def _raise_first_failure(checks) -> None:
    """Raise for the lowest-index item of a stack that fails a check.

    ``checks`` lists (per-item failure mask, item -> exception) in the order
    a single item runs them, so the item named is the one a loop over the
    stack would have stopped at, with the error that loop would have raised.
    A mask shorter than the stack has not been checked for the items past
    its end.
    """
    failed = [bad for bad, _ in checks if np.count_nonzero(bad)]
    if failed:
        k = min(int(np.argmax(bad)) for bad in failed)
        for bad, error in checks:
            if k < len(bad) and bad[k]:
                raise error(k)


def _raise_failure(checks) -> None:
    """``_raise_first_failure`` for one item, whose checks hold 0-d flags
    and values: the first failing check raises."""
    for bad, error in checks:
        if bad:
            raise error(())


def _segments(a, counts) -> list:
    """Consecutive slices of ``a`` along its first axis, of ``counts`` items
    each: views of an array, or slices of a list or tuple."""
    ends = list(itertools.accumulate(counts))
    return [a[end - count:end] for count, end in zip(counts, ends)]


def _eigh(stack: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of each matrix of a finite
    (..., d, d) array, with the solver's own phases; a solver failure
    raises ``NumericalFailure``."""
    try:
        return np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc


def _eigh_checks(stack: np.ndarray):
    """``_eigh`` of a finite (..., d, d) array with ``_decomposition_checks``
    of it."""
    w, v = _eigh(stack)
    return w, v, _decomposition_checks(stack, w, v)


def _decomposition_checks(stack: np.ndarray, w: np.ndarray, v: np.ndarray):
    """The hermiticity and reconstruction checks of the eigenvalues ``w``
    and eigenvectors ``v`` of each matrix of a (..., d, d) array: for
    ``_raise_first_failure`` on a (B, d, d) stack, for ``_raise_failure``
    on one (d, d) matrix."""
    asym = _asymmetry(stack)
    # Postcondition check; the tolerance is absolute, so scale it for
    # matrices with entries far above unit size.
    scale = np.maximum(1.0, np.abs(stack).max(axis=(-2, -1)))
    reconstructed = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    residual = np.abs(reconstructed - stack).max(axis=(-2, -1))
    return [
        (
            asym > HERMITICITY_TOL,
            lambda k: NotHermitian(
                f"matrix deviates from Hermitian by {asym[k]:.3e} "
                f"(tolerance {HERMITICITY_TOL:.1e})"
            ),
        ),
        (
            residual > RECONSTRUCTION_TOL * scale,
            lambda k: NumericalFailure("eigendecomposition failed reconstruction check"),
        ),
    ]


def _eigenvalue_floor_check(w: np.ndarray):
    """The check that no eigenvalue of ``w`` (ascending, (..., d)) lies
    below -PSD_TOL, as ``_eigh_checks`` gives its checks."""
    lowest = w[..., 0]
    return (
        lowest < -PSD_TOL,
        lambda k: NegativeEigenvalue(
            f"matrix has eigenvalue {lowest[k]:.3e} below -{PSD_TOL:.1e}"
        ),
    )


def _finite_function_check(fw: np.ndarray):
    """The check that a function of the eigenvalues, ``fw`` ((..., d)),
    came out finite, as ``_eigh_checks`` gives its checks."""
    return (
        ~np.isfinite(fw).all(axis=-1),
        lambda k: NumericalFailure("function produced non-finite eigenvalues"),
    )


def hermitian_eig(m) -> HermitianEigen:
    """Full eigendecomposition of a Hermitian matrix.

    Wraps a guaranteed-convergent dense Hermitian solver and then enforces
    the package conventions: ascending eigenvalues, the phase rule above,
    and a reconstruction check so a silently wrong decomposition can never
    leak downstream.
    """
    w, v, checks = _eigh_checks(as_complex_matrix(m)[None])
    _raise_first_failure(checks)
    return HermitianEigen(w[0], _fix_phases(v[0]))


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the first factor on the slow (outer) index.

    Entry ((i*db + k), (j*db + l)) equals a[i, j] * b[k, l].
    """
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    return np.kron(a, b)


def psd_function(m, f: Callable, pseudo: bool = False) -> np.ndarray:
    """Apply a scalar function to a positive semidefinite matrix.

    Eigenvalues in [-PSD_TOL, 0) are clipped to zero before ``f`` is
    applied; anything more negative raises ``NegativeEigenvalue``.  With
    ``pseudo=True`` the function only acts on the support (eigenvalues above
    ``PSD_EPSILON``) and the kernel maps to zero, which is how the pseudo
    inverse square root used by the measurement code is built.  The
    eigenvectors never leave this function, so their phases are not fixed.
    ``_psd_function_stack`` gives each matrix of a stack these bits.
    """
    a = as_complex_matrix(m)
    w, v, checks = _eigh_checks(a)
    checks.append(_eigenvalue_floor_check(w))
    _raise_failure(checks)
    fw = _eigenvalue_function(w, f, pseudo)
    _raise_failure([_finite_function_check(fw)])
    return (v * fw) @ v.conj().T


def _eigenvalue_function(w: np.ndarray, f: Callable, pseudo: bool) -> np.ndarray:
    """``f`` of the eigenvalues ``w`` (one matrix's, (d,)) clipped at zero,
    as ``psd_function`` applies it: with ``pseudo``, only on the support,
    and zero on the kernel."""
    w = np.maximum(w, 0.0)
    if not pseudo:
        return np.asarray(f(w), dtype=float)
    mask = w > PSD_EPSILON
    support = np.count_nonzero(mask)
    if support == len(w):  # the support is the whole spectrum: f(w) is f(w[mask])
        return np.asarray(f(w), dtype=float)
    fw = np.zeros(w.shape)
    if support:
        fw[mask] = np.asarray(f(w[mask]), dtype=float)
    return fw


def _psd_function_stack(stack: np.ndarray, f: Callable, pseudo: bool = False) -> np.ndarray:
    """``psd_function`` of each matrix of a finite complex (B, d, d) stack,
    to the last bit, with one batched eigensolve.  ``f`` must act
    elementwise.  The lowest-index item that fails a check raises the error
    ``psd_function`` raises for it alone."""
    w, v, checks = _eigh_checks(stack)
    checks.append(_eigenvalue_floor_check(w))
    w = np.maximum(w, 0.0)
    fw = np.zeros_like(w)
    mask = (w > PSD_EPSILON) if pseudo else np.ones_like(w, dtype=bool)
    failed = [bad for bad, _ in checks if np.count_nonzero(bad)]
    if failed:
        # f only sees the items that passed the checks so far, as in the
        # one-matrix case, where a failed check raises before f runs.
        mask &= ~np.logical_or.reduce(failed)[:, None]
    if np.any(mask):
        fw[mask] = np.asarray(f(w[mask]), dtype=float)
    finite = _finite_function_check(fw)
    if failed or np.count_nonzero(finite[0]):
        _raise_first_failure(checks + [finite])
    return (v * fw[:, None, :]) @ v.conj().swapaxes(1, 2)
