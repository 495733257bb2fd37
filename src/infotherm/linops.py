"""Dense complex linear algebra shared by every other module.

Everything downstream (states, measurements, bounds, ledgers) funnels its
matrix work through the three operations here, so tolerances and phase
conventions are decided once, in this file: the table below holds every
threshold that a check anywhere in the package compares against.

Each check is written once, in its stacked form: it flags every item of a
stack, and ``_raise_first_failure`` raises for the lowest failing item.  A
call on one item, such as ``psd_function`` or ``hermitian_eig``, is the
stack of one.
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

_umath_linalg = getattr(np.linalg, "_umath_linalg", None)  # np.linalg.eigh's solvers, if present


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


def _require_int(name: str, value) -> None:
    """Raise ``ValidationError`` unless ``value`` is an int, numpy's too, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


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


def _placed(checks, positions: np.ndarray, size: int) -> list:
    """The checks of a stack whose item i is item ``positions[i]``
    (ascending) of a stack of ``size`` items, as checks of the larger
    stack, so that checks of several such parts run as one."""
    placed = []
    for bad, error in checks:
        mask = np.zeros(size, dtype=bool)
        mask[positions[: len(bad)]] = bad
        placed.append((mask, lambda k, error=error: error(int(np.searchsorted(positions, k)))))
    return placed


def _segments(a, counts) -> list:
    """Consecutive slices of ``a`` along its first axis, of ``counts`` items
    each: views of an array, or slices of a list or tuple."""
    ends = list(itertools.accumulate(counts))
    return [a[end - count:end] for count, end in zip(counts, ends)]


def _local_index(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For consecutive segments of ``lengths`` items, each item's segment
    and its index within it."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    return owner, np.arange(owner.size) - (np.cumsum(lengths) - lengths)[owner]


def _ordered_sums(items: np.ndarray, lengths) -> np.ndarray:
    """The sum of each consecutive segment of ``items`` along its first
    axis, of ``lengths`` items each, added in order from +0, as a loop adds
    them and as numpy adds a stack of matrices along its first axis.  The
    segments are laid out as rows of one length (zero-padded unless they
    already share it) and summed by one ``np.add.accumulate`` along the
    rows, plus +0: a sum begun at the first item differs from one begun at
    +0 only by a -0 result, which the +0 turns into +0, and a trailing +0
    changes no other sum."""
    lengths = np.asarray(lengths)
    width = max(int(lengths.max(initial=0)), 1)
    # the segments share the length ``width`` if and only if they fill K rows of it
    if len(items) == len(lengths) * width:
        padded = items.reshape((len(lengths), width) + items.shape[1:])
    else:
        owner, local = _local_index(lengths)
        padded = np.zeros((len(lengths), width) + items.shape[1:], dtype=items.dtype)
        padded[owner, local] = items
    return np.add.accumulate(padded, axis=1)[:, -1] + 0.0


def _row_sums(a: np.ndarray) -> np.ndarray:
    """The sum of each row of a 2-D float array with at least one column,
    added in order from +0, to ``_ordered_sums``' bits; a column's sums are
    the row sums of the transpose."""
    return np.add.accumulate(a, axis=1)[:, -1] + 0.0


def _eigh(stack: np.ndarray, checked: bool = True):
    """Eigenvalues (ascending) and eigenvectors of each matrix of a finite
    (..., d, d) array, with the solver's own phases; a solver failure
    raises ``NumericalFailure``.  Unchecked, numpy's solver is called without
    ``np.linalg.eigh`` where numpy has it (2.6 against 5.6 us at d = 2): a
    failure only sets the invalid flag, and over, divide and under are not
    masked as the wrapper masks them."""
    if not checked and hasattr(_umath_linalg, "eigh_lo"):
        return _umath_linalg.eigh_lo(stack)
    try:
        return np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc


def _decomposition_checks(stack: np.ndarray, w: np.ndarray, v: np.ndarray):
    """The hermiticity and reconstruction checks of the eigenvalues ``w``
    and eigenvectors ``v`` of each matrix of a (B, d, d) stack, for
    ``_raise_first_failure``."""
    asym = _asymmetry(stack)
    # Postcondition check, its absolute tolerance scaled up for entries far
    # above unit size; a scale is at least 1, so only a residual past the
    # bare tolerance needs one.
    reconstructed = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    residual = np.abs(reconstructed - stack).max(axis=(-2, -1))
    inexact = residual > RECONSTRUCTION_TOL
    if np.count_nonzero(inexact):
        scale = np.maximum(1.0, np.abs(stack).max(axis=(-2, -1)))
        inexact &= residual > RECONSTRUCTION_TOL * scale
    return [
        (
            asym > HERMITICITY_TOL,
            lambda k: NotHermitian(
                f"matrix deviates from Hermitian by {asym[k]:.3e} "
                f"(tolerance {HERMITICITY_TOL:.1e})"
            ),
        ),
        (
            inexact,
            lambda k: NumericalFailure("eigendecomposition failed reconstruction check"),
        ),
    ]


def _eigenvalue_floor_check(w: np.ndarray):
    """The check that no eigenvalue of ``w`` (ascending, (B, d)) lies
    below -PSD_TOL, as ``_decomposition_checks`` gives its checks."""
    lowest = w[..., 0]
    return (
        lowest < -PSD_TOL,
        lambda k: NegativeEigenvalue(
            f"matrix has eigenvalue {lowest[k]:.3e} below -{PSD_TOL:.1e}"
        ),
    )


def _finite_function_check(fw: np.ndarray):
    """The check that a function of the eigenvalues, ``fw`` ((B, d)),
    came out finite, as ``_decomposition_checks`` gives its checks."""
    return (
        ~np.logical_and.reduce(np.isfinite(fw), axis=-1),
        lambda k: NumericalFailure("function produced non-finite eigenvalues"),
    )


def hermitian_eig(m) -> HermitianEigen:
    """Full eigendecomposition of a Hermitian matrix.

    Wraps a guaranteed-convergent dense Hermitian solver and then enforces
    the package conventions: ascending eigenvalues, the phase rule above,
    and a reconstruction check so a silently wrong decomposition can never
    leak downstream.
    """
    a = as_complex_matrix(m)[None]
    w, v = _eigh(a)
    _raise_first_failure(_decomposition_checks(a, w, v))
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
    inverse square root used by the measurement code is built.  ``f`` must
    act elementwise; it sees one 1-D array of eigenvalues.  The
    eigenvectors never leave this function, so their phases are not fixed.
    This is the one-matrix case of ``_psd_function_stack``.
    """
    return _psd_function_stack(as_complex_matrix(m)[None], f, pseudo)[0]


def _eigenvalue_function(w: np.ndarray, f: Callable, pseudo: bool, skip=None) -> np.ndarray:
    """``f`` of the eigenvalues ``w`` (any shape) clipped at zero, as
    ``psd_function`` applies it: with ``pseudo``, zero on the kernel, and
    zero where ``skip`` (bools like ``w``) flags an item that already
    failed.  ``f`` is called once, on ``w`` or on the entries kept."""
    w = np.maximum(w, 0.0)
    drop = skip
    if pseudo:
        kernel = w <= PSD_EPSILON
        drop = kernel if skip is None else kernel | skip
    if drop is None or not np.count_nonzero(drop):
        return np.asarray(f(w), dtype=float)
    keep = ~drop
    fw = np.zeros(w.shape)
    if np.count_nonzero(keep):
        fw[keep] = np.asarray(f(w[keep]), dtype=float)
    return fw


def _psd_function_stack(stack: np.ndarray, f: Callable, pseudo: bool = False) -> np.ndarray:
    """``psd_function`` of each matrix of a finite complex (B, d, d) stack,
    with one batched eigensolve.  The lowest-index item that fails a check
    raises the error ``psd_function`` raises for it alone; ``f`` never
    sees the eigenvalues of an item that failed the checks before it."""
    return _spectral_function(*_eigh_checks(stack), f, pseudo)


def _eigh_checks(stack: np.ndarray):
    """The eigenvalues (B, d) and eigenvectors (B, d, d) of each matrix of
    a finite complex (B, d, d) stack, from one batched eigensolve, and the
    decomposition and eigenvalue floor checks ``psd_function`` runs on
    them, for ``_spectral_function``."""
    w, v = _eigh(stack)
    return w, v, _decomposition_checks(stack, w, v) + [_eigenvalue_floor_check(w)]


def _spectral_function(w: np.ndarray, v: np.ndarray, checks, f: Callable, pseudo: bool):
    """``f`` of each matrix whose eigenvalues and eigenvectors are ``w`` and
    ``v``, as ``psd_function`` applies it, once the matrices have passed
    ``checks`` (from ``_eigh_checks``) and f(w) has come out finite.  The
    lowest-index failing matrix raises what ``psd_function`` raises for it
    alone; ``f`` never sees the eigenvalues of a matrix that failed
    ``checks``."""
    failed = [bad for bad, _ in checks if np.count_nonzero(bad)]
    skip = np.repeat(np.logical_or.reduce(failed), w.shape[1]) if failed else None
    fw = _eigenvalue_function(w.reshape(-1), f, pseudo, skip).reshape(w.shape)
    checks = checks + [_finite_function_check(fw)]
    if failed or np.count_nonzero(checks[-1][0]):
        _raise_first_failure(checks)
    return (v * fw[:, None, :]) @ v.conj().swapaxes(1, 2)
