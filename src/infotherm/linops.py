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

import functools
import itertools
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

# numpy's C entry points under np.linalg.eigh and eigvalsh (``_solve``),
# np.linalg.cholesky (``_cholesky``) and, where numpy has them (numpy 1.x
# has no ``qr_r_raw`` and no ``np._core``), under np.linalg.qr (``_qr``)
# and np.einsum, called without their Python wrappers: the same loops, so
# the same bits
_umath_linalg = np.linalg._umath_linalg
_multiarray_umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
_einsum = getattr(_multiarray_umath, "c_einsum", np.einsum)


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


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass's ``__init__`` sets its attributes with ``_assign``, and
    ``_fields`` names, in order, the ones that ``repr``, ``==`` and ``hash``
    read.  Two instances are equal when they are of one class and their
    field tuples are equal, so an array field of more than one entry makes
    ``==`` raise unless both hold the same array; ``hash`` is the field
    tuple's, and raises on an array field.  Every assignment and deletion
    raises ``AttributeError``.  An instance pickles as its class called on
    its field values (``_fields`` names its parameters, in order).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, **values) -> None:
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class HermitianEigen(_Frozen):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns, each rotated so that its
    largest-magnitude component is real and positive.  Both are read-only
    copies of the arrays given, so ``reconstruct`` reads what was given.
    """

    _fields = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        w, v = np.array(eigenvalues), np.array(eigenvectors)
        w.setflags(write=False)
        v.setflags(write=False)
        self._assign(eigenvalues=w, eigenvectors=v)

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


def _nonconvergence(*args):
    """Raise for an eigensolve that did not converge: numpy's error callback
    in ``_checked``, and ``_convergence_check``'s error for an item."""
    raise NumericalFailure("eigendecomposition failed: Eigenvalues did not converge")


@np.errstate(call=_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore")
def _checked(solver, stack: np.ndarray):
    """``solver(stack)`` under the error state ``np.linalg.eigh`` sets
    around it, whatever the caller's: a failure raises ``NumericalFailure``."""
    return solver(stack)


def _solve(name: str, stack: np.ndarray, checked: bool = True):
    """``np.linalg.<name>`` of a complex or float64 stack, from numpy's
    solver ``<name>_lo`` (looked up on numpy's module at each call) without
    the wrapper: the loop the wrapper picks for the dtype, under
    ``_checked``.  Unchecked, a failure only sets the invalid flag and
    returns NaNs, which ``_convergence_check`` reads."""
    solver = getattr(_umath_linalg, name + "_lo")
    return _checked(solver, stack) if checked else solver(stack)


#: Eigenvalues (ascending) and eigenvectors, with the solver's own phases,
#: and eigenvalues alone, of each matrix of a finite (..., d, d) array, by
#: ``_solve``: 3.5 and 2.7 us for one matrix at d = 2 (2.5 unchecked),
#: where np.linalg.eigh and eigvalsh take 6.1 and 4.9 (timeit, one Xeon core).
_eigh = functools.partial(_solve, "eigh")
_eigvalsh = functools.partial(_solve, "eigvalsh")


@np.errstate(invalid="ignore")
def _cholesky(stack: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of each matrix of a complex (B, d, d)
    stack, as np.linalg.cholesky gives it, from numpy's ``cholesky_lo``
    (looked up at each call) without the wrapper.  numpy's invalid flag is
    ignored whatever the caller's settings, so a matrix that is not
    numerically positive definite comes back as NaNs and nothing raises.
    Like ``eigvalsh``, it reads each matrix's lower triangle and the real
    part of its diagonal."""
    return _umath_linalg.cholesky_lo(stack)


def _qr_failure(*args):
    """numpy's error callback in ``_qr``."""
    raise NumericalFailure("QR factorization failed")


@np.errstate(call=_qr_failure, invalid="call", over="ignore", divide="ignore", under="ignore")
def _qr(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Q of each matrix of a complex (K, d, d) stack and the diagonal
    of its R, as ``np.linalg.qr`` gives them, from numpy's ``qr_r_raw`` and
    ``qr_reduced`` (looked up at each call) without the wrapper, under the
    error state it sets: ``qr_r_raw`` writes R and the Householder vectors
    over a copy of the stack, and ``qr_reduced`` forms Q from them.  numpy
    1.x has no ``qr_r_raw`` (its wrapper picks ``qr_r_raw_m`` or ``_n``),
    so there ``np.linalg.qr`` itself runs, with the same bits."""
    qr_r_raw = getattr(_umath_linalg, "qr_r_raw", None)
    if qr_r_raw is None:
        q, r = np.linalg.qr(stack)
        return q, np.diagonal(r, axis1=-2, axis2=-1)
    a = stack.copy()
    tau = qr_r_raw(a)
    return _umath_linalg.qr_reduced(a, tau), np.diagonal(a, axis1=-2, axis2=-1)


def _floor_certified(stack: np.ndarray) -> np.ndarray:
    """Which matrices of a finite complex (B, d, d) stack one stacked
    Cholesky factorisation shows to pass ``_eigenvalue_floor_check`` as an
    ``_eigvalsh`` of them would: no eigenvalue below -PSD_TOL.  Only the
    others need that eigensolve.

    Matrix M is certified when the factorisation of A = M + (PSD_TOL/2) I
    completes, with factor L, and d^2 ||L||_F^2 <= PSD_TOL / (32 u), where
    u = 2^-53 is the unit roundoff.  The rounding bound behind it:
    - a factorisation that completes gives L L+ = A + dA with
      ||dA||_2 <= c (d + 1) u ||L||_F^2 (Higham, Accuracy and Stability of
      Numerical Algorithms, 2nd ed., Thm 10.3; c is a small constant for
      complex arithmetic), and forming A rounds its diagonal by at most
      u ||L||_F^2, so M's lowest eigenvalue is at least
      -PSD_TOL/2 - (c (d + 1) + 1) u ||L||_F^2;
    - the eigensolve reads that eigenvalue within p(d) u ||M||_2, where
      ||M||_2 <= ||L||_F^2 to first order, and p(d) is the modest factor
      of LAPACK's error bound for Hermitian eigenvalues.
    Taking c (d + 1) + 1 + p(d) <= 16 d^2, the two errors together stay
    within PSD_TOL/2 at that scale, so a certified matrix's eigensolve
    reads at least -PSD_TOL.  A matrix that the factorisation refuses
    (every entry of its factor NaN) or whose scale breaks the bound is not
    certified."""
    d = stack.shape[-1]
    factors = _cholesky(stack + np.eye(d) * (PSD_TOL / 2))
    flat = factors.reshape(len(factors), -1).view(float)
    # ||L||_F^2 of each factor, NaN for a refused one, which fails the test
    return d * d * _einsum("ij,ij->i", flat, flat) <= PSD_TOL * 2.0**48


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


def _convergence_check(w: np.ndarray):
    """The check that each unchecked eigensolve of a stack converged, from
    its eigenvalues ``w`` ((B, d)), as ``_decomposition_checks`` gives its
    checks: one that failed returned NaNs."""
    return ~np.logical_and.reduce(np.isfinite(w), axis=-1), _nonconvergence


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
