import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import infotherm as it
from infotherm import linops
from infotherm.errors import NegativeEigenvalue, NotHermitian, NumericalFailure, ValidationError
from infotherm.linops import (
    _asymmetry,
    hermitian_eig,
    max_abs,
    psd_function,
    tensor_product,
)

from conftest import fail_solver, names_used

PACKAGE = Path(it.__file__).parent


def random_hermitian(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_psd(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g @ g.conj().T


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(np.eye(3))
        npt.assert_allclose(eig.eigenvalues, np.ones(3))
        npt.assert_allclose(eig.eigenvectors, np.eye(3))

    def test_pauli_x(self):
        eig = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        npt.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)
        # each eigenvector's dominant components stay orthonormal
        npt.assert_allclose(
            np.abs(eig.eigenvectors), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_reconstruction(self, seed):
        m = random_hermitian(4, np.random.default_rng(seed))
        eig = hermitian_eig(m)
        assert max_abs(eig.reconstruct() - m) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_ascending_order_and_trace(self, dim):
        m = random_hermitian(dim, np.random.default_rng(dim))
        eig = hermitian_eig(m)
        assert np.all(np.diff(eig.eigenvalues) >= -1e-12)
        npt.assert_allclose(eig.eigenvalues.sum(), np.trace(m).real, atol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_orthonormal_eigenvectors(self, seed):
        m = random_hermitian(5, np.random.default_rng(seed))
        v = hermitian_eig(m).eigenvectors
        assert max_abs(v.conj().T @ v - np.eye(5)) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_phase_convention(self, seed):
        v = hermitian_eig(random_hermitian(4, np.random.default_rng(seed))).eigenvectors
        for k in range(4):
            pivot = v[np.argmax(np.abs(v[:, k])), k]
            assert pivot.real > 0
            assert abs(pivot.imag) <= 1e-12

    def test_deterministic(self):
        m = random_hermitian(6, np.random.default_rng(3))
        a, b = hermitian_eig(m), hermitian_eig(m)
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        m = np.eye(2)
        m[0, 0] = np.nan
        with pytest.raises(ValidationError):
            hermitian_eig(m)


class TestTensorProduct:
    def test_identities(self):
        npt.assert_allclose(tensor_product(np.eye(2), np.eye(3)), np.eye(6))

    def test_index_convention(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = tensor_product(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        assert t[i * 3 + k, j * 3 + l] == pytest.approx(a[i, j] * b[k, l])

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        npt.assert_allclose(
            np.trace(tensor_product(a, b)), np.trace(a) * np.trace(b), atol=1e-12
        )

    def test_associative(self):
        rng = np.random.default_rng(2)
        a, b, c = (random_hermitian(2, rng) for _ in range(3))
        npt.assert_allclose(
            tensor_product(tensor_product(a, b), c),
            tensor_product(a, tensor_product(b, c)),
            atol=1e-12,
        )


class TestPsdFunction:
    def test_sqrt_of_diagonal(self):
        out = psd_function(np.diag([4.0, 9.0]), np.sqrt)
        npt.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_sqrt_squares_back(self, seed):
        m = random_psd(4, np.random.default_rng(seed))
        root = psd_function(m, np.sqrt)
        npt.assert_allclose(root @ root, m, atol=1e-9)

    def test_identity_function(self):
        m = random_psd(3, np.random.default_rng(11))
        npt.assert_allclose(psd_function(m, lambda x: x), m, atol=1e-10)

    def test_pseudo_inverse_sqrt_on_singular(self):
        proj = np.diag([1.0, 0.0])
        inv_root = psd_function(proj, lambda x: 1.0 / np.sqrt(x), pseudo=True)
        npt.assert_allclose(inv_root, proj, atol=1e-12)

    def test_pseudo_support_projector(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        rank1 = np.outer(v, v.conj()) * 2.5
        support = psd_function(rank1, np.ones_like, pseudo=True)
        npt.assert_allclose(support, np.outer(v, v.conj()), atol=1e-10)

    def test_tiny_negative_clipped(self):
        m = np.diag([-5e-10, 1.0])
        out = psd_function(m, np.sqrt)
        npt.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-9)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NegativeEigenvalue):
            psd_function(np.diag([-0.5, 1.0]), np.sqrt)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            psd_function(np.array([[0.0, 1.0], [0.0, 1.0]]), np.sqrt)


class TestAsymmetry:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_matrix_and_a_stack_leave_their_input_alone(self, dtype):
        m = np.array([[1.0, 1e-3], [0.0, 1.0]], dtype=dtype)
        kept = m.copy()
        assert _asymmetry(m) == 1e-3
        assert np.array_equal(m, kept)
        stack = np.stack([np.eye(2, dtype=dtype), m])
        npt.assert_array_equal(_asymmetry(stack), [0.0, 1e-3])
        assert np.array_equal(stack[1], kept)


class TestUnconvergedSolves:
    """A solve that does not converge raises ``NumericalFailure`` with
    numpy's message wherever it runs through numpy's solvers, whatever the
    caller's numpy error settings."""

    MESSAGE = "^eigendecomposition failed: Eigenvalues did not converge$"

    @pytest.mark.parametrize("invalid", ["ignore", "warn", "raise"])
    def test_density_matrix(self, monkeypatch, invalid):
        fail_solver(monkeypatch, "eigvalsh_lo")
        with np.errstate(invalid=invalid), pytest.raises(NumericalFailure, match=self.MESSAGE):
            it.DensityMatrix(np.eye(2) / 2)

    def test_povm(self, monkeypatch):
        fail_solver(monkeypatch, "eigvalsh_lo")
        with pytest.raises(NumericalFailure, match=self.MESSAGE):
            it.Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))

    @pytest.mark.parametrize("projective", [True, False])
    def test_delta_s(self, monkeypatch, projective):
        # a projective measurement's dephased spectra, a general one's record spectra
        rho = it.DensityMatrix([[0.6, 0.2], [0.2, 0.4]])
        if projective:
            v = it.basis_measurement(np.eye(2))
        else:
            v = it.Povm((np.diag([0.5, 0.0]), np.diag([0.0, 0.5]), np.eye(2) / 2))
        assert v.projective == projective
        fail_solver(monkeypatch, "eigvalsh_lo")
        with pytest.raises(NumericalFailure, match=self.MESSAGE):
            it.delta_s(rho, v)

    def test_psd_function(self, monkeypatch):
        fail_solver(monkeypatch, "eigh_lo")
        with pytest.raises(NumericalFailure, match=self.MESSAGE):
            psd_function(np.eye(2), np.sqrt)


def test_numpy_has_every_solver_of_the_binding():
    # the binding calls the eigensolvers and cholesky_lo with no fallback:
    # numpy 1.x has them too.  qr_r_raw came with numpy 2.0, and _qr calls
    # it and qr_reduced only where numpy has it
    assert linops._umath_linalg is np.linalg._umath_linalg
    names = ["eigh_lo", "eigvalsh_lo", "cholesky_lo"]
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        names += ["qr_r_raw", "qr_reduced"]
    for name in names:
        assert isinstance(getattr(np.linalg._umath_linalg, name), np.ufunc)
    m = np.array([[2.0, 1j], [-1j, 2.0]])
    w, v = linops._eigh(m[None])
    npt.assert_array_equal(w, np.linalg.eigh(m)[0][None])
    npt.assert_array_equal(linops._eigvalsh(m[None]), np.linalg.eigvalsh(m)[None])
    npt.assert_array_equal(linops._cholesky(m[None]), np.linalg.cholesky(m)[None])
    g = np.random.default_rng(3).normal(size=(4, 3, 3, 2)) @ np.array([1.0, 1j])
    q, r = np.linalg.qr(g)
    got = linops._qr(g)
    assert got[0].tobytes() == q.tobytes()
    assert got[1].tobytes() == np.diagonal(r, axis1=1, axis2=2).tobytes()


def test_without_qr_r_raw_the_qr_is_numpys_own(monkeypatch):
    # numpy 1.x has no qr_r_raw: there _qr runs np.linalg.qr, with the same
    # bits, so every random instance keeps its bytes
    g = np.random.default_rng(3).normal(size=(4, 3, 3, 2)) @ np.array([1.0, 1j])
    kinds = ("pure", "mixed", "commuting")
    ref = linops._qr(g), [it.random_instance(3, 3, 2, kind, 5) for kind in kinds]
    solvers = np.linalg._umath_linalg
    names = ("eigh_lo", "eigvalsh_lo", "cholesky_lo")
    monkeypatch.setattr(linops, "_umath_linalg", SimpleNamespace(
        **{name: getattr(solvers, name) for name in names}
    ))
    got = linops._qr(g), [it.random_instance(3, 3, 2, kind, 5) for kind in kinds]
    assert [a.tobytes() for a in got[0]] == [a.tobytes() for a in ref[0]]
    for (e, povm), (ref_e, ref_povm) in zip(got[1], ref[1]):
        assert e.probs.tobytes() == ref_e.probs.tobytes()
        for a, b in zip(e.states, ref_e.states):
            assert a.matrix.tobytes() == b.matrix.tobytes()
        for a, b in zip(povm.elements, ref_povm.elements):
            assert a.tobytes() == b.tobytes()


def test_a_matrix_the_factorisation_refuses_comes_back_as_nans():
    # whatever the caller's settings: numpy's invalid flag is ignored
    stack = np.array([np.eye(2), -np.eye(2)], dtype=complex)
    with np.errstate(invalid="raise"):
        factors = linops._cholesky(stack)
    npt.assert_array_equal(factors[0], np.eye(2))
    assert np.isnan(factors[1]).all()


class TestSolverBindingStaysInLinops:
    """Only ``linops`` calls numpy's eigensolvers and einsum or names their
    C entry points; the other modules call its binding."""

    NAMES = re.compile(
        r"\blinalg\.(?:eigh|eigvalsh)\b|\b(?:np|numpy)\.einsum\b|\b_umath_linalg\b"
        r"|\b_multiarray_umath\b"
    )

    def test_only_linops_names_them(self):
        found = names_used(self.NAMES, sorted(PACKAGE.glob("*.py")))
        assert {"_multiarray_umath", "_umath_linalg"} <= set(found.pop("linops.py"))
        assert found == {}

    def test_the_guard_sees_each_name(self, tmp_path):
        stray = tmp_path / "stray.py"
        stray.write_text(
            "w = np.linalg.eigvalsh(a)\n"
            "w, v = numpy.linalg.eigh(a)\n"
            "t = np.einsum('ii->', a)\n"
            "# np.linalg._umath_linalg, np._core._multiarray_umath.c_einsum\n"
            "eighs = my_einsum = np.linalg.eigvals(a)\n"
        )
        assert names_used(self.NAMES, [stray]) == {
            "stray.py": [
                "_multiarray_umath", "_umath_linalg", "linalg.eigh", "linalg.eigvalsh",
                "np.einsum",
            ]
        }
