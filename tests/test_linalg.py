import numpy as np
import pytest

from conftest import random_generator_matrix, random_pair
from oracles import jacobi_eigh, jacobi_metric_roots, mp_operator_norm
from rieszops import build_bundle, from_generator, parse_spec, poly
from rieszops.linalg import LinalgError, _hermitian_solve, hermitian_eig, inverse, operator_norm
from rieszops.models import three_level

S_PHI = np.array([[2, 0, 7], [0, 4, 0], [7, 0, 37]], dtype=complex)


def random_hermitian(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return x + x.conj().T


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(np.eye(3, dtype=complex))
        np.testing.assert_allclose(eig.eigenvalues, [1, 1, 1], atol=1e-14)
        u = eig.eigenvectors
        assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12

    def test_three_level_metric_spectrum(self):
        # trace 39, det 25 on the coupled 2x2 block -> (39 +- 7 sqrt(29)) / 2
        eig = hermitian_eig(S_PHI)
        expected = np.sort(
            [4.0, (39 - 7 * np.sqrt(29)) / 2, (39 + 7 * np.sqrt(29)) / 2]
        )
        np.testing.assert_allclose(eig.eigenvalues, expected, atol=1e-12)

    def test_diagonal_permutation(self):
        eig = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
        # eigenvector columns must be the matching coordinate permutation
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
        assert np.abs(np.abs(eig.eigenvectors) - expected).max() <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 32, 64])
    def test_reconstruction_and_lapack_agreement(self, dim):
        rng = np.random.default_rng(dim)
        m = random_hermitian(rng, dim)
        eig = hermitian_eig(m)
        scale = np.linalg.norm(m)
        rebuilt = eig.with_eigenvalues(eig.eigenvalues)
        assert np.linalg.norm(rebuilt - m) <= 1e-10 * scale
        u = eig.eigenvectors
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-10
        np.testing.assert_allclose(
            eig.eigenvalues, np.linalg.eigvalsh(m), atol=1e-10 * max(scale, 1)
        )

    def test_eigenvalues_invariant_under_unitary_conjugation(self, rng):
        m = random_hermitian(rng, 8)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        lam1 = hermitian_eig(m).eigenvalues
        lam2 = hermitian_eig(q @ m @ q.conj().T).eigenvalues
        np.testing.assert_allclose(lam1, lam2, atol=1e-9)

    def test_rejects_non_hermitian(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(LinalgError, match="not Hermitian"):
            hermitian_eig(m)

    @pytest.mark.parametrize("bad", ["asymmetric", "non-finite"])
    def test_values_only_path_keeps_the_guards(self, rng, bad):
        """The eigvalsh path behind operator_norm raises what eigh's raises,
        and otherwise sees the same symmetrized input."""
        m = random_hermitian(rng, 4)
        m[0, 1] += 1e-3 if bad == "asymmetric" else np.nan
        with pytest.raises(LinalgError) as full:
            hermitian_eig(m)
        with pytest.raises(LinalgError) as values:
            _hermitian_solve(np.linalg.eigvalsh, m)
        assert str(values.value) == str(full.value)
        m = random_hermitian(rng, 4)
        m[0, 1] += 1e-13
        lam = _hermitian_solve(np.linalg.eigvalsh, m)
        assert np.array_equal(lam, np.linalg.eigvalsh(0.5 * (m + m.conj().T)))

    def test_symmetrizes_tiny_asymmetry(self, rng):
        m = random_hermitian(rng, 4)
        m[0, 1] += 1e-13
        eig = hermitian_eig(m)
        sym = 0.5 * (m + m.conj().T)
        rebuilt = eig.with_eigenvalues(eig.eigenvalues)
        assert np.linalg.norm(rebuilt - sym) <= 1e-10 * np.linalg.norm(sym)


def svd_extremes(m):
    """(smallest, largest) singular values from numpy's SVD, not the kernel's."""
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[-1]), float(s[0])


class TestInverse:
    def test_projection_generator_closed_form(self, rng):
        u = rng.normal(size=5) + 1j * rng.normal(size=5)
        u /= np.linalg.norm(u)
        p = np.outer(u, u.conj())
        t = np.eye(5) + 1j * p
        expected = np.eye(5) - ((1j + 1) / 2) * p
        assert np.abs(inverse(t, svd_extremes(t)) - expected).max() <= 1e-12

    def test_diagonal(self):
        got = inverse(np.diag([2.0, 4.0]).astype(complex), (2.0, 4.0))
        np.testing.assert_allclose(got, np.diag([0.5, 0.25]), atol=1e-14)

    def test_random_residual(self):
        rng = np.random.default_rng(8)
        m = np.eye(8) + 0.3 * (
            rng.uniform(size=(8, 8)) + 1j * rng.uniform(size=(8, 8))
        )
        assert np.linalg.norm(m @ inverse(m, svd_extremes(m)) - np.eye(8)) <= 1e-10

    def test_involution(self, rng):
        m = np.eye(6) + 0.3 * (
            rng.uniform(size=(6, 6)) + 1j * rng.uniform(size=(6, 6))
        )
        smin, smax = svd_extremes(m)
        inv = inverse(m, (smin, smax))
        cond = smax / smin
        assert np.abs(inverse(inv, (1.0 / smax, 1.0 / smin)) - m).max() <= 1e-10 * cond**2

    def test_rejects_singular(self):
        m = np.ones((3, 3), dtype=complex)
        with pytest.raises(LinalgError, match="singular"):
            inverse(m, svd_extremes(m))


class TestOperatorNorm:
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 5.5])
    def test_generator_norm_parameter_free(self, t):
        model = three_level(t)
        expected = np.sqrt((39 + 7 * np.sqrt(29)) / 2)
        assert abs(operator_norm(model.T) - expected) <= 1e-10

    def test_inverse_norm_ratio(self):
        model = three_level(0.3)
        norm_t = operator_norm(model.T)
        inv = inverse(model.T, svd_extremes(model.T))
        assert abs(operator_norm(inv) - norm_t / 5) <= 1e-10

    def test_identity(self):
        assert abs(operator_norm(np.eye(5, dtype=complex)) - 1.0) <= 1e-12

    def test_submultiplicative(self, rng):
        for _ in range(5):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10


@pytest.mark.parametrize("dim", [8, 16])
@pytest.mark.parametrize("alpha", ["poly:2", "geometric:0.9+0.2j"])
def test_operator_norm_matches_mpmath(dim, alpha):
    """||H_{phi,psi}|| of a random generator, as norm_bound reads it, against
    the 50-digit largest singular value of the same float matrix."""
    bundle = build_bundle(random_pair(dim, dim), parse_spec(alpha).terms(dim))
    exact = mp_operator_norm(bundle.H_phi_psi)
    assert abs(operator_norm(bundle.H_phi_psi) - exact) <= 1e-14 * exact


@pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
def test_lapack_kernel_matches_jacobi_oracle(dim):
    """Eigenvalues and both metric roots against the cyclic Jacobi oracle.

    The oracle stops at off-diagonal mass 1e-13 ||M||_F, which by Weyl moves
    each eigenvalue by at most that much; 1e-12 leaves room for LAPACK's own
    backward error.  The roots carry cond(T T*) on top, hence 1e-10.
    """
    rng = np.random.default_rng(dim)
    m = random_hermitian(rng, dim)
    lam, _ = jacobi_eigh(m)
    assert np.abs(hermitian_eig(m).eigenvalues - lam).max() <= 1e-12 * np.linalg.norm(m)

    t = random_generator_matrix(rng, dim)
    bundle = build_bundle(from_generator(t), np.ones(dim))
    for got, want in zip(
        (bundle.S_phi_sqrt, bundle.S_psi_sqrt), jacobi_metric_roots(t)
    ):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
