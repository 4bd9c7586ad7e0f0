import numpy as np
import pytest

from conftest import random_generator_matrix, random_pair
from oracles import (
    jacobi_eigh,
    jacobi_metric_roots,
    mp_operator_norm,
    mp_shift_frame_lower,
    shift_generator,
)
from rieszops import build_bundle, from_generator, parse_spec, poly
from rieszops.linalg import LinalgError, operator_norm
from rieszops.models import three_level


class TestGeneratorSVD:
    """The one SVD T = U diag(s) V* of a basis pair, as from_generator keeps
    it: singular_values s (descending) and singular_vectors U."""

    def test_identity(self):
        pair = from_generator(np.eye(3, dtype=complex))
        np.testing.assert_allclose(pair.singular_values, [1, 1, 1], atol=1e-14)
        u = pair.singular_vectors
        assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12

    def test_three_level_metric_spectrum(self):
        # T T* has trace 39 and det 25 on the coupled 2x2 block, and 4 on
        # the third: s^2 = (39 +- 7 sqrt(29)) / 2 and 4, for every t
        pair = from_generator(three_level(0.3).T)
        lower, upper = (39 - 7 * np.sqrt(29)) / 2, (39 + 7 * np.sqrt(29)) / 2
        np.testing.assert_allclose(pair.singular_values**2, [upper, 4.0, lower], atol=1e-12)
        assert abs(pair.frame_lower**2 - lower) <= 1e-12
        assert abs(pair.frame_upper**2 - upper) <= 1e-12

    def test_diagonal_permutation(self):
        pair = from_generator(np.diag([3.0, 1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(pair.singular_values, [3.0, 2.0, 1.0], atol=1e-14)
        # singular vector columns must be the matching coordinate permutation
        expected = np.zeros((3, 3))
        expected[0, 0] = expected[2, 1] = expected[1, 2] = 1.0
        assert np.abs(np.abs(pair.singular_vectors) - expected).max() <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 32, 64])
    def test_metric_reconstruction_and_eigenvalue_agreement(self, dim):
        """U diag(s^2) U* rebuilds S_phi = T T*, U is unitary, and s^2 are
        the eigenvalues of T T*."""
        pair = from_generator(random_generator_matrix(np.random.default_rng(dim), dim))
        u, s = pair.singular_vectors, pair.singular_values
        scale = np.linalg.norm(pair.metric)
        assert np.linalg.norm((u * s**2) @ u.conj().T - pair.metric) <= 1e-10 * scale
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-10
        np.testing.assert_allclose(
            s[::-1] ** 2, np.linalg.eigvalsh(pair.metric), atol=1e-10 * max(scale, 1)
        )

    def test_singular_values_invariant_under_unitary_conjugation(self, rng):
        t = random_generator_matrix(rng, 8)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        s1 = from_generator(t).singular_values
        s2 = from_generator(q @ t @ q.conj().T).singular_values
        np.testing.assert_allclose(s1, s2, atol=1e-9)

    def test_metric_roots_are_hermitian_to_the_last_bit(self, seeded_bundle):
        for root in (seeded_bundle.S_phi_sqrt, seeded_bundle.S_psi_sqrt):
            assert np.array_equal(root, root.conj().T)

    def test_non_finite_input_is_rejected_by_both_svd_paths(self, rng):
        m = random_generator_matrix(rng, 4)
        m[0, 1] = np.nan
        for call in (from_generator, operator_norm):
            with pytest.raises(LinalgError, match="non-finite"):
                call(m)

    def test_svd_non_convergence_is_a_linalg_error(self, monkeypatch, rng):
        def diverge(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", diverge)
        m = random_generator_matrix(rng, 4)
        for call in (from_generator, operator_norm):
            with pytest.raises(LinalgError, match="SVD did not converge"):
                call(m)


class TestOperatorNorm:
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 5.5])
    def test_generator_norm_parameter_free(self, t):
        model = three_level(t)
        expected = np.sqrt((39 + 7 * np.sqrt(29)) / 2)
        assert abs(operator_norm(model.T) - expected) <= 1e-10

    def test_inverse_norm_ratio(self):
        model = three_level(0.3)
        norm_t = operator_norm(model.T)
        psi = from_generator(model.T).psi  # (T^{-1})*, of the same norm
        assert abs(operator_norm(psi) - norm_t / 5) <= 1e-10

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


@pytest.mark.parametrize("c, dim", [(1.1, 64), (1.3, 48)])
def test_frame_lower_matches_mpmath_on_ill_conditioned_shifts(c, dim):
    """frame_lower of T = I + cJ, cond(T) up to 1.3e6, against the 60-digit
    sigma_min.  The SVD of T is off by 1.1e-15 and 1.4e-15 (relative) here;
    the square root of the smallest eigenvalue of T T* is off by 2.3e-10
    and 5.3e-5."""
    exact = mp_shift_frame_lower(c, dim)
    got = from_generator(shift_generator(c, dim)).frame_lower
    assert abs(got - exact) <= 1e-13 * exact


@pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
def test_lapack_kernel_matches_jacobi_oracle(dim):
    """Squared singular values and both metric roots against the cyclic
    Jacobi oracle's eigendecomposition of T T*.

    The oracle stops at off-diagonal mass 1e-13 ||M||_F, which by Weyl moves
    each eigenvalue by at most that much; 1e-12 leaves room for LAPACK's own
    backward error.  The roots carry cond(T T*) on top, hence 1e-10.
    """
    t = random_generator_matrix(np.random.default_rng(dim), dim)
    pair = from_generator(t)
    lam, _ = jacobi_eigh(pair.metric)
    err = np.abs(pair.singular_values[::-1] ** 2 - lam).max()
    assert err <= 1e-12 * np.linalg.norm(pair.metric)

    bundle = build_bundle(pair, np.ones(dim))
    for got, want in zip(
        (bundle.S_phi_sqrt, bundle.S_psi_sqrt), jacobi_metric_roots(t)
    ):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
