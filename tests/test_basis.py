from dataclasses import replace

import numpy as np
import pytest

from conftest import random_generator_matrix, random_pair, random_vector, result
from rieszops import (
    LinalgError,
    explicit,
    frame_inequality_check,
    from_generator,
    poly,
    verify_biorthogonality,
)
from rieszops.linalg import frobenius, max_entry
from rieszops.models import projection_model, three_level


def test_identity_generator_gives_coordinate_bases():
    pair = from_generator(np.eye(4, dtype=complex))
    np.testing.assert_allclose(pair.phi, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(pair.psi, np.eye(4), atol=1e-15)
    assert abs(pair.frame_lower - 1.0) <= 1e-12
    assert abs(pair.frame_upper - 1.0) <= 1e-12


def test_three_level_columns_match_model_at_pi_over_6():
    model = three_level(np.pi / 6)
    pair = from_generator(model.T)
    np.testing.assert_allclose(pair.phi, model.T, atol=1e-12)
    np.testing.assert_allclose(pair.psi, model.psi, atol=1e-12)


def test_projection_generator_case_formulas():
    u = np.zeros(4, dtype=complex)
    u[:2] = 1 / np.sqrt(2)
    model = projection_model(4, u[:2], poly(1.0).terms(4))
    pair = from_generator(model.T)
    for n in range(4):
        expected = np.eye(4)[:, n].astype(complex)
        if n < 2:
            expected = expected + 1j * np.conj(u[n]) * u
        np.testing.assert_allclose(pair.phi[:, n], expected, atol=1e-12)


def test_rejects_singular_generator():
    with pytest.raises(LinalgError, match="sigma_min"):
        from_generator(np.ones((3, 3), dtype=complex))


def test_singularity_guard_ignores_scale():
    """The guard reads cond(T): a tiny rescaled generator is still a Riesz
    generator, with frame bounds and inverse scaled to match."""
    t = random_generator_matrix(np.random.default_rng(5), 8)
    pair, tiny = from_generator(t), from_generator(1e-12 * t)
    assert tiny.frame_lower == pytest.approx(1e-12 * pair.frame_lower, rel=1e-9)
    assert tiny.frame_upper == pytest.approx(1e-12 * pair.frame_upper, rel=1e-9)
    np.testing.assert_allclose(tiny.psi, 1e12 * pair.psi, rtol=1e-9)


def test_singularity_guard_is_relative_to_sigma_max():
    """sigma_min = 5e-10 is above DEFAULT_TOL but below DEFAULT_TOL * sigma_max;
    at 2e-9 it is above both, and psi is the exact inverse's adjoint."""
    t = np.diag([10.0, 1.0, 1.0, 5e-10]).astype(complex)
    with pytest.raises(LinalgError, match=r"numerically singular.*sigma_max = 1\.000000e\+01"):
        from_generator(t)
    t[3, 3] = 2e-9
    np.testing.assert_allclose(from_generator(t).psi, np.diag([0.1, 1.0, 1.0, 5e8]), rtol=1e-15)


class TestInverse:
    """psi = (T^{-1})*: the LU solve from_generator takes, and its guards."""

    def test_projection_generator_closed_form(self, rng):
        u = rng.normal(size=5) + 1j * rng.normal(size=5)
        u /= np.linalg.norm(u)
        p = np.outer(u, u.conj())
        t = np.eye(5) + 1j * p
        expected = np.eye(5) - ((1j + 1) / 2) * p
        assert np.abs(from_generator(t).psi.conj().T - expected).max() <= 1e-12

    def test_diagonal(self):
        got = from_generator(np.diag([2.0, 4.0]).astype(complex)).psi
        np.testing.assert_allclose(got, np.diag([0.5, 0.25]), atol=1e-14)

    def test_random_residual(self):
        m = random_generator_matrix(np.random.default_rng(8), 8)
        assert np.linalg.norm(m @ from_generator(m).psi.conj().T - np.eye(8)) <= 1e-10

    def test_involution(self, rng):
        m = random_generator_matrix(rng, 6)
        pair = from_generator(m)
        inv = pair.psi.conj().T
        cond = pair.frame_upper / pair.frame_lower
        assert np.abs(from_generator(inv).psi.conj().T - m).max() <= 1e-10 * cond**2

    def test_residual_guard(self, monkeypatch, rng):
        """A solve off by 1e-6 in every entry leaves ||T X - I|| far above
        DEFAULT_TOL * cond(T), so the pair is refused."""
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
        with pytest.raises(LinalgError, match=r"inverse residual .* exceeds DEFAULT_TOL \* cond"):
            from_generator(random_generator_matrix(rng, 4))

    def test_lapack_singularity_is_a_linalg_error(self, monkeypatch, rng):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(LinalgError, match="numerically singular: Singular matrix"):
            from_generator(random_generator_matrix(rng, 4))


def test_frame_bounds_are_extreme_singular_values():
    pair = random_pair(8, 11)
    s = np.linalg.svd(pair.phi, compute_uv=False)
    assert abs(pair.frame_lower - s[-1]) <= 1e-10
    assert abs(pair.frame_upper - s[0]) <= 1e-10


def test_frame_bounds_bracket_action_norms(rng):
    pair = random_pair(8, 12)
    for _ in range(20):
        f = random_vector(rng, 8)
        ratio = np.linalg.norm(pair.phi @ f) / np.linalg.norm(f)
        assert pair.frame_lower - 1e-10 <= ratio <= pair.frame_upper + 1e-10


class TestBiorthogonality:
    def test_three_level(self):
        pair = from_generator(three_level(0.3).T)
        check = result(verify_biorthogonality(pair), tol=1e-12)
        assert check.passed and check.residual <= 1e-12

    def test_identity(self):
        check = result(verify_biorthogonality(from_generator(np.eye(5, dtype=complex))))
        assert check.residual == 0.0

    def test_random_dim_16(self):
        check = result(verify_biorthogonality(random_pair(16, 16)))
        assert check.passed and check.residual <= 1e-10


def reconstruction_residuals(pair, f):
    """||phi psi* f_j - f_j|| and ||psi phi* f_j - f_j|| of each column f_j of
    the (dim, k) block f: the Riesz expansions f = sum <f, psi_n> phi_n and
    f = sum <f, phi_n> psi_n, sampled on vectors as the battery once did."""
    return (
        np.linalg.norm(pair.phi @ (pair.psi.conj().T @ f) - f, axis=0),
        np.linalg.norm(pair.psi @ (pair.phi.conj().T @ f) - f, axis=0),
    )


def reconstruction_bound(pair, f):
    """What E = psi* phi - I, the matrix biorthogonality checks entrywise,
    bounds each reconstruction residual by: kappa(T) ||E||_F ||f_j|| plus
    rounding.

    For any invertible phi, phi psi* - I = phi (psi* phi - I) phi^{-1} =
    phi E phi^{-1}, and psi phi* - I is its adjoint; so both residuals are
    at most ||phi|| ||phi^{-1}|| ||E||_F ||f|| = kappa(T) ||E||_F ||f|| in
    exact arithmetic, with kappa(T) = frame_upper / frame_lower, and
    ||E||_F <= dim * max|E_nm|, biorthogonality's residual.  Rounding: the
    two products of a sample and the computed E each err by at most
    gamma_N ||phi||_F ||psi||_F per unit ||f|| (Higham 2002, ch. 3;
    gamma_N < 1.01 N eps for N <= 64), the last one amplified by kappa,
    and the subtraction of f by eps ||f||, less than one more such term
    (||phi||_F ||psi||_F >= |tr psi* phi|, about N): in all,
    rho = (kappa + 3) N eps ||phi||_F ||psi||_F ||f_j||."""
    dim = pair.dim
    kappa = pair.frame_upper / pair.frame_lower
    e = frobenius(pair.psi.conj().T @ pair.phi - np.eye(dim))
    assert e <= dim * verify_biorthogonality(pair).residual
    rho = (kappa + 3) * dim * np.finfo(float).eps * frobenius(pair.phi) * frobenius(pair.psi)
    norms = np.linalg.norm(f, axis=0)
    return kappa * e * norms, rho * norms


class TestReconstruction:
    """f = sum <f, psi_n> phi_n for every f is the operator identity
    phi psi* = I, which at finite dim is psi* phi = I: biorthogonality
    checks it, on the whole space, and the reports sample no vectors."""

    @pytest.fixture(params=[3, 8, 64])
    def pair(self, request):
        return random_pair(request.param, 21)

    @staticmethod
    def samples(dim):
        return random_vector(np.random.default_rng(99), 20 * dim).reshape(dim, 20)

    def test_sampled_vectors_are_bounded_by_biorthogonality(self, pair):
        f = self.samples(pair.dim)
        bound, rounding = reconstruction_bound(pair, f)
        for residuals in reconstruction_residuals(pair, f):
            assert np.all(residuals <= bound + rounding)
        assert result(verify_biorthogonality(pair)).passed

    def test_bumped_psi_fails_biorthogonality(self, pair):
        """A psi whose top-right entry moves by 1e-8 of its largest entry
        fails biorthogonality; the sampled residuals grow past the rounding
        term and stay within the bound that E gives."""
        psi = pair.psi.copy()
        psi[0, -1] += 1e-8 * max_entry(psi)
        bumped = replace(pair, psi=psi)
        assert not result(verify_biorthogonality(bumped)).passed
        f = self.samples(pair.dim)
        bound, rounding = reconstruction_bound(bumped, f)
        for residuals in reconstruction_residuals(bumped, f):
            assert np.all(residuals <= bound + rounding)
            assert residuals.max() > rounding.max()


class TestFrameInequality:
    def test_identity_generator_equalities(self, rng):
        pair = from_generator(np.eye(5, dtype=complex))
        check = result(
            frame_inequality_check(pair, poly(1.0).terms(5), random_vector(rng, 5)[:, None])
        )
        assert check.passed and check.residual <= 1e-12

    def test_three_level(self, rng):
        model = three_level(0.3)
        pair = from_generator(model.T)
        check = result(
            frame_inequality_check(pair, explicit(model.eps).terms(3), random_vector(rng, 3)[:, None])
        )
        assert check.passed

    def test_projection_linear_weights(self, rng):
        alpha = poly(1.0).terms(6)
        model = projection_model(6, np.array([0.6, 0.8]), alpha)
        pair = from_generator(model.T)
        for _ in range(10):
            check = result(frame_inequality_check(pair, alpha, random_vector(rng, 6)[:, None]))
            assert check.passed
