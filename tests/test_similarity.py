import numpy as np
import pytest

from conftest import random_pair, result
from rieszops import (
    build_bundle,
    check_selfadjoint_h,
    check_similarity_consistency,
    check_transported_eigenbasis,
    from_generator,
    geometric,
    poly,
    rank_one_sum,
)
from rieszops.linalg import adjoint
from rieszops.models import projection_model, three_level


def three_level_bundle(t=0.3):
    model = three_level(t)
    pair = from_generator(model.T)
    return model, build_bundle(pair, np.array(model.eps))


class TestBuildH:
    def test_three_level_closed_form(self):
        model, bundle = three_level_bundle(0.3)
        assert np.abs(bundle.h - model.h).max() <= 1e-12

    def test_identity_generator_diagonal(self):
        pair = from_generator(np.eye(4, dtype=complex))
        bundle = build_bundle(pair, np.array([0.0, 1.0, 2.0, 3.0]))
        np.testing.assert_allclose(bundle.h, np.diag([0.0, 1, 2, 3]), atol=1e-13)

    def test_projection_block_structure(self):
        model = projection_model(8, np.array([0.6, 0.0, 0.8j]), poly(1.0).terms(8))
        pair = from_generator(model.T)
        bundle = build_bundle(pair, poly(1.0).terms(pair.dim))
        h = bundle.h
        weights = poly(1.0).terms(8)
        outside = np.flatnonzero(~model.inside)
        for k in outside:
            col = h[:, k].copy()
            col[k] -= weights[k]
            assert np.abs(col).max() <= 1e-11
            assert np.abs(np.delete(h[k], k)).max() <= 1e-11


class TestSelfadjointH:
    def test_three_level(self):
        _, bundle = three_level_bundle(0.3)
        check = result(check_selfadjoint_h(bundle), tol=1e-11)
        assert check.passed and check.residual <= 1e-11

    @pytest.mark.parametrize(
        "alpha", [np.array([1j, 1 + 1j, 2.0]), geometric(0.9 + 0.2j).terms(3)]
    )
    def test_complex_alpha_adjoint_relation(self, alpha):
        """h* = S_phi^{1/2} H^conj(alpha)_{psi,phi} S_psi^{1/2}: the roots are
        Hermitian and H^conj(alpha)_{psi,phi} = (H^alpha_{phi,psi})*, the
        adjoint rule of rank_one_sum.  Not self-adjoint: complex alpha."""
        pair = random_pair(3, 13)
        bundle = build_bundle(pair, alpha)
        h_conj = rank_one_sum(alpha.conj(), pair.psi, pair.phi)
        expected = bundle.S_phi_sqrt @ h_conj @ bundle.S_psi_sqrt
        assert np.linalg.norm(adjoint(bundle.h) - expected) <= 1e-10
        assert not result(check_selfadjoint_h(bundle)).passed

    def test_identity_generator_real_alpha(self):
        pair = from_generator(np.eye(3, dtype=complex))
        bundle = build_bundle(pair, np.array([0.0, 1.0, 2.0]))
        assert result(check_selfadjoint_h(bundle)).residual <= 1e-14

    @pytest.mark.parametrize("dim", [16, 32, 64])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_relative_asymmetry_of_h_for_poly_2(self, dim, seed):
        # the random suite's generator for this seed; ||h|| grows like dim^2
        h = build_bundle(random_pair(dim, seed), poly(2.0).terms(dim)).h
        assert np.linalg.norm(h - h.conj().T) <= 1e-12 * np.linalg.norm(h)


class TestTransportedEigenbasis:
    def test_three_level_closed_forms(self):
        model, bundle = three_level_bundle(0.3)
        got = bundle.Phi
        np.testing.assert_allclose(got, model.Phi, atol=1e-12)

    def test_three_level_is_orthonormal_eigenbasis(self):
        _, bundle = three_level_bundle(0.8)
        check = result(check_transported_eigenbasis(bundle))
        assert check.passed and check.residual <= 1e-11

    def test_identity_generator(self):
        pair = from_generator(np.eye(4, dtype=complex))
        bundle = build_bundle(pair, np.array([0.0, 1.0, 2.0, 3.0]))
        np.testing.assert_allclose(bundle.Phi, np.eye(4), atol=1e-13)

    def test_spectrum_transport_random_pairs(self):
        for seed in (1, 9):
            pair = random_pair(8, seed)
            bundle = build_bundle(pair, np.linspace(0, 2, 8))
            assert result(check_transported_eigenbasis(bundle)).residual <= 1e-10


class TestSimilarityConsistency:
    def test_random_pairs(self):
        for seed in (2, 7):
            bundle = build_bundle(random_pair(8, seed), poly(1.0).terms(8))
            check = result(check_similarity_consistency(bundle))
            assert check.passed and check.residual <= 1e-10


def projection_bundle():
    model = projection_model(8, np.array([0.6, 0.8]), poly(1.0).terms(8))
    return build_bundle(from_generator(model.T), model.weights)


#: bundles, each with the pin on max |phi* S_psi phi - I|
METRIC_CASES = {
    "three-level": (lambda: three_level_bundle(0.3)[1], 1e-12),
    "identity": (
        lambda: build_bundle(from_generator(np.eye(5, dtype=complex)), poly(1.0).terms(5)),
        1e-14,
    ),
    "projection": (projection_bundle, 1e-10),
    "random-64": (lambda: build_bundle(random_pair(64, 1), poly(1.0).terms(64)), 1e-10),
}


class TestMetricOrthonormality:
    """phi_n is orthonormal in the S_psi inner product because the pair is
    biorthogonal.  With S_psi = psi psi* and G = psi* phi,

        phi* S_psi phi - I = (psi* phi)* (psi* phi) - I = G* G - I,

    and with E = G - I, G* G - I = E* E + E* + E, so ||G* G - I||_F <=
    ||E||_F^2 + 2 ||E||_F: the biorthogonality check, which reads E, bounds
    the metric one, and the battery runs no check of its own for it."""

    @pytest.mark.parametrize("case", sorted(METRIC_CASES))
    def test_metric_gram_is_the_squared_biorthogonality_gram(self, case):
        make, pin = METRIC_CASES[case]
        bundle = make()
        phi, psi, dim = bundle.pair.phi, bundle.pair.psi, bundle.pair.dim
        eps, eye = np.finfo(float).eps, np.eye(dim)
        gram = adjoint(psi) @ phi
        metric = adjoint(phi) @ bundle.S_psi @ phi - eye
        squared = adjoint(gram) @ gram - eye
        assert np.abs(metric).max() <= pin
        # both sides round their products: dim * eps times the norms multiplied
        rounding = 4 * dim * eps * np.linalg.norm(phi) ** 2 * np.linalg.norm(bundle.S_psi)
        assert np.linalg.norm(metric - squared) <= rounding
        e = np.linalg.norm(gram - eye)
        assert np.linalg.norm(squared) <= e**2 + 2 * e + dim * eps * np.linalg.norm(gram) ** 2


def test_sqrt_metric_never_equals_generator():
    # the square root is self-adjoint while T is not, at every sampled t
    for t in np.linspace(0.0, np.pi / 3 - 0.05, 12):
        model = three_level(float(t))
        bundle = build_bundle(from_generator(model.T), np.array(model.eps))
        assert np.abs(bundle.S_phi_sqrt - model.T).max() > 0.1
