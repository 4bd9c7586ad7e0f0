import json

import numpy as np
import pytest

from conftest import (
    factorize,
    random_generator_matrix,
    random_pair,
    random_vector,
    result,
    three_level_gamma,
)
from oracles import conjugate
from rieszops import (
    build_bundle,
    build_ladder,
    check_commutator,
    check_ladder_actions,
    check_ladder_adjoints,
    check_products,
    explicit,
    factorize_from_alpha,
    from_generator,
    sqrt_poly,
)
from rieszops.cli import main
from rieszops.models import projection_model, three_level
from rieszops.sequences import harmonic, parse_spec, poly
from rieszops.suites import random_report


def three_level_ladder(t=0.3):
    model = three_level(t)
    pair = from_generator(model.T)
    return model, pair, build_ladder(pair, three_level_gamma(model))


def bosonic_ladder(dim):
    pair = from_generator(np.eye(dim, dtype=complex))
    return pair, build_ladder(pair, sqrt_poly(1.0).terms(pair.dim))


class TestBuildLadder:
    def test_three_level_lowering_actions(self):
        model, _, lp = three_level_ladder()
        g = lp.weights
        assert np.linalg.norm(lp.A_phi_psi @ model.phi[0]) <= 1e-12
        assert (
            np.linalg.norm(lp.A_phi_psi @ model.phi[1] - g[1] * model.phi[0]) <= 1e-12
        )
        assert (
            np.linalg.norm(lp.A_phi_psi @ model.phi[2] - g[2] * model.phi[1]) <= 1e-12
        )

    def test_three_level_raising_actions(self):
        model, _, lp = three_level_ladder()
        g = lp.weights
        assert (
            np.linalg.norm(lp.B_phi_psi @ model.phi[0] - g[1] * model.phi[1]) <= 1e-12
        )
        assert (
            np.linalg.norm(lp.B_phi_psi @ model.phi[1] - g[2] * model.phi[2]) <= 1e-12
        )
        assert np.linalg.norm(lp.B_phi_psi @ model.phi[2]) <= 1e-12

    def test_bosonic_matrices(self):
        _, lp = bosonic_ladder(6)
        expected_a = np.diag(np.sqrt(np.arange(1, 6)), k=1)
        expected_b = np.diag(np.sqrt(np.arange(1, 6)), k=-1)
        np.testing.assert_allclose(lp.A_phi_psi, expected_a, atol=1e-14)
        np.testing.assert_allclose(lp.B_phi_psi, expected_b, atol=1e-14)

    def test_interior_bookkeeping(self):
        pair, lp = bosonic_ladder(6)
        note = result(check_products(lp)).note
        assert note.startswith("action residuals on interior 0..4:")
        assert "gamma_0" not in note

    def test_harmonic_gamma_is_monotone_at_dim_2_not_at_dim_3(self):
        # harmonic emits 0, 1, 1/2, ...: nondecreasing on its first two terms
        for dim, monotone in ((2, True), (3, False)):
            lp = build_ladder(random_pair(dim, 4), harmonic().terms(dim))
            assert lp.abs_monotone == monotone
            names = [c.name for c in random_report(dim, seed=1, gamma=harmonic()).checks]
            assert ("ladder_commutator" in names) == monotone

    def test_gamma0_warning_recorded(self):
        pair = random_pair(4, 2)
        lp = build_ladder(pair, np.array([0.5, 1.0, 2.0, 3.0]))
        check = result(check_products(lp))
        assert check.passed
        assert "gamma_0 = 0.5 != 0" in check.note
        assert "skip index 0" in check.note

    def test_action_check_random_pair(self):
        pair = random_pair(8, 14)
        lp = build_ladder(pair, sqrt_poly(1.0).terms(pair.dim))
        check = result(check_ladder_actions(lp))
        assert check.passed and check.residual <= 1e-10


class TestLadderAdjoints:
    def test_three_level_adjoint_actions(self):
        model, _, lp = three_level_ladder()
        g = lp.weights
        b_adj = lp.B_phi_psi.conj().T
        a_adj = lp.A_phi_psi.conj().T
        assert np.linalg.norm(b_adj @ model.psi[0]) <= 1e-12
        assert np.linalg.norm(b_adj @ model.psi[1] - g[1] * model.psi[0]) <= 1e-12
        assert np.linalg.norm(b_adj @ model.psi[2] - g[2] * model.psi[1]) <= 1e-12
        assert np.linalg.norm(a_adj @ model.psi[0] - g[1] * model.psi[1]) <= 1e-12
        assert np.linalg.norm(a_adj @ model.psi[1] - g[2] * model.psi[2]) <= 1e-12
        assert np.linalg.norm(a_adj @ model.psi[2]) <= 1e-12

    def test_identity_generator_real_gamma_exact(self):
        _, lp = bosonic_ladder(5)
        assert np.abs(lp.A_phi_psi.conj().T - lp.B_psi_phi).max() == 0.0

    def test_random_complex_gamma_dim_16(self):
        pair = random_pair(16, 6)
        rng = np.random.default_rng(61)
        lp = build_ladder(pair, random_vector(rng, 16))
        check = result(check_ladder_adjoints(lp))
        assert check.passed and check.residual <= 1e-10

    def test_all_four_variants(self):
        pair = random_pair(8, 62)
        rng = np.random.default_rng(62)
        gamma = explicit(random_vector(rng, 8))
        lp = build_ladder(pair, gamma.terms(pair.dim))
        conj = build_ladder(pair, conjugate(gamma).terms(pair.dim))
        assert np.abs(lp.A_phi_psi.conj().T - conj.B_psi_phi).max() <= 1e-10
        assert np.abs(lp.A_psi_phi.conj().T - conj.B_phi_psi).max() <= 1e-10
        assert np.abs(lp.B_phi_psi.conj().T - conj.A_psi_phi).max() <= 1e-10
        assert np.abs(lp.B_psi_phi.conj().T - conj.A_phi_psi).max() <= 1e-10


class TestProducts:
    def test_three_level_factorizes_exactly(self):
        model, _, lp = three_level_ladder()
        # gamma_3 is absent at dim 3, so BA = H on the full matrix
        assert np.abs(lp.B_phi_psi @ lp.A_phi_psi - model.H).max() <= 1e-11

    def test_three_level_hat_eigenvalues(self):
        model, _, lp = three_level_ladder()
        hat = lp.A_phi_psi @ lp.B_phi_psi
        eps_tilde = (model.eps[1], model.eps[2], 0.0)
        for n in range(3):
            assert (
                np.linalg.norm(hat @ model.phi[n] - eps_tilde[n] * model.phi[n])
                <= 1e-11
            )

    def test_bosonic_number_operator(self):
        _, lp = bosonic_ladder(6)
        ba = lp.B_phi_psi @ lp.A_phi_psi
        ab = lp.A_phi_psi @ lp.B_phi_psi
        np.testing.assert_allclose(ba, np.diag(np.arange(6.0)), atol=1e-13)
        np.testing.assert_allclose(
            ab[:5, :5], np.diag(np.arange(1.0, 6.0)), atol=1e-13
        )

    def test_product_check_random_monotone(self):
        pair = random_pair(8, 63)
        lp = build_ladder(pair, sqrt_poly(1.0).terms(pair.dim))
        check = result(check_products(lp))
        assert check.passed and check.residual <= 1e-10
        assert "matrix-level" in check.note

    def test_non_monotone_gamma_runs_action_checks_only(self):
        pair = random_pair(4, 64)
        lp = build_ladder(pair, np.array([0.0, 2.0, 1.0, 3.0]))
        check = result(check_products(lp))
        assert check.passed
        assert "skipped: gamma not" in check.note


class TestCommutator:
    def test_bosonic_canonical_commutation(self):
        _, lp = bosonic_ladder(8)
        f = np.eye(8)[3].astype(complex)
        check = result(check_commutator(lp, f))
        assert check.passed
        comm = lp.A_phi_psi @ lp.B_phi_psi - lp.B_phi_psi @ lp.A_phi_psi
        np.testing.assert_allclose(comm @ f, f, atol=1e-12)

    def test_three_level_ground_state(self):
        model, _, lp = three_level_ladder()
        comm = lp.A_phi_psi @ lp.B_phi_psi - lp.B_phi_psi @ lp.A_phi_psi
        expected = model.eps[1] * model.phi[0]
        assert np.linalg.norm(comm @ model.phi[0] - expected) <= 1e-11
        assert result(check_commutator(lp, model.phi[0])).passed

    def test_projection_pair_random_interior(self, rng):
        model = projection_model(8, np.array([0.6, 0.8j]), poly(1.0).terms(8))
        pair = from_generator(model.T)
        lp = build_ladder(pair, sqrt_poly(1.0).terms(pair.dim))
        f = pair.phi[:, :7] @ random_vector(rng, 7)
        check = result(check_commutator(lp, f))
        assert check.passed and check.residual <= 1e-10

    def test_nonzero_gamma_0_drops_out_of_the_ba_term(self, capsys):
        # A phi_0 = 0, so BA contributes 0, not gamma_0^2, at index 0
        assert main(["verify", "random", "--dim", "8", "--gamma", "geometric:1.1+0.3j"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        (check,) = [c for c in checks if c["name"] == "ladder_commutator"]
        assert check["passed"] and check["residual"] <= 1e-13

    def test_rejects_vector_outside_interior_span(self):
        pair, lp = bosonic_ladder(5)
        with pytest.raises(ValueError, match="interior span"):
            check_commutator(lp, pair.phi[:, 4])

    def test_rejects_non_monotone_gamma(self, rng):
        pair = random_pair(4, 65)
        lp = build_ladder(pair, np.array([0.0, 2.0, 1.0, 3.0]))
        with pytest.raises(ValueError, match="monotone"):
            check_commutator(lp, random_vector(rng, 4))


class TestFactorizeFromAlpha:
    def test_three_level(self):
        model = three_level(0.3)
        pair = from_generator(model.T)
        bundle = build_bundle(pair, np.array(model.eps))
        lp = factorize(bundle)
        np.testing.assert_allclose(
            lp.weights, three_level_gamma(model), atol=1e-12
        )
        assert np.abs(lp.B_phi_psi @ lp.A_phi_psi - model.H).max() <= 1e-11

    def test_bosonic(self):
        pair = from_generator(np.eye(6, dtype=complex))
        bundle = build_bundle(pair, poly(1.0).terms(pair.dim))
        lp = factorize(bundle)
        np.testing.assert_allclose(
            lp.B_phi_psi @ lp.A_phi_psi, np.diag(np.arange(6.0)), atol=1e-12
        )

    @staticmethod
    def reason(bundle):
        _, skipped, (reason,) = factorize_from_alpha(bundle)
        assert skipped
        return reason

    def test_rejects_disordered_alpha(self):
        pair = random_pair(3, 66)
        bundle = build_bundle(pair, np.array([0.0, 2.0, 1.0]))
        assert "index 2" in self.reason(bundle)

    def test_rejects_nonzero_start(self):
        pair = random_pair(3, 67)
        bundle = build_bundle(pair, np.array([1.0, 2.0, 3.0]))
        assert "alpha_0" in self.reason(bundle)

    def test_rejects_complex_alpha(self):
        pair = random_pair(3, 68)
        bundle = build_bundle(pair, np.array([0.0, 1j, 2.0]))
        assert "not real" in self.reason(bundle)

    def test_near_real_alpha_is_not_real(self):
        # an imaginary part far below tol still makes alpha complex
        alpha = parse_spec("list:0,1+1e-12j,2")
        reason = self.reason(build_bundle(random_pair(3, 68), alpha.terms(3)))
        assert reason == "alpha_1 = 1+1e-12j is not real"
        report = random_report(3, seed=1, alpha=alpha)
        (check,) = [c for c in report.checks if c.name == "factorization"]
        assert check.note == "skipped: alpha_1 = 1+1e-12j is not real"

    def test_preconditions_are_decided_per_point(self):
        # a stack of three points: each gets its own reason, and the roots
        # of a factorizable point do not depend on its neighbours
        gens = np.stack([random_generator_matrix(np.random.default_rng(s), 3) for s in (1, 2, 3)])
        alpha = np.array([[0.0, 2.0, 1.0], [0.0, 1.0, 4.0], [1.0, 2.0, 3.0]], dtype=complex)
        roots, skipped, reasons = factorize_from_alpha(build_bundle(from_generator(gens), alpha))
        assert skipped.tolist() == [True, False, True]
        assert "index 2" in reasons[0] and "alpha_0" in reasons[1]
        np.testing.assert_array_equal(roots[1], [0.0, 1.0, 2.0])
