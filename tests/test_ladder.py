import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    factorize,
    note_commutator,
    random_generator_matrix,
    random_pair,
    random_vector,
    result,
    three_level_gamma,
)
from oracles import conjugate, literal_H, symbolic_ladder_identities
from rieszops import (
    DEFAULT_TOL,
    build_bundle,
    build_ladder,
    check_ladder_actions,
    check_products,
    explicit,
    factorize_from_alpha,
    from_generator,
    rank_one_sum,
    sqrt_poly,
)
from rieszops import ladder
from rieszops.cli import main
from rieszops.factory import weighted_product
from rieszops.models import projection_model, three_level
from rieszops.sequences import harmonic, parse_spec, poly
from rieszops.suites import random_report, three_level_report


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
        assert np.linalg.norm(lp.A_phi_psi @ model.T[:, 0]) <= 1e-12
        assert (
            np.linalg.norm(lp.A_phi_psi @ model.T[:, 1] - g[1] * model.T[:, 0]) <= 1e-12
        )
        assert (
            np.linalg.norm(lp.A_phi_psi @ model.T[:, 2] - g[2] * model.T[:, 1]) <= 1e-12
        )

    def test_three_level_raising_actions(self):
        model, _, lp = three_level_ladder()
        g = lp.weights
        assert (
            np.linalg.norm(lp.B_phi_psi @ model.T[:, 0] - g[1] * model.T[:, 1]) <= 1e-12
        )
        assert (
            np.linalg.norm(lp.B_phi_psi @ model.T[:, 1] - g[2] * model.T[:, 2]) <= 1e-12
        )
        assert np.linalg.norm(lp.B_phi_psi @ model.T[:, 2]) <= 1e-12

    def test_bosonic_matrices(self):
        _, lp = bosonic_ladder(6)
        expected_a = np.diag(np.sqrt(np.arange(1, 6)), k=1)
        expected_b = np.diag(np.sqrt(np.arange(1, 6)), k=-1)
        np.testing.assert_allclose(lp.A_phi_psi, expected_a, atol=1e-14)
        np.testing.assert_allclose(lp.B_phi_psi, expected_b, atol=1e-14)

    def test_harmonic_gamma_is_monotone_at_dim_2_not_at_dim_3(self):
        # harmonic emits 0, 1, 1/2, ...: nondecreasing on its first two terms;
        # monotone or not, the products pass and the commutator stays within tol
        for dim, monotone in ((2, True), (3, False)):
            lp = build_ladder(random_pair(dim, 4), harmonic().terms(dim))
            assert lp.abs_monotone == monotone
            report = random_report(dim, seed=1, gamma=harmonic())
            checks = {c.name: c for c in report.checks}
            assert checks["ladder_products"].passed
            assert note_commutator(checks["ladder_products"].note) <= DEFAULT_TOL
            assert checks["ladder_products"].note.endswith(
                "gamma |.|-monotone" if monotone else "gamma not |.|-monotone"
            )

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
        assert np.linalg.norm(b_adj @ model.psi[:, 0]) <= 1e-12
        assert np.linalg.norm(b_adj @ model.psi[:, 1] - g[1] * model.psi[:, 0]) <= 1e-12
        assert np.linalg.norm(b_adj @ model.psi[:, 2] - g[2] * model.psi[:, 1]) <= 1e-12
        assert np.linalg.norm(a_adj @ model.psi[:, 0] - g[1] * model.psi[:, 1]) <= 1e-12
        assert np.linalg.norm(a_adj @ model.psi[:, 1] - g[2] * model.psi[:, 2]) <= 1e-12
        assert np.linalg.norm(a_adj @ model.psi[:, 2]) <= 1e-12

    def test_identity_generator_real_gamma_exact(self):
        # B_{psi,phi} for real gamma: the lowering slices swapped
        pair, lp = bosonic_ladder(5)
        b_psi_phi = rank_one_sum(lp.weights[1:], pair.psi[:, 1:], pair.phi[:, :-1])
        assert np.abs(lp.A_phi_psi.conj().T - b_psi_phi).max() == 0.0

    def test_all_four_variants(self):
        """(A_{phi,psi})* = B_{psi,phi}, (A_{psi,phi})* = B_{phi,psi} and the
        other two, with conjugated weights on the right: rank-one sums over
        the column slices, the adjoint rule of rank_one_sum on each."""
        pair = random_pair(8, 62)
        rng = np.random.default_rng(62)
        gamma = explicit(random_vector(rng, 8))
        lp = build_ladder(pair, gamma.terms(pair.dim))
        conj = build_ladder(pair, conjugate(gamma).terms(pair.dim))
        w, phi, psi = conj.weights[1:], pair.phi, pair.psi
        a_psi_phi = rank_one_sum(lp.weights[1:], psi[:, :-1], phi[:, 1:])
        b_psi_phi = rank_one_sum(lp.weights[1:], psi[:, 1:], phi[:, :-1])
        conj_a_psi_phi = rank_one_sum(w, psi[:, :-1], phi[:, 1:])
        conj_b_psi_phi = rank_one_sum(w, psi[:, 1:], phi[:, :-1])
        assert np.abs(lp.A_phi_psi.conj().T - conj_b_psi_phi).max() <= 1e-10
        assert np.abs(a_psi_phi.conj().T - conj.B_phi_psi).max() <= 1e-10
        assert np.abs(lp.B_phi_psi.conj().T - conj_a_psi_phi).max() <= 1e-10
        assert np.abs(b_psi_phi.conj().T - conj.A_phi_psi).max() <= 1e-10


class TestProducts:
    def test_three_level_factorizes_exactly(self):
        model, _, lp = three_level_ladder()
        # gamma_3 is absent at dim 3, so BA = H on the full matrix
        assert np.abs(lp.B_phi_psi @ lp.A_phi_psi - model.H_phi_psi).max() <= 1e-11

    def test_three_level_hat_eigenvalues(self):
        model, _, lp = three_level_ladder()
        hat = lp.A_phi_psi @ lp.B_phi_psi
        eps_tilde = (model.eps[1], model.eps[2], 0.0)
        for n in range(3):
            assert (
                np.linalg.norm(hat @ model.T[:, n] - eps_tilde[n] * model.T[:, n])
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
        assert check.note.startswith("max-entry BA")

    def test_residual_is_the_max_entry_of_either_difference(self):
        pair = random_pair(6, 64)
        g = np.array([0.5, 2.0, 1.0, 3.0, 1.5j, 4.0])  # gamma_0 != 0, not monotone
        lp = build_ladder(pair, g)
        shifted = [np.concatenate([[0.0], g[1:] ** 2]), np.concatenate([g[1:] ** 2, [0.0]])]
        h_ba, h_ab = (rank_one_sum(w, pair.phi, pair.psi) for w in shifted)
        np.testing.assert_allclose(h_ba, literal_H(pair, shifted[0], "phi_psi"), atol=1e-12)
        np.testing.assert_allclose(h_ab, literal_H(pair, shifted[1], "phi_psi"), atol=1e-12)
        ba, ab = lp.B_phi_psi @ lp.A_phi_psi, lp.A_phi_psi @ lp.B_phi_psi
        expected = max(np.abs(ba - h_ba).max(), np.abs(ab - h_ab).max())
        check = result(check_products(lp))
        assert check.residual == expected and check.passed
        assert check.note.endswith("gamma not |.|-monotone")


#: gamma with gamma_0 = 0 and monotone, gamma_0 = 3 and not |.|-monotone,
#: not monotone after its first two terms, and complex with growing modulus
EXACT_GAMMAS = ("sqrt-poly:1", "affine:-1,3", "harmonic", "geometric:1.1+0.3j")


def _exact_cases(dims):
    for spec in EXACT_GAMMAS:
        for dim in dims:
            if spec.startswith("geometric") and dim > 16:
                continue  # |gamma|^2 reaches 1e7 at dim 64: rounding, not the identity
            yield spec, dim


class TestExactIdentities:
    """At truncation BA = H^{(0, gamma_1^2, ...)} and AB = H^{(..., 0)} hold on
    the whole space for every gamma, so the products pass, with the
    commutator in their note within tol, with no hypothesis on gamma, and a
    perturbed ladder fails them."""

    @pytest.mark.parametrize("spec, dim", list(_exact_cases((3, 16, 64))))
    def test_products_and_commutator_pass(self, spec, dim):
        lp = build_ladder(random_pair(dim, 71), parse_spec(spec).terms(dim))
        single = result(check_products(lp))
        assert single.passed, single.residual
        assert note_commutator(single.note) <= DEFAULT_TOL, single.note

    @pytest.mark.parametrize("dim", [3, 64])
    @pytest.mark.parametrize("spec", EXACT_GAMMAS)
    @pytest.mark.parametrize("field", ["A_phi_psi", "B_phi_psi"])
    def test_perturbed_entry_fails_products(self, spec, dim, field):
        lp = build_ladder(random_pair(dim, 72), parse_spec(spec).terms(dim))
        last, mid = dim - 1, dim // 2
        for entry in ((0, 0), (0, last), (last, 0), (last, last), (mid, mid)):
            m = getattr(lp, field).copy()
            m[entry] += 1e-8 * np.abs(m).max()
            check = result(check_products(replace(lp, **{field: m})))
            assert not check.passed, (entry, check.residual)


def test_truncation_identities_hold_in_exact_arithmetic():
    # BA, AB and the factorization H - a_0 I = BA, for symbolic gamma and a
    pytest.importorskip("sympy")
    for diff in symbolic_ladder_identities():
        assert all(entry == 0 for entry in diff), diff


class TestShiftActionResidual:
    def test_equals_worst_column_of_the_joined_residuals(self):
        # the literal form, bit for bit: both shift residuals side by side
        rng = np.random.default_rng(5)
        pair = random_pair(6, 5)
        lower = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        upper = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        g = sqrt_poly(1.0).terms(6)
        cols = pair.phi
        down, up = np.zeros_like(cols), np.zeros_like(cols)
        down[:, 1:] = cols[:, :-1] * g[1:]
        up[:, :-1] = cols[:, 1:] * g[1:]
        joined = np.concatenate([lower @ cols - down, upper @ cols - up], axis=1)
        worst = ladder.shift_action_residual(lower, upper, cols, g)
        assert worst == np.linalg.norm(joined, axis=0).max()

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_a_nan_column_on_either_side_gives_nan(self, side):
        _, lp = bosonic_ladder(5)
        ops = {"lower": lp.A_phi_psi.copy(), "upper": lp.B_phi_psi.copy()}
        ops[side][:, 2] = np.nan
        worst = ladder.shift_action_residual(
            ops["lower"], ops["upper"], lp.pair.phi, lp.weights
        )
        assert np.isnan(worst)


class TestCommutator:
    """AB - BA = H_ab - H_ba, recorded in the ladder_products note."""

    @staticmethod
    def commutator(lp):
        check = result(check_products(lp))
        assert check.passed, check.residual
        return note_commutator(check.note)

    def test_bosonic_canonical_commutation(self):
        # [A, B] = I on the first N-1 basis vectors and 1 - N on the last
        _, lp = bosonic_ladder(8)
        assert self.commutator(lp) <= DEFAULT_TOL
        comm = lp.A_phi_psi @ lp.B_phi_psi - lp.B_phi_psi @ lp.A_phi_psi
        np.testing.assert_allclose(comm, np.diag([1.0] * 7 + [-7.0]), atol=1e-12)

    def test_three_level_ground_state(self):
        model, _, lp = three_level_ladder()
        comm = lp.A_phi_psi @ lp.B_phi_psi - lp.B_phi_psi @ lp.A_phi_psi
        expected = model.eps[1] * model.T[:, 0]
        assert np.linalg.norm(comm @ model.T[:, 0] - expected) <= 1e-11
        assert self.commutator(lp) <= DEFAULT_TOL

    def test_projection_pair(self):
        model = projection_model(8, np.array([0.6, 0.8j]), poly(1.0).terms(8))
        pair = from_generator(model.T)
        lp = build_ladder(pair, sqrt_poly(1.0).terms(pair.dim))
        assert self.commutator(lp) <= 1e-10

    @pytest.mark.parametrize("dim", [3, 64])
    @pytest.mark.parametrize("spec", ["sqrt-poly:1", "geometric:1.1+0.3j"])
    def test_note_matches_independent_commutator(self, spec, dim):
        # a dense perturbation of A lifts the commutator residual far above
        # rounding, so the note's (AB - H_ab) - (BA - H_ba) and the literal
        # (AB - BA) - (H_ab - H_ba) agree to the note's printed digits
        pair = random_pair(dim, 73)
        g = parse_spec(spec).terms(dim)
        lp = build_ladder(pair, g)
        noise = random_generator_matrix(np.random.default_rng(74), dim)
        a = lp.A_phi_psi + 1e-6 * np.abs(lp.A_phi_psi).max() * noise
        b = lp.B_phi_psi
        h_ab = literal_H(pair, np.concatenate([g[1:] ** 2, [0.0]]), "phi_psi")
        h_ba = literal_H(pair, np.concatenate([[0.0], g[1:] ** 2]), "phi_psi")
        expected = np.abs((a @ b - b @ a) - (h_ab - h_ba)).max()
        check = result(check_products(replace(lp, A_phi_psi=a)))
        assert not check.passed
        assert note_commutator(check.note) == pytest.approx(expected, rel=5e-4)

    def test_nonzero_gamma_0_drops_out_of_the_ba_term(self, capsys):
        # A phi_0 = 0, so BA contributes 0, not gamma_0^2, at index 0
        assert main(["verify", "random", "--dim", "8", "--gamma", "geometric:1.1+0.3j"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        (check,) = [c for c in checks if c["name"] == "ladder_products"]
        assert check["passed"] and note_commutator(check["note"]) <= 1e-13


def _factorize_stack(gens, alpha):
    """factorize_from_alpha of a stack of points, with the weights and the
    realness their bundle holds."""
    bundle = build_bundle(from_generator(gens), alpha)
    return factorize_from_alpha(bundle.weights, bundle.is_real)


class TestFactorizeFromAlpha:
    def test_three_level(self):
        model = three_level(0.3)
        pair = from_generator(model.T)
        bundle = build_bundle(pair, np.array(model.eps))
        lp = factorize(bundle)
        np.testing.assert_allclose(
            lp.weights, three_level_gamma(model), atol=1e-12
        )
        assert np.abs(lp.B_phi_psi @ lp.A_phi_psi - model.H_phi_psi).max() <= 1e-11

    def test_bosonic(self):
        pair = from_generator(np.eye(6, dtype=complex))
        bundle = build_bundle(pair, poly(1.0).terms(pair.dim))
        lp = factorize(bundle)
        np.testing.assert_allclose(
            lp.B_phi_psi @ lp.A_phi_psi, np.diag(np.arange(6.0)), atol=1e-12
        )

    @staticmethod
    def reason(bundle):
        _, skipped, (reason,) = factorize_from_alpha(bundle.weights, bundle.is_real)
        assert skipped
        return reason

    def test_rejects_disordered_alpha(self):
        pair = random_pair(3, 66)
        bundle = build_bundle(pair, np.array([0.0, 2.0, 1.0]))
        assert "index 2" in self.reason(bundle)

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
        assert check.passed
        assert check.note.endswith("the paper's hypotheses fail: alpha_1 = 1+1e-12j is not real")

    def test_preconditions_are_decided_per_point(self):
        # a stack of three points: each gets its own reason, and the roots
        # of a point do not depend on its neighbours
        gens = np.stack([random_generator_matrix(np.random.default_rng(s), 3) for s in (1, 2, 3)])
        alpha = np.array([[0.0, 2.0, 1.0], [0.0, 1.0, 4.0], [1.0, 2.0, 5.0j]], dtype=complex)
        roots, failed, reasons = _factorize_stack(gens, alpha)
        assert failed.tolist() == [True, False, True]
        assert "index 2" in reasons[0] and reasons[1] == "alpha_2 = 0+5j is not real"
        np.testing.assert_array_equal(roots[1], [0.0, 1.0, 2.0])

    @staticmethod
    def reference_reason(a):
        """What one failed point's alpha (dim,) fails, one point at a time:
        the reference for the batched reasons."""
        if a.imag.any():
            k = int(np.argmax(np.abs(a.imag)))
            return f"alpha_{k} = {a[k]:.6g} is not real"
        k = int(np.argmax(np.diff(a.real) <= DEFAULT_TOL)) + 1
        return (
            f"alpha does not increase strictly: violated at index {k} "
            f"(alpha_{k} = {a.real[k]:.6g} <= alpha_{k - 1} = {a.real[k - 1]:.6g})"
        )

    def test_reasons_of_a_mixed_stack(self):
        """One stack mixes real strictly increasing points, real points that
        do not increase (a drop, an equal step, a step below DEFAULT_TOL, a
        decreasing alpha) and complex points (largest imaginary part first,
        inside and last): each failed point gets its own reason, in batch
        order, formatted at 6 significant digits, as the one-point reference
        formats it."""
        alpha = np.array(
            [
                [0.0, 1.0, 4.0, 9.0],
                [0.0, 2.0, 1.0, 3.0],
                [1.0, 1.0 + 1e-11, 2.0, 3.0],
                [0.0, 1.0, 1.0, 3.0],
                [3j, 1.0, 2.0 + 1j, 3.0],
                [-0.5, 0.25, 1.5, 2.0],
                [0.0, 1.0 - 0.5j, 2.0, 3.0 + 0.25j],
                [5.0, 4.0, 3.0, 2.0],
                [0.0, 1.0, 2.0, 3.0 + 2e-7j],
                [1.0 / 3.0, 0.125, 7.0, 8.0],
            ],
            dtype=complex,
        )
        gens = np.stack(
            [random_generator_matrix(np.random.default_rng(s), 4) for s in range(len(alpha))]
        )
        _, failed, reasons = _factorize_stack(gens, alpha)
        assert failed.tolist() == [False, True, True, True, True, False, True, True, True, True]
        step = "alpha does not increase strictly: violated at index "
        assert reasons == [
            step + "2 (alpha_2 = 1 <= alpha_1 = 2)",
            step + "1 (alpha_1 = 1 <= alpha_0 = 1)",
            step + "2 (alpha_2 = 1 <= alpha_1 = 1)",
            "alpha_0 = 0+3j is not real",
            "alpha_1 = 1-0.5j is not real",
            step + "1 (alpha_1 = 4 <= alpha_0 = 5)",
            "alpha_3 = 3+2e-07j is not real",
            step + "1 (alpha_1 = 0.125 <= alpha_0 = 0.333333)",
        ]
        assert reasons == [self.reference_reason(point) for point in alpha[failed]]

    def test_reasons_match_the_reference_on_a_random_stack(self):
        rng = np.random.default_rng(4)
        alpha = np.cumsum(rng.normal(0.5, 1.0, size=(200, 8)), axis=-1).astype(complex)
        alpha[::3] += 1j * (rng.random((67, 8)) < 0.2) * rng.normal(size=(67, 8))
        alpha[1::7, 4] = alpha[1::7, 3]  # equal steps
        gens = np.broadcast_to(np.eye(8, dtype=complex), (200, 8, 8))
        _, failed, reasons = _factorize_stack(gens, alpha)
        assert 50 < failed.sum() < 200
        assert reasons == [self.reference_reason(point) for point in alpha[failed]]

    def test_dim_1_fails_only_when_complex(self):
        gens = np.ones((2, 1, 1), dtype=complex)
        alpha = np.array([[2.0], [0.5 + 1j]])
        _, failed, reasons = _factorize_stack(gens, alpha)
        assert failed.tolist() == [False, True]
        assert reasons == ["alpha_0 = 0.5+1j is not real"]

    def test_roots_shift_by_alpha_0(self):
        # alpha_0 = 1 is no hypothesis: gamma_n = sqrt(alpha_n - 1)
        bundle = build_bundle(random_pair(3, 67), np.array([1.0, 2.0, 5.0]))
        roots, failed, reasons = factorize_from_alpha(bundle.weights, bundle.is_real)
        assert not failed and not reasons
        np.testing.assert_array_equal(roots, [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("dim", [3, 16, 64])
    @pytest.mark.parametrize(
        "spec, fact",
        [
            ("affine:-1,3", "fail: alpha does not increase strictly: violated at index 1"),
            ("geometric:0.9+0.2j", "is not real"),
            ("poly:2", "alpha is real and strictly increasing: the paper's hypotheses hold"),
        ],
    )
    def test_factorization_holds_for_every_alpha(self, spec, fact, dim):
        # H - alpha_0 I = BA for gamma_n = sqrt(alpha_n - alpha_0); the note
        # names the hypothesis of the paper that fails, if one does
        report = random_report(dim, seed=1, alpha=parse_spec(spec))
        (check,) = [c for c in report.checks if c.name == "factorization"]
        assert check.passed, check.residual
        assert fact in check.note

    @pytest.mark.parametrize(
        "make_report, builds",
        [
            (lambda: random_report(8, seed=0), 1),
            (lambda: random_report(8, seed=0, alpha=parse_spec("affine:1,2")), 1),
            (lambda: three_level_report(0.3), 1),
            (lambda: random_report(8, seed=0, gamma=harmonic()), 2),
        ],
        ids=["sqrt-poly", "shifted-alpha", "three-level", "other-gamma"],
    )
    def test_one_ladder_when_gamma_is_the_roots(self, monkeypatch, make_report, builds):
        calls = []
        build = ladder.build_ladder

        def counting(pair, weights):
            calls.append(weights)
            return build(pair, weights)

        monkeypatch.setattr(ladder, "build_ladder", counting)
        make_report()
        assert len(calls) == builds

    @pytest.mark.parametrize(
        "make_report, sums",
        [
            (lambda: random_report(16, seed=1, alpha=poly(2.0)), 4),
            (
                lambda: random_report(
                    16, seed=1, alpha=poly(2.0), gamma=parse_spec("geometric:1.1+0.3j")
                ),
                4,
            ),
            (lambda: random_report(16, seed=1), 2),
            (lambda: three_level_report(0.3), 2),
        ],
        ids=["factorization-ladder", "complex-gamma", "one-ladder", "three-level"],
    )
    def test_each_ladder_builds_only_a_and_b(self, monkeypatch, make_report, sums):
        # 2 shift sums for the gamma ladder and 2 for the factorization's own
        # ladder where its roots are not gamma; a complex gamma builds no
        # conj(gamma) ladder.  A shift sum pairs dim - 1 columns, the shifted
        # H of the products all dim
        calls = []

        def counting(weighted, right_adj):
            if weighted.shape[-1] == weighted.shape[-2] - 1:
                calls.append(weighted)
            return weighted_product(weighted, right_adj)

        monkeypatch.setattr(ladder, "weighted_product", counting)
        make_report()
        assert len(calls) == sums
