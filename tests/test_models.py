import numpy as np
import pytest

from conftest import factorize, random_vector, result
from oracles import spectral_projectors, symbolic_projection, symbolic_three_level
from rieszops import (
    build_bundle,
    from_generator,
    operator_norm,
    poly,
)
from rieszops.ladder import build_ladder, factorize_from_alpha
from rieszops.models import (
    projection_model,
    three_level,
    three_level_hat_spectrum,
    three_level_ladder_closed_forms,
)


class TestThreeLevel:
    def test_spectrum_at_zero(self):
        model = three_level(0.0)
        assert tuple(model.eps) == (0.0, 1.0, 3.0)
        assert model.H_phi_psi[0, 0] == pytest.approx(-3 / 5)
        assert model.admissible

    def test_inadmissible_at_pi_over_2(self):
        model = three_level(np.pi / 2)
        assert not model.admissible
        assert model.eps[1] == pytest.approx(-1.0)

    def test_admissible_wraps_past_5pi_over_3(self):
        assert three_level(5.9).admissible
        assert not three_level(np.pi).admissible

    @pytest.mark.parametrize(
        "t",
        [5 * np.pi / 3, np.pi / 3 - 1e-12, 5 * np.pi / 3 + 1e-12, np.pi / 3],
        ids=["5pi/3", "below-pi/3", "above-5pi/3", "pi/3"],
    )
    def test_boundary_band_is_not_admissible(self, t):
        # the smallest gap 2cos t - 1 is not above tol = 1e-10
        model = three_level(t)
        assert not model.admissible
        assert model.eps[1] - model.eps[0] <= 1e-10

    @pytest.mark.parametrize("gap, admissible", [(2e-10, True), (5e-11, False)])
    def test_admissibility_threshold_is_default_tol(self, gap, admissible):
        # a guard at the fixed DEFAULT_TOL = 1e-10, not at the check tolerance
        model = three_level(float(np.arccos((1.0 + gap) / 2.0)))
        assert model.eps[1] == pytest.approx(gap, rel=1e-6)
        assert model.admissible == admissible

    @pytest.mark.parametrize(
        "t",
        [*np.linspace(0.0, 2 * np.pi, 24, endpoint=False),
         5 * np.pi / 3, np.pi / 3 - 1e-12, 5 * np.pi / 3 + 1e-12, np.pi / 3],
    )
    def test_admissible_exactly_when_factorizable(self, t):
        # both guards compare the same eigenvalue gaps with DEFAULT_TOL
        model = three_level(float(t))
        eps = np.array(model.eps, dtype=complex)
        bundle = build_bundle(from_generator(model.T), eps)
        _, skipped, _ = factorize_from_alpha(bundle.weights, bundle.is_real)
        assert model.admissible == (not skipped)

    def test_parameter_domain_enforced(self):
        with pytest.raises(ValueError, match="parameter domain"):
            three_level(-0.1)
        with pytest.raises(ValueError, match="parameter domain"):
            three_level(2 * np.pi)

    def test_oracle_vs_generic_pipeline(self):
        model = three_level(0.3)
        pair = from_generator(model.T)
        bundle = build_bundle(pair, np.array(model.eps))
        assert np.abs(bundle.H_phi_psi - model.H_phi_psi).max() <= 1e-11
        assert np.abs(bundle.S_phi - model.S_phi).max() <= 1e-11
        assert np.abs(bundle.S_psi - model.S_psi).max() <= 1e-11
        assert np.abs(bundle.S_phi_sqrt - model.S_phi_sqrt).max() <= 1e-11
        assert np.abs(bundle.S_psi_sqrt - model.S_psi_sqrt).max() <= 1e-11
        assert np.abs(bundle.h - model.h).max() <= 1e-11

    def test_oracle_vs_generic_across_sampled_parameters(self):
        for t in np.linspace(0.0, np.pi / 3 - 0.02, 20):
            model = three_level(float(t))
            pair = from_generator(model.T)
            bundle = build_bundle(pair, np.array(model.eps))
            assert np.abs(bundle.h - model.h).max() <= 1e-10
            assert np.abs(bundle.Phi - model.Phi).max() <= 1e-10

    def test_norm_constant_in_parameter(self):
        expected = np.sqrt((39 + 7 * np.sqrt(29)) / 2)
        for t in np.linspace(0.0, 2 * np.pi, 25, endpoint=False):
            model = three_level(float(t))
            assert abs(operator_norm(model.T) - expected) <= 1e-10

    def test_metric_root_is_not_the_generator(self):
        # S_phi^{1/2} - T has entries 2 + 2cos(t/2) and 6 - 6cos(t/2), one of
        # which is >= 3 for every t: the closed-form root check implies it
        for t in np.linspace(0.0, 2 * np.pi, 49, endpoint=False):
            model = three_level(float(t))
            assert np.abs(model.S_phi_sqrt - model.T).max() >= 3.0

    def test_printed_ladder_matrices_match_generic(self):
        for t in (0.0, 0.2, 0.9):
            model = three_level(t)
            pair = from_generator(model.T)
            bundle = build_bundle(pair, np.array(model.eps))
            lp = factorize(bundle)
            a_closed, b_closed = three_level_ladder_closed_forms(model)
            assert np.abs(lp.A_phi_psi - a_closed).max() <= 1e-11
            assert np.abs(lp.B_phi_psi - b_closed).max() <= 1e-11


@pytest.fixture(scope="module")
def derived():
    """The sympy derivation of the 3x3 model, and its matrices as functions
    of (t, gamma_1, gamma_2)."""
    sp = pytest.importorskip("sympy")
    exact, symbols = symbolic_three_level()
    lambdified = {
        name: sp.lambdify(symbols, m, "numpy")
        for name, m in exact.items()
        if isinstance(m, sp.MatrixBase)
    }

    def at(name, t, g1=0.0, g2=0.0):
        return np.array(lambdified[name](np.sin(t / 2), np.cos(t / 2), g1, g2), dtype=complex)

    return sp, exact, at


#: inside [0, pi/3), inside (5pi/3, 2pi), and outside both
ADMISSIBLE_T = (0.0, 0.3, 0.8, 5.5, 6.1)
INADMISSIBLE_T = (1.2, 2.0, 3.0, 4.5)


class TestSymbolicThreeLevel:
    """models.three_level's closed forms against a derivation in exact
    arithmetic from the phi_n rows and eps(t) alone."""

    def test_exact_facts(self, derived):
        sp, exact, _ = derived
        assert exact["det_T"] == -10
        assert exact["S_phi"] == sp.Matrix([[2, 0, 7], [0, 4, 0], [7, 0, 37]])  # free of t
        root = exact["S_phi_sqrt"]
        assert root**2 == exact["S_phi"]
        # symmetric positive definite: the principal square root
        assert root.is_symmetric() and all(lam > 0 for lam in root.eigenvals())
        norm_squared = exact["norm_T_squared"]
        assert sp.simplify(norm_squared - (39 + 7 * sp.sqrt(29)) / 2) == 0
        assert sp.simplify(exact["norm_T_inv_squared"] - norm_squared / 25) == 0

    @pytest.mark.parametrize("t", ADMISSIBLE_T + INADMISSIBLE_T)
    def test_closed_forms_match_the_derivation(self, derived, t):
        _, exact, at = derived
        model = three_level(t)
        expected = {
            "S_phi": model.S_phi,
            "S_psi": model.S_psi,
            "S_phi_sqrt": model.S_phi_sqrt,
            "S_psi_sqrt": model.S_psi_sqrt,
            "psi": model.psi,
            "H": model.H_phi_psi,
            "h": model.h,
            "Phi": model.Phi,
        }
        for name, closed in expected.items():
            assert np.abs(closed - at(name, t)).max() <= 1e-12, name
        pair = from_generator(model.T)
        assert abs(pair.frame_upper - np.sqrt(float(exact["norm_T_squared"]))) <= 1e-12
        assert abs(1.0 / pair.frame_lower - np.sqrt(float(exact["norm_T_inv_squared"]))) <= 1e-12

    @pytest.mark.parametrize("t", ADMISSIBLE_T + INADMISSIBLE_T)
    def test_printed_ladder_matches_literal_shift_sums(self, derived, t):
        # principal roots: outside the admissible interval eps_1 < 0 and
        # gamma_1 is imaginary (at t = 3.0 gamma_2 too)
        _, _, at = derived
        model = three_level(t)
        g1, g2 = np.sqrt(model.eps[1:].astype(complex))
        assert (g1.imag > 0) == (t in INADMISSIBLE_T)
        a_closed, b_closed = three_level_ladder_closed_forms(model)
        assert np.abs(a_closed - at("A", t, g1, g2)).max() <= 1e-12
        assert np.abs(b_closed - at("B", t, g1, g2)).max() <= 1e-12


class TestHatSpectrum:
    def hat_inputs(self, t):
        model = three_level(t)
        pair = from_generator(model.T)
        bundle = build_bundle(pair, np.array(model.eps))
        lp = factorize(bundle)
        return model, lp

    def test_actions_at_0_3(self):
        model, lp = self.hat_inputs(0.3)
        check = result(three_level_hat_spectrum(model, lp.AB), tol=1e-11)
        assert check.passed and check.residual <= 1e-11

    def test_relabeling_at_zero(self):
        model, lp = self.hat_inputs(0.0)
        # eps = (0, 1, 3): AB phi_n = (1, 3, 0)_n phi_n
        check = result(three_level_hat_spectrum(model, lp.AB))
        assert check.passed and check.residual <= 1e-12

    def test_trace_cyclicity(self):
        model, lp = self.hat_inputs(0.3)
        ab = lp.A_phi_psi @ lp.B_phi_psi
        ba = lp.B_phi_psi @ lp.A_phi_psi
        expected = model.eps[1] + model.eps[2]
        assert np.trace(ab).real == pytest.approx(expected, abs=1e-11)
        assert np.trace(ba).real == pytest.approx(expected, abs=1e-11)

    @pytest.mark.parametrize("t", [np.pi, 1.2], ids=["pi", "1.2"])
    def test_holds_outside_the_admissible_interval(self, t):
        # eps_1 < 0, so the ladder's gamma_1 = sqrt(eps_1) is imaginary; its
        # AB = H^{(eps_1, eps_2, 0)} has the relabeled spectrum all the same
        model = three_level(t)
        bundle = build_bundle(from_generator(model.T), np.array(model.eps))
        roots, failed, _ = factorize_from_alpha(bundle.weights, bundle.is_real)
        assert failed and roots[1].imag > 0
        check = result(three_level_hat_spectrum(model, build_ladder(bundle.pair, roots).AB))
        assert check.passed and check.residual <= 1e-12


#: two exact unit vectors at N = 4, supports {0, 1} and {1, 3}, and weights
PROJECTION_U = ((("3/5", "4/5*I"), (0, 1, 2 + 1j, -3)),
                (("0", "5/13", "0", "12/13*I"), (1, -2, 0.5, 4j)))


def test_projection_closed_forms_match_sympy():
    """T^{-1} = psi*, the case formulas for phi_n and psi_n and the H split
    against an exact derivation from u alone, one point at a time and as one
    zero-padded stack."""
    sp = pytest.importorskip("sympy")

    def derived(model):
        return model.psi.conj().mT, model.T, model.psi, model.H_phi_psi

    padded = np.zeros((2, 4), dtype=complex)
    alphas = np.array([alpha for _, alpha in PROJECTION_U], dtype=complex)
    for k, (coeffs, _) in enumerate(PROJECTION_U):
        padded[k, : len(coeffs)] = [complex(sp.sympify(c)) for c in coeffs]
    stacked = derived(projection_model(4, padded, alphas))
    for k, (coeffs, alpha) in enumerate(PROJECTION_U):
        u = [sp.sympify(c) for c in coeffs] + [0] * (4 - len(coeffs))
        exact = symbolic_projection(u, [sp.nsimplify(a) for a in alpha])
        single = derived(projection_model(4, padded[k, : len(coeffs)], alphas[k]))
        for got, stack, want in zip(single, stacked, exact):
            assert np.abs(got - np.array(want.evalf(30), dtype=complex)).max() <= 1e-15
            np.testing.assert_array_equal(stack[k], got)


def assert_projectors_match(h, bundle):
    """The projectors phi_n psi_n* of the bundle's pair against those that H
    alone determines, within 100 eps / gap: eig's eigenvectors lose about
    eps / gap as two eigenvalues close in.  alpha is the spectrum and
    increases, so the oracle's order by real part is the pair's order."""
    alpha = bundle.weights.real
    gap = np.diff(alpha).min()
    lam, projectors = spectral_projectors(h)
    pair = bundle.pair
    ours = np.einsum("in,jn->nij", pair.phi, pair.psi.conj())
    assert np.abs(lam - alpha).max() <= 1e-13 * np.abs(alpha).max()
    assert np.abs(projectors - ours).max() <= 100 * np.finfo(float).eps / gap


class TestSpectralProjectors:
    """From H to the pair: eig of the closed-form H and of the bundle's H
    recovers the library's spectral projectors."""

    @pytest.mark.parametrize("t", [0.3, 1.0, np.pi / 3 - 1e-3, np.pi / 3 - 1e-6])
    def test_three_level_up_to_the_closing_gap(self, t):
        model = three_level(t)
        bundle = build_bundle(from_generator(model.T), model.eps.astype(complex))
        for h in (model.H_phi_psi, bundle.H_phi_psi):
            assert_projectors_match(h, bundle)

    @pytest.mark.parametrize("support", range(2, 9))
    def test_projection(self, support):
        for seed in range(5):
            coeffs = random_vector(np.random.default_rng(seed), support)
            model = projection_model(8, coeffs / np.linalg.norm(coeffs), poly(1.0).terms(8))
            bundle = build_bundle(from_generator(model.T), model.weights)
            for h in (model.H_phi_psi, bundle.H_phi_psi):
                assert_projectors_match(h, bundle)


class TestProjectionModel:
    def test_contiguous_support_H_split(self):
        model = projection_model(6, np.array([1.0, 1.0]) / np.sqrt(2), poly(1.0).terms(6))
        pair = from_generator(model.T)
        bundle = build_bundle(pair, poly(1.0).terms(pair.dim))
        assert np.abs(bundle.H_phi_psi - model.H_phi_psi).max() <= 1e-11

    def test_rejects_single_nonzero_coefficient(self):
        with pytest.raises(ValueError, match="two nonzero"):
            projection_model(4, np.array([1.0]), poly(1.0).terms(4))
        with pytest.raises(ValueError, match="two nonzero"):
            projection_model(4, np.array([1.0, 0.0]), poly(1.0).terms(4))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            projection_model(4, np.array([1.0, 1.0]), poly(1.0).terms(4))

    def test_closed_form_invariants(self, rng):
        coeffs = random_vector(rng, 3)
        coeffs /= np.linalg.norm(coeffs)
        model = projection_model(8, coeffs, poly(1.0).terms(8))
        eye = np.eye(8)
        P = model.S_phi - eye
        assert np.abs(P @ P - P).max() <= 1e-12
        assert np.abs(P - P.conj().T).max() <= 1e-12
        assert np.abs(model.T @ model.psi.conj().T - eye).max() <= 1e-12
        assert np.abs(model.T @ model.T.conj().T - model.S_phi).max() <= 1e-12
        assert (
            np.abs(model.S_phi_sqrt @ model.S_phi_sqrt - model.S_phi).max() <= 1e-12
        )
        assert (
            np.abs(model.S_psi_sqrt @ model.S_phi_sqrt - eye).max() <= 1e-12
        )

    def test_scattered_support(self):
        coeffs = np.array([0.6, 0.0, 0.8j])
        model = projection_model(8, coeffs, poly(1.0).terms(8))
        assert np.flatnonzero(model.inside).tolist() == [0, 2]
        pair = from_generator(model.T)
        assert np.abs(pair.psi - model.psi).max() <= 1e-12
        np.testing.assert_allclose(pair.phi[:, 1], np.eye(8)[1], atol=1e-12)
        np.testing.assert_allclose(model.psi[:, 1], np.eye(8)[1], atol=1e-12)

    def test_seeded_h_block(self):
        rng = np.random.default_rng(7)
        coeffs = random_vector(rng, 3)
        coeffs /= np.linalg.norm(coeffs)
        model = projection_model(8, coeffs, poly(1.0).terms(8))
        bundle = build_bundle(from_generator(model.T), model.weights)
        h = bundle.h
        assert np.abs(h - h.conj().T).max() <= 1e-10
        weights = poly(1.0).terms(8)
        for k in range(3, 8):
            col = h[:, k].copy()
            col[k] -= weights[k]
            assert np.abs(col).max() <= 1e-10

    def test_transported_low_block_spectrum(self):
        # the support block of h is Hermitian with the support weights as
        # eigenvalues, exhibited by the transported eigenvectors
        rng = np.random.default_rng(3)
        coeffs = random_vector(rng, 4)
        coeffs /= np.linalg.norm(coeffs)
        alpha = poly(1.0)
        model = projection_model(10, coeffs, alpha.terms(10))
        bundle = build_bundle(from_generator(model.T), model.weights)
        phi_t = bundle.Phi
        weights = alpha.terms(10)
        for n in range(10):
            assert (
                np.linalg.norm(bundle.h @ phi_t[:, n] - weights[n] * phi_t[:, n])
                <= 1e-10
            )
        gram = phi_t.conj().T @ phi_t
        assert np.abs(gram - np.eye(10)).max() <= 1e-10
