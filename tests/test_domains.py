import itertools

import numpy as np
import pytest

from oracles import DomainWeights, domain_inclusion, domain_of, literal_summability_verdict
from rieszops import sequences
from rieszops.domains import summability_verdict
from rieszops.sequences import (
    affine,
    explicit,
    geometric,
    harmonic,
    parse_spec,
    poly,
    sqrt_poly,
)

#: the weight and coefficient specs of the CLI's domain grid
DOMAIN_SPECS = (
    "poly:0", "poly:1", "poly:2", "sqrt-poly:1",
    "harmonic", "geometric:0.5", "geometric:1.01", "affine:1,2",
)

#: one spec per branch of log_abs_terms: n^0 := 1 and a negative power
#: at n = 0, r^0 = 1 at r = 0, a complex ratio, an exact affine zero (n = 3),
#: a complex affine, a list ending in zeros, and weights that are no spec
BRANCH_SPECS = {
    "poly:0": parse_spec("poly:0"),
    "poly:-2.6": parse_spec("poly:-2.6"),
    "geometric:0": parse_spec("geometric:0"),
    "geometric:0.9+0.2j": parse_spec("geometric:0.9+0.2j"),
    "affine:-1,3": parse_spec("affine:-1,3"),
    "affine:1j,1": parse_spec("affine:1j,1"),
    "list-trailing-zeros": explicit([3.0, 0.5, 2.0, 1e-3] + [0.0] * 16380),
    "shifted-squared-poly:1": DomainWeights(poly(1.0), shift=1, power=2),
}


class TestSummabilityVerdict:
    def test_geometric_domination_converges(self):
        verdict = summability_verdict(poly(1.0), geometric(0.5))
        assert verdict.verdict == "converged"
        assert verdict.tail_ratio < 0.9

    def test_constant_terms_diverge(self):
        # weights n against coefficients 1/n: every term is 1
        verdict = summability_verdict(poly(1.0), harmonic())
        assert verdict.verdict == "diverged"
        assert verdict.partial_sum == pytest.approx(4095.0)

    def test_unit_weights_with_square_summable_coeffs(self):
        verdict = summability_verdict(poly(0.0), poly(-1.0))
        assert verdict.verdict == "converged"

    def test_finite_support_coefficients_converge(self):
        coeffs = explicit([1.0] * 8 + [0.0] * 8184)
        verdict = summability_verdict(poly(2.0), coeffs, n_max=8192)
        assert verdict.verdict == "converged"

    def test_borderline_slow_decay(self):
        # |n^2 * n^-2.6|^2 = n^-1.2: p-series with p > 1, so the blocks
        # contract at ratio 2^-0.2 ~ 0.87 and the verdict is converged
        verdict = summability_verdict(poly(2.0), poly(-2.6))
        assert verdict.verdict == "converged"
        assert verdict.tail_ratio == pytest.approx(2 ** (-0.2), rel=1e-2)

    def test_rejects_small_horizon(self):
        with pytest.raises(ValueError, match="n_max"):
            summability_verdict(poly(1.0), geometric(0.5), n_max=32)

    def test_monotone_verdict_property_twenty_pairs(self):
        # dominated weights within the same family preserve a converged verdict
        rng = np.random.default_rng(7)
        for trial in range(20):
            if trial % 2 == 0:
                p = rng.uniform(0.5, 3.0)
                w_big = poly(p)
                w_small = poly(p - rng.uniform(0.0, 0.5))
            else:
                r = rng.uniform(1.0, 1.5)
                w_big = geometric(r)
                w_small = geometric(rng.uniform(0.9, 1.0) * r)
            big = np.abs(w_big.terms(256))
            small = np.abs(w_small.terms(256))
            assert np.all(small <= big + 1e-12), "domination premise violated"
            coeffs = geometric(rng.uniform(0.3, 0.8))
            if summability_verdict(w_big, coeffs).verdict == "converged":
                assert summability_verdict(w_small, coeffs).verdict == "converged"

    def test_no_flip_under_horizon_doubling(self):
        cases = [
            (poly(1.0), geometric(0.5)),
            (poly(1.0), harmonic()),
            (poly(0.0), poly(-1.0)),
            (poly(2.0), poly(-2.6)),
            (geometric(1.2), geometric(0.5)),
        ]
        for weights, coeffs in cases:
            verdicts = {
                summability_verdict(weights, coeffs, n_max).verdict
                for n_max in (64, 128, 1024, 4096, 8192)
            }
            assert not {"converged", "diverged"} <= verdicts


    @pytest.mark.parametrize("n_max", [4096, 5000, 8192, 16384])
    def test_equals_literal_formula_bit_for_bit(self, n_max):
        for alpha, coeff in itertools.product(DOMAIN_SPECS, repeat=2):
            weights, coeffs = parse_spec(alpha), parse_spec(coeff)
            got = summability_verdict(weights, coeffs, n_max)
            expected = literal_summability_verdict(weights, coeffs, n_max)
            assert (got.verdict, got.partial_sum, got.tail_ratio) == expected, (
                alpha,
                coeff,
            )

    def test_horizons_in_any_order_equal_literal_formula_bit_for_bit(self, monkeypatch):
        # the shared index table grows at 64 and 16384, then serves slices
        monkeypatch.setattr(sequences, "_n_table", None)
        monkeypatch.setattr(sequences, "_log_n_table", None)
        for n_max in (64, 16384, 4096, 5000, 8192):
            for alpha, coeff in itertools.product(DOMAIN_SPECS, repeat=2):
                weights, coeffs = parse_spec(alpha), parse_spec(coeff)
                got = summability_verdict(weights, coeffs, n_max)
                expected = literal_summability_verdict(weights, coeffs, n_max)
                assert (got.verdict, got.partial_sum, got.tail_ratio) == expected, (
                    alpha,
                    coeff,
                    n_max,
                )
        assert len(sequences._n_table) == 16384

    @pytest.mark.parametrize("n_max", [64, 5000, 16384])
    @pytest.mark.parametrize("name", list(BRANCH_SPECS))
    def test_every_term_branch_equals_literal_formula(self, name, n_max):
        # each branch against the grid's specs, on either side: the shared
        # index arrays change no bit of the literal formula
        spec = BRANCH_SPECS[name]
        for other in map(parse_spec, DOMAIN_SPECS):
            for weights, coeffs in ((spec, other), (other, spec)):
                got = summability_verdict(weights, coeffs, n_max)
                expected = literal_summability_verdict(weights, coeffs, n_max)
                assert (got.verdict, got.partial_sum, got.tail_ratio) == expected, other

    def test_writes_only_into_arrays_it_allocates(self):
        class Shared:
            """Weights that hand out one array, then one that is read-only."""

            def __init__(self, writeable):
                self.logs = poly(1.0).log_abs_terms(4096)
                self.logs.flags.writeable = writeable

            def log_abs_terms(self, count):
                return self.logs[:count]

        for writeable in (True, False):
            weights = Shared(writeable)
            before = weights.logs.copy()
            first = summability_verdict(weights, geometric(0.5))
            second = summability_verdict(weights, geometric(0.5))
            assert first == second == summability_verdict(poly(1.0), geometric(0.5))
            np.testing.assert_array_equal(weights.logs, before)


class TestDomainOf:
    def test_read_offs(self):
        gamma = sqrt_poly(1.0)
        n = np.arange(64, dtype=float)
        np.testing.assert_allclose(domain_of("H", poly(1.0)).terms(64), n)
        np.testing.assert_allclose(domain_of("A", gamma).terms(64), np.sqrt(n))
        np.testing.assert_allclose(domain_of("B", gamma).terms(64), np.sqrt(n + 1))
        np.testing.assert_allclose(domain_of("BA", gamma).terms(64), n)
        np.testing.assert_allclose(domain_of("AB", gamma).terms(64), n + 1)

    def test_weighted_S_matches_H(self):
        # identical effective weights -> identical domain predicates
        beta = affine(2.0, 1.0)
        np.testing.assert_allclose(
            domain_of("S", beta).terms(128), domain_of("H", beta).terms(128)
        )

    def test_ladder_domains_match_shifted_H(self):
        # D(A^gamma) = D(H^{gamma_n}) and D(B^gamma) = D(H^{gamma_{n+1}}),
        # asserted as verdict equality over random weight/coefficient pairs
        rng = np.random.default_rng(11)
        for _ in range(20):
            gamma = poly(rng.uniform(0.0, 2.0))
            coeffs = geometric(rng.uniform(0.3, 0.9))
            va = summability_verdict(domain_of("A", gamma), coeffs, 256)
            vh = summability_verdict(domain_of("H", gamma), coeffs, 256)
            assert va.verdict == vh.verdict
            shifted = DomainWeights(gamma, shift=1, power=1)
            vb = summability_verdict(domain_of("B", gamma), coeffs, 256)
            vh_shift = summability_verdict(shifted, coeffs, 256)
            assert vb.verdict == vh_shift.verdict

    def test_non_monotone_gamma_gives_conjunction(self):
        gamma = explicit([0.0, 2.0, 1.0, 3.0] * 32)
        result = domain_of("AB", gamma)
        assert isinstance(result, tuple) and len(result) == 2
        quad, lin = result
        np.testing.assert_allclose(quad.terms(8), lin.terms(8) ** 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown operator kind"):
            domain_of("Q", poly(1.0))


class TestDomainInclusion:
    def test_ab_inside_ba_for_bosonic_gamma(self):
        gamma = sqrt_poly(1.0)
        wa = domain_of("AB", gamma)  # weight n + 1
        wb = domain_of("BA", gamma)  # weight n
        assert domain_inclusion(wa, wb)

    def test_growing_ratio_not_established(self):
        assert not domain_inclusion(poly(1.0), poly(2.0))

    def test_reflexive(self):
        assert domain_inclusion(poly(1.0), poly(1.0))
        w = affine(1.0, 1.0)
        assert domain_inclusion(w, w)

    def test_zero_weight_against_nonzero_not_established(self):
        zero = explicit([0.0] * 4096)
        assert not domain_inclusion(zero, poly(1.0))
        assert domain_inclusion(poly(1.0), zero)
