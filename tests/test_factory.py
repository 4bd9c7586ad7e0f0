import dataclasses
from collections import Counter

import numpy as np
import pytest

from conftest import random_generator_matrix, random_pair, random_vector, result
from rieszops import (
    build_bundle,
    check_adjoint_pair,
    check_eigen_action,
    check_intertwining,
    check_metric_pair,
    check_norm_bound,
    check_weighted_action,
    check_selfadjoint_h,
    explicit,
    factory,
    from_generator,
    geometric,
    ladder,
    operator_norm,
    poly,
    quasi_hermitian_symmetry,
    rank_one_sum,
)
from rieszops.models import projection_model, three_level
from rieszops.sequences import SequenceSpec
from rieszops.suites import projection_report, random_report, three_level_report


def three_level_pair(t=0.3):
    model = three_level(t)
    return model, from_generator(model.T)


class TestBuildH:
    def test_unit_weights_give_identity_both_directions(self):
        _, pair = three_level_pair()
        np.testing.assert_allclose(
            rank_one_sum(np.ones(3), pair.phi, pair.psi), np.eye(3), atol=1e-12
        )
        np.testing.assert_allclose(
            rank_one_sum(np.ones(3), pair.psi, pair.phi), np.eye(3), atol=1e-12
        )

    def test_three_level_entrywise(self):
        model, pair = three_level_pair(0.3)
        got = rank_one_sum(np.array(model.eps), pair.phi, pair.psi)
        assert np.abs(got - model.H).max() <= 1e-12

    def test_identity_generator_gives_diagonal(self):
        pair = from_generator(np.eye(3, dtype=complex))
        got = rank_one_sum(np.array([1.0, 2.0, 3.0]), pair.phi, pair.psi)
        np.testing.assert_allclose(got, np.diag([1.0, 2.0, 3.0]), atol=1e-15)

    def test_eigen_action_all_indices(self):
        pair = random_pair(8, 5)
        alpha = explicit(np.linspace(0, 3, 8))
        bundle = build_bundle(pair, alpha.terms(pair.dim))
        check = result(check_eigen_action(bundle))
        assert check.passed and check.residual <= 1e-10

    def test_length_mismatch(self):
        _, pair = three_level_pair()
        with pytest.raises(ValueError, match=r"shape \(2,\), expected \(3,\)"):
            rank_one_sum(np.array([1.0, 2.0]), pair.phi, pair.psi)


class TestBuildSWeighted:
    def test_unit_weights_match_metric_displays(self):
        model, pair = three_level_pair(0.7)
        s_phi = rank_one_sum(np.ones(3), pair.phi, pair.phi)
        s_psi = rank_one_sum(np.ones(3), pair.psi, pair.psi)
        assert np.abs(s_phi - model.S_phi).max() <= 1e-12
        assert np.abs(s_psi - model.S_psi).max() <= 1e-12

    def test_identity_generator_diagonal_selfadjoint(self):
        pair = from_generator(np.eye(4, dtype=complex))
        beta = np.array([0.5, 1.5, 2.5, 3.5])
        s = rank_one_sum(beta, pair.phi, pair.phi)
        np.testing.assert_allclose(s, np.diag(beta), atol=1e-15)
        assert np.abs(s - s.conj().T).max() <= 1e-15

    def test_weighted_actions_both_sides(self):
        pair = random_pair(8, 6)
        check = result(check_weighted_action(build_bundle(pair, np.arange(8) + 0.5)))
        assert check.passed and check.residual <= 1e-10

    def test_hermitian_for_real_weights(self):
        pair = random_pair(8, 7)
        for cols in (pair.phi, pair.psi):
            s = rank_one_sum(poly(1.0).terms(8), cols, cols)
            assert np.abs(s - s.conj().T).max() <= 1e-10

    def test_not_hermitian_for_complex_weights(self):
        pair = random_pair(4, 8)
        s = rank_one_sum(np.array([1j, 2.0, 1.0, 0.5]), pair.phi, pair.phi)
        assert np.abs(s - s.conj().T).max() > 1e-6


class TestAdjointPair:
    def test_three_level(self):
        model, pair = three_level_pair(0.3)
        check = result(check_adjoint_pair(build_bundle(pair, np.array(model.eps))), tol=1e-12)
        assert check.passed and check.residual <= 1e-12

    def test_real_weights_identity_generator_hermitian(self):
        pair = from_generator(np.eye(4, dtype=complex))
        alpha = explicit([0.0, 1.0, 2.0, 3.0])
        h = rank_one_sum(alpha.terms(4), pair.phi, pair.psi)
        assert np.abs(h - h.conj().T).max() == 0.0
        assert result(check_adjoint_pair(build_bundle(pair, alpha.terms(pair.dim)))).residual <= 1e-14

    def test_random_complex_dim_16(self):
        pair = random_pair(16, 16)
        rng = np.random.default_rng(4)
        alpha = explicit(random_vector(rng, 16))
        check = result(check_adjoint_pair(build_bundle(pair, alpha.terms(pair.dim))))
        assert check.passed and check.residual <= 1e-10


class TestIntertwining:
    def test_three_level_all_four_residuals(self):
        model, pair = three_level_pair(0.3)
        bundle = build_bundle(pair, np.array(model.eps))
        check = result(check_intertwining(bundle), tol=1e-11)
        assert check.passed and check.residual <= 1e-11
        # the headline identity in the quasi-Hermitian reading
        lhs = bundle.H_phi_psi.conj().T @ bundle.S_psi
        rhs = bundle.S_psi @ bundle.H_phi_psi
        assert np.abs(lhs - rhs).max() <= 1e-11

    def test_identity_generator_exact(self):
        pair = from_generator(np.eye(4, dtype=complex))
        bundle = build_bundle(pair, np.array([0.0, 1.0, 2.0, 3.0]))
        assert result(check_intertwining(bundle)).residual <= 1e-13

    def test_projection_dim_8(self):
        model = projection_model(8, np.array([0.6, 0.8]), poly(1.0).terms(8))
        pair = from_generator(model.T)
        bundle = build_bundle(pair, poly(1.0).terms(pair.dim))
        check = result(check_intertwining(bundle))
        assert check.passed and check.residual <= 1e-10


class TestQuasiHermitianSymmetry:
    def test_three_level_fifty_pairs(self):
        model, pair = three_level_pair(0.3)
        bundle = build_bundle(pair, np.array(model.eps))
        rng = np.random.default_rng(17)
        worst = max(
            result(
                quasi_hermitian_symmetry(
                    bundle, random_vector(rng, 3)[:, None], random_vector(rng, 3)[:, None]
                ),
                tol=1e-11,
            ).residual
            for _ in range(50)
        )
        assert worst <= 1e-11

    def test_eigenvector_pair(self):
        model, pair = three_level_pair(0.3)
        bundle = build_bundle(pair, np.array(model.eps))
        check = result(
            quasi_hermitian_symmetry(bundle, model.phi[0][:, None], model.phi[1][:, None])
        )
        assert check.passed and check.residual <= 1e-12

    def test_identity_generator(self, rng):
        pair = from_generator(np.eye(4, dtype=complex))
        bundle = build_bundle(pair, np.array([0.0, 1.0, 2.0, 3.0]))
        check = result(
            quasi_hermitian_symmetry(
                bundle, random_vector(rng, 4)[:, None], random_vector(rng, 4)[:, None]
            )
        )
        assert check.passed

    def test_rejects_complex_alpha(self, rng):
        pair = random_pair(4, 3)
        bundle = build_bundle(pair, np.array([0.0, 1j, 2.0, 3.0]))
        with pytest.raises(ValueError, match="real"):
            quasi_hermitian_symmetry(
                bundle, random_vector(rng, 4)[:, None], random_vector(rng, 4)[:, None]
            )


class TestMetricAndBounds:
    def test_metric_pair_identities(self):
        for seed in (1, 2, 3):
            bundle = build_bundle(random_pair(8, seed), poly(1.0).terms(8))
            check = result(check_metric_pair(bundle))
            assert check.passed, check.note

    def test_norm_bound_proxy_H(self):
        for seed in (4, 5):
            pair = random_pair(8, seed)
            rng = np.random.default_rng(seed)
            bundle = build_bundle(pair, random_vector(rng, 8))
            assert result(check_norm_bound(bundle)).passed

    def test_norm_bound_proxy_S(self):
        # same boundedness proxy on the weighted S side:
        # ||S^b_phi|| <= gamma_2^2 max|b| since S^b_phi = T diag(b) T*
        pair = random_pair(8, 6)
        rng = np.random.default_rng(6)
        beta = explicit(random_vector(rng, 8))
        s = rank_one_sum(beta.terms(8), pair.phi, pair.phi)
        bound = pair.frame_upper**2 * float(np.abs(beta.terms(8)).max())
        assert operator_norm(s) <= bound + 1e-10


#: the checks that read each conj(alpha) / S^alpha field of the bundle
READERS = {
    "S_alpha_phi": {"adjoint_pair", "weighted_action", "intertwining"},
    "S_alpha_psi": {"adjoint_pair", "weighted_action", "intertwining"},
    "H_conj_psi_phi": {"adjoint_pair", "selfadjoint_h"},
    "S_conj_phi": {"adjoint_pair"},
    "S_conj_psi": {"adjoint_pair"},
}
BUNDLE_CHECKS = (
    check_adjoint_pair,
    check_weighted_action,
    check_intertwining,
    check_selfadjoint_h,
)


def mutation_bundles():
    model, pair = three_level_pair(0.3)
    yield "three-level", build_bundle(pair, np.array(model.eps))
    yield "random-16", build_bundle(random_pair(16, 3), geometric(0.9 + 0.2j).terms(16))


class TestBundleFields:
    @pytest.mark.parametrize("dim, points", [(1, 1), (3, 455), (16, 1), (32, 4), (64, 1)])
    def test_s_phi_is_the_pairs_tt_star(self, dim, points):
        """S_phi is the TT* the pair factorized, bit for bit the rank-one sum
        S^1_phi that the bundle used to build."""
        rngs = (np.random.default_rng(seed) for seed in range(points))
        pair = from_generator(np.stack([random_generator_matrix(rng, dim) for rng in rngs]))
        ones = np.ones((points, dim), dtype=complex)
        bundle = build_bundle(pair, ones)
        assert bundle.S_phi is pair.metric
        assert np.array_equal(pair.metric, rank_one_sum(ones, pair.phi, pair.phi))

    @pytest.mark.parametrize("field", sorted(READERS))
    def test_perturbed_field_fails_its_readers(self, field):
        for case, bundle in mutation_bundles():
            assert all(result(check(bundle)).passed for check in BUNDLE_CHECKS), case
            mutated = getattr(bundle, field).copy()
            mutated[0, -1] += 1e-6
            perturbed = dataclasses.replace(bundle, **{field: mutated})
            failed = {
                check_result.name
                for check_result in (result(check(perturbed)) for check in BUNDLE_CHECKS)
                if not check_result.passed
            }
            assert failed == READERS[field], case

    @staticmethod
    def count_builds(monkeypatch):
        """Calls of rank_one_sum per (weights, left, right) operands."""
        built = Counter()

        def build(weights, left, right):
            built[weights.tobytes(), left.tobytes(), right.tobytes()] += 1
            return rank_one_sum(weights, left, right)

        monkeypatch.setattr(factory, "rank_one_sum", build)
        monkeypatch.setattr(ladder, "rank_one_sum", build)  # imported by name
        return built

    @pytest.mark.parametrize(
        "make_report, builds",
        [
            # real alpha: the bundle's 2 metric roots, H both ways, S^alpha on
            # both sides and S_psi (7; the conj(alpha) operators are the alpha
            # ones, S_phi is the pair's TT*), A and B (2), the psi,phi variants
            # the adjoint check reads (2), and the two shifted H of the
            # products (2): 7 + 2 + 2 + 2 = 13.  The factorization's roots
            # are gamma, so it reuses the gamma ladder
            (lambda: random_report(16, seed=3), 13),
            (lambda: projection_report(16, 4, seed=3), 13),
            (lambda: three_level_report(0.3), 13),
            # complex alpha: 3 more in the bundle for conj(alpha) (10), the
            # gamma ladder, its psi,phi variants and the shifted H as above
            # (6), and A and B of the factorization's own ladder, whose roots
            # are not gamma (2): 10 + 6 + 2 = 18
            (lambda: random_report(16, seed=3, alpha=geometric(0.9 + 0.2j)), 18),
        ],
        ids=["random", "projection", "three-level", "random-complex"],
    )
    def test_report_build_counts(self, monkeypatch, make_report, builds):
        built = self.count_builds(monkeypatch)
        make_report()
        assert sum(built.values()) == builds

    def test_random_report_builds_each_operator_once(self, monkeypatch):
        # complex alpha: the alpha and conj(alpha) operators differ; 18
        # builds, as in test_report_build_counts, of 18 distinct operators
        built = self.count_builds(monkeypatch)
        random_report(16, seed=3, alpha=geometric(0.9 + 0.2j))
        assert len(built) == 18
        assert not [key for key, n in built.items() if n > 1]


CONJ_FIELDS = {
    "H_conj_psi_phi": "H_psi_phi",
    "S_conj_phi": "S_alpha_phi",
    "S_conj_psi": "S_alpha_psi",
}


def real_alpha_bundles():
    model, pair = three_level_pair(0.3)
    yield "three-level", build_bundle(pair, np.array(model.eps))
    yield "random-16", build_bundle(random_pair(16, 3), poly(1.0).terms(16))


class TestConjAliases:
    def test_real_weights_alias_the_alpha_operators(self):
        for case, bundle in real_alpha_bundles():
            for conj_field, field in CONJ_FIELDS.items():
                assert getattr(bundle, conj_field) is getattr(bundle, field), case

    def test_complex_weights_build_distinct_operators(self):
        bundle = build_bundle(random_pair(16, 3), geometric(0.9 + 0.2j).terms(16))
        for conj_field, field in CONJ_FIELDS.items():
            conj_op, op = getattr(bundle, conj_field), getattr(bundle, field)
            assert not np.shares_memory(conj_op, op), conj_field

    def test_dim_1_truncation_of_a_complex_sequence_is_real(self):
        # geometric:0.9+0.2j emits 1, 0.9+0.2j, ...: real at dim 1 only
        alpha = geometric(0.9 + 0.2j)
        bundle = build_bundle(random_pair(1, 5), alpha.terms(1))
        assert bundle.is_real
        for conj_field, field in CONJ_FIELDS.items():
            assert getattr(bundle, conj_field) is getattr(bundle, field), conj_field
        assert not build_bundle(random_pair(2, 5), alpha.terms(2)).is_real
        names = [c.name for c in random_report(1, seed=1, alpha=alpha).checks]
        assert "quasi_hermitian_symmetry" in names


class TestLadderAdjointBuilds:
    @pytest.mark.parametrize(
        "gamma, builds",
        [(poly(0.5), 0), (explicit([0.0, 1.0, 2.0 + 0.5j, 3.0]), 1)],
        ids=["real", "complex"],
    )
    def test_conj_ladder_built_only_for_complex_gamma(self, monkeypatch, gamma, builds):
        lp = ladder.build_ladder(random_pair(4, 2), gamma.terms(4))
        calls = []
        build = ladder.build_ladder

        def counting(pair, weights):
            calls.append(weights)
            return build(pair, weights)

        monkeypatch.setattr(ladder, "build_ladder", counting)
        assert result(ladder.check_ladder_adjoints(lp)).passed
        assert len(calls) == builds


class TestWeightArrays:
    @pytest.mark.parametrize("shape", [(1,), (7,), (8, 1)])
    @pytest.mark.parametrize(
        "columns", [("phi", "psi"), ("phi", "phi")], ids=["phi-psi", "phi-phi"]
    )
    def test_builders_reject_any_shape_but_dim(self, columns, shape):
        # a length-1 or (dim, 1) array would broadcast without an error
        pair = random_pair(8, 2)
        left, right = (getattr(pair, name) for name in columns)
        with pytest.raises(ValueError, match=r"expected \(8,\)"):
            rank_one_sum(np.ones(shape), left, right)

    @pytest.mark.parametrize("shape", [(1,), (7,), (8, 1)])
    @pytest.mark.parametrize("build", [build_bundle, ladder.build_ladder])
    def test_bundle_and_ladder_reject_any_shape_but_dim(self, build, shape):
        with pytest.raises(ValueError, match=r"expected \(8,\)"):
            build(random_pair(8, 2), np.ones(shape))

    @pytest.mark.parametrize(
        "make_report, calls",
        [
            (lambda: three_level_report(0.3), 0),
            (lambda: random_report(16, seed=3, alpha=geometric(0.9 + 0.2j)), 2),
            (lambda: projection_report(16, 4, seed=3), 2),
        ],
        ids=["three-level", "random-complex", "projection"],
    )
    def test_terms_evaluated_once_per_sequence_use(
        self, monkeypatch, make_report, calls
    ):
        # alpha and gamma once each; the three-level model holds its own array
        labels = []
        terms = SequenceSpec.terms

        def counting(spec, count):
            labels.append(spec.label)
            return terms(spec, count)

        monkeypatch.setattr(SequenceSpec, "terms", counting)
        make_report()
        assert len(labels) == calls, labels
