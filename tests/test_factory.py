import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import random_generator_matrix, random_pair, random_vector, result
from rieszops import (
    OperatorBundle,
    build_bundle,
    check_eigen_action,
    check_intertwining,
    check_metric_pair,
    check_norm_bound,
    check_selfadjoint_h,
    check_similarity_consistency,
    check_transported_eigenbasis,
    check_weighted_action,
    explicit,
    factory,
    from_generator,
    geometric,
    ladder,
    operator_norm,
    parse_spec,
    poly,
    rank_one_sum,
)
from rieszops.factory import weighted_product
from rieszops.linalg import LinalgError, adjoint, frobenius, max_entry
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
        assert np.abs(got - model.H_phi_psi).max() <= 1e-12

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


#: the operand shapes build_bundle and build_ladder pass to rank_one_sum:
#: H pairs phi with psi, S^beta a family with itself, a ladder operator the
#: shifted slices
OPERANDS = {
    "H": lambda pair: (pair.phi, pair.psi),
    "S": lambda pair: (pair.psi, pair.psi),
    "ladder": lambda pair: (pair.phi[:, :-1], pair.psi[:, 1:]),
}


class TestAdjointRule:
    """adjoint(rank_one_sum(w, L, R)) = rank_one_sum(conj(w), R, L).

    Term by term, (w_n l_n r_n*)* = conj(w_n) r_n l_n*, so the sum's adjoint
    is the sum with conjugated weights and the two column families
    swapped.  With the operands of each operator this is every adjoint
    pairing of the paper at truncation: (H^alpha_{phi,psi})* =
    H^conj(alpha)_{psi,phi}, (S^beta)* = S^conj(beta) on either side, and
    (A_{phi,psi})* = B_{psi,phi} for the ladder of conj(gamma), whose slices
    are the lowering slices swapped.  So no report checks them again.

    Both sides round each term and each sum once, in different orders:
    entry by entry they agree to m * eps times the sum of |w_n l_n r_n|
    over the m terms (Higham 2002, ch. 3).
    """

    @pytest.mark.parametrize("dim", [1, 8, 64])
    @pytest.mark.parametrize("operands", sorted(OPERANDS))
    def test_adjoint_is_the_swapped_sum_of_conjugated_weights(self, operands, dim):
        left, right = OPERANDS[operands](random_pair(dim, dim))
        terms = left.shape[-1]
        weights = random_vector(np.random.default_rng(dim), terms)
        got = adjoint(rank_one_sum(weights, left, right))
        expected = rank_one_sum(weights.conj(), right, left)
        scale = (np.abs(right) * np.abs(weights)) @ np.abs(left).T
        assert np.all(np.abs(got - expected) <= terms * np.finfo(float).eps * scale)


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


def quasi_residuals(bundle, f, g):
    """|<S_psi H f_j, g_j> - <S_psi f_j, H g_j>| of each column pair (f_j, g_j)
    of the (dim, k) blocks f and g: the quasi-Hermitian symmetry of H,
    sampled on vectors as the battery once did."""
    h, s_psi = bundle.H_phi_psi, bundle.S_psi
    lhs = np.einsum("ij,ij->j", g.conj(), s_psi @ (h @ f))
    rhs = np.einsum("ij,ij->j", (h @ g).conj(), s_psi @ f)
    return np.abs(lhs - rhs)


def quasi_bound(bundle, f, g):
    """What intertwining's first residual R = ||S_psi H - H_{psi,phi} S_psi||_F
    bounds each sampled quasi residual by: R ||f_j|| ||g_j|| plus rounding.

    For real alpha, H_{psi,phi} = H* (the adjoint rule of rank_one_sum), so
    <S_psi H f, g> - <S_psi f, H g> = g* (S_psi H - H* S_psi) f, which is at
    most ||S_psi H - H_{psi,phi} S_psi||_2 ||f|| ||g|| <= R ||f|| ||g|| in
    exact arithmetic.  Rounding: each side of a sample is three products
    (two matrix-vector, one inner), each in error by at most
    gamma_N = N eps / (1 - N eps) times the Frobenius norms of its factors
    (Higham 2002, ch. 3); H_{psi,phi} and H* are two roundings of
    phi diag(alpha) psi*; and the computed R has its own two products.
    With M = || |phi| diag|alpha| |psi|^T ||_F >= ||H||_F, ten such terms
    give rho = 10 N eps ||S_psi||_F M ||f_j|| ||g_j|| (gamma_N < 1.01 N eps
    for N <= 64)."""
    pair, dim = bundle.pair, bundle.pair.dim
    residual = frobenius(bundle.S_psi @ bundle.H_phi_psi - bundle.H_psi_phi @ bundle.S_psi)
    m = frobenius((np.abs(pair.phi) * np.abs(bundle.weights)) @ np.abs(pair.psi).T)
    rho = 10 * dim * np.finfo(float).eps * frobenius(bundle.S_psi) * m
    norms = np.linalg.norm(f, axis=0) * np.linalg.norm(g, axis=0)
    return residual * norms, rho * norms


def quasi_cases():
    """Real-alpha bundles: random dims 8 and 64 (alpha = n^2), three-level
    t = 0.3 and projection dim 8."""
    for dim in (8, 64):
        yield f"random-{dim}", build_bundle(random_pair(dim, 1), poly(2.0).terms(dim))
    model, pair = three_level_pair(0.3)
    yield "three-level", build_bundle(pair, np.array(model.eps, dtype=complex))
    model = projection_model(8, np.array([0.6, 0.8j]), poly(1.0).terms(8))
    yield "projection", build_bundle(from_generator(model.T), poly(1.0).terms(8))


class TestQuasiHermitianSymmetry:
    """<S_psi H f, g> = <S_psi f, H g> for real alpha is the operator identity
    S_psi H = H* S_psi = H_{psi,phi} S_psi, intertwining's first residual: the
    reports check it there, on the whole space, and sample no vectors."""

    @pytest.fixture(params=list(quasi_cases()), ids=lambda case: case[0])
    def case(self, request):
        return request.param

    @staticmethod
    def samples(dim):
        """20 (f, g) pairs as two (dim, 20) blocks."""
        fg = random_vector(np.random.default_rng(17), 40 * dim).reshape(dim, 40)
        return fg[:, :20], fg[:, 20:]

    def test_sampled_pairs_are_bounded_by_intertwining(self, case):
        _, bundle = case
        assert bundle.is_real
        f, g = self.samples(bundle.pair.dim)
        bound, rounding = quasi_bound(bundle, f, g)
        assert np.all(quasi_residuals(bundle, f, g) <= bound + rounding)

    def test_bumped_S_psi_fails_intertwining(self, case):
        """An S_psi whose top-right entry moves by 1e-8 of its largest entry
        fails intertwining; the sampled residuals grow past the rounding
        term and stay within the bound that intertwining's residual gives."""
        _, bundle = case
        s_psi = bundle.S_psi.copy()
        s_psi[0, -1] += 1e-8 * max_entry(s_psi)
        bumped = dataclasses.replace(bundle, S_psi=s_psi)
        assert not result(check_intertwining(bumped)).passed
        f, g = self.samples(bundle.pair.dim)
        bound, rounding = quasi_bound(bumped, f, g)
        residuals = quasi_residuals(bumped, f, g)
        assert np.all(residuals <= bound + rounding)
        assert residuals.max() > rounding.max()


class TestMetricAndBounds:
    def test_metric_pair_identities(self):
        for seed in (1, 2, 3):
            bundle = build_bundle(random_pair(8, seed), poly(1.0).terms(8))
            check = result(check_metric_pair(bundle))
            assert check.passed, check.note

    @pytest.mark.parametrize("field", ["S_phi", "S_psi", "S_phi_sqrt", "S_psi_sqrt"])
    def test_metric_pair_keeps_a_nan_column(self, field):
        # S_phi reaches the first root residual, S_psi the last, the roots
        # the middle two: a NaN in any of them is the check's residual
        bundle = build_bundle(random_pair(6, 2), poly(1.0).terms(6))
        column = getattr(bundle, field).copy()
        column[:, 4] = np.nan
        check = check_metric_pair(dataclasses.replace(bundle, **{field: column}))
        assert np.isnan(check.residual) and np.isnan(check.values[1])

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


#: the checks of the battery that read each matrix field of the bundle
READERS = {
    "H_phi_psi": {"eigen_action", "intertwining", "similarity_consistency", "norm_bound"},
    "H_psi_phi": {"eigen_action", "intertwining"},
    "S_phi": {"metric_pair", "intertwining"},
    "S_psi": {"metric_pair", "intertwining"},
    "S_phi_sqrt": {"metric_pair", "similarity_consistency"},
    "S_psi_sqrt": {"metric_pair"},
    "h": {"selfadjoint_h", "transported_eigenbasis", "similarity_consistency"},
    "Phi": {"transported_eigenbasis"},
    "S_alpha_phi": {"weighted_action", "intertwining"},
    "S_alpha_psi": {"weighted_action", "intertwining"},
}
#: readers a perturbation of the field cannot fail, with the reason
CANNOT_FAIL = {
    ("H_phi_psi", "norm_bound"): "one-sided: ||H|| <= (g2/g1) max|alpha| holds with slack",
}


def bundle_checks(bundle):
    """The battery's checks of a bundle; selfadjoint_h only where alpha is
    real."""
    checks = [
        check_eigen_action,
        check_weighted_action,
        check_metric_pair,
        check_intertwining,
        check_transported_eigenbasis,
        check_similarity_consistency,
        check_norm_bound,
    ]
    if bundle.is_real.all():
        checks.append(check_selfadjoint_h)
    return checks


def mutation_bundles():
    model, pair = three_level_pair(0.3)
    yield "three-level", build_bundle(pair, np.array(model.eps))
    yield "random-16", build_bundle(random_pair(16, 3), geometric(0.9 + 0.2j).terms(16))


class FieldReads:
    """A bundle that records which of its fields a check reads."""

    def __init__(self, bundle):
        self.bundle, self.read = bundle, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.bundle, name)


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

    def test_readers_are_the_checks_that_read_each_field(self):
        fields = {field.name for field in dataclasses.fields(OperatorBundle)}
        assert set(READERS) == fields - {"pair", "weights", "is_real"}
        for case, bundle in mutation_bundles():
            for check in bundle_checks(bundle):
                recording = FieldReads(bundle)
                name = check(recording).name
                readers = {field for field, names in READERS.items() if name in names}
                assert recording.read & set(READERS) == readers, (case, name)

    @pytest.mark.parametrize("field", sorted(READERS))
    def test_perturbed_field_fails_its_readers(self, field):
        for case, bundle in mutation_bundles():
            checks = bundle_checks(bundle)
            assert all(result(check(bundle)).passed for check in checks), case
            mutated = getattr(bundle, field).copy()
            mutated[0, -1] += 1e-6
            perturbed = dataclasses.replace(bundle, **{field: mutated})
            results = [result(check(perturbed)) for check in checks]
            failed = {check_result.name for check_result in results if not check_result.passed}
            expected = {
                name
                for name in READERS[field] & {check_result.name for check_result in results}
                if (field, name) not in CANNOT_FAIL
            }
            assert failed == expected, case

    @staticmethod
    def count_builds(monkeypatch):
        """Calls of weighted_product, the one product behind every operator,
        per (weighted columns, right adjoint) operands."""
        built = Counter()

        def build(weighted, right_adj):
            built[weighted.tobytes(), right_adj.tobytes()] += 1
            return weighted_product(weighted, right_adj)

        monkeypatch.setattr(factory, "weighted_product", build)
        monkeypatch.setattr(ladder, "weighted_product", build)  # imported by name
        return built

    @pytest.mark.parametrize(
        "make_report, builds",
        [
            # one weighted_product per operator: the bundle's 2 metric
            # roots, H both ways, S^alpha on both sides and S_psi (7; S_phi
            # is the pair's TT*), A and B (2), and the two shifted H of the
            # products (2): 7 + 2 + 2 = 11.  For real alpha the
            # factorization's roots are gamma, so it reuses the gamma ladder
            (lambda: random_report(16, seed=3), 11),
            (lambda: projection_report(16, 4, seed=3), 11),
            (lambda: three_level_report(0.3), 11),
            # complex alpha: A and B of the factorization's own ladder too,
            # whose roots are not gamma (2): 11 + 2 = 13
            (lambda: random_report(16, seed=3, alpha=geometric(0.9 + 0.2j)), 13),
            # complex alpha and gamma: the same 13
            (
                lambda: random_report(
                    16, seed=3, alpha=geometric(0.9 + 0.2j), gamma=geometric(1.1 + 0.3j)
                ),
                13,
            ),
        ],
        ids=["random", "projection", "three-level", "random-complex", "random-complex-gamma"],
    )
    def test_report_build_counts(self, monkeypatch, make_report, builds):
        built = self.count_builds(monkeypatch)
        make_report()
        assert sum(built.values()) == builds

    def test_random_report_builds_each_operator_once(self, monkeypatch):
        # complex alpha: 13 builds, as in test_report_build_counts, of 13
        # distinct operators
        built = self.count_builds(monkeypatch)
        random_report(16, seed=3, alpha=geometric(0.9 + 0.2j))
        assert len(built) == 13
        assert not [key for key, n in built.items() if n > 1]


class TestRealness:
    def test_dim_1_truncation_of_a_complex_sequence_is_real(self):
        # geometric:0.9+0.2j emits 1, 0.9+0.2j, ...: real at dim 1 only, so
        # the dim-1 report runs the real-alpha check
        alpha = geometric(0.9 + 0.2j)
        assert build_bundle(random_pair(1, 5), alpha.terms(1)).is_real
        assert not build_bundle(random_pair(2, 5), alpha.terms(2)).is_real
        names = [c.name for c in random_report(1, seed=1, alpha=alpha).checks]
        assert "selfadjoint_h" in names


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


class TestSharedOperands:
    """The builders form each weighted family and the pair's adjoints once
    and share them between products; every operator is still, bit for bit,
    rank_one_sum of its definition."""

    @staticmethod
    def batch(dim, points):
        """The pair of a stack of points generators, or of one (dim, dim)
        generator when points is None, with complex alpha and gamma."""
        rng = np.random.default_rng(dim)
        shape = () if points is None else (points,)
        generators = [random_generator_matrix(rng, dim) for _ in range(points or 1)]
        pair = from_generator(np.stack(generators).reshape(shape + (dim, dim)))
        alpha, gamma = (
            (rng.normal(size=shape + (dim,)) + 1j * rng.normal(size=shape + (dim,)))
            for _ in range(2)
        )
        return pair, alpha, gamma

    @staticmethod
    def ladder_sums(pair, gamma):
        """A and B by their definitions."""
        phi, psi, g = pair.phi, pair.psi, gamma[..., 1:]
        return (
            rank_one_sum(g, phi[..., :, :-1], psi[..., :, 1:]),
            rank_one_sum(g, phi[..., :, 1:], psi[..., :, :-1]),
        )

    @pytest.mark.parametrize("points", [None, 3], ids=["single", "stack-of-3"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 16, 64])
    def test_every_product_is_its_rank_one_sum(self, dim, points):
        pair, alpha, gamma = self.batch(dim, points)
        bundle = build_bundle(pair, alpha)
        phi, psi, u, s = pair.phi, pair.psi, pair.singular_vectors, pair.singular_values
        roots = [rank_one_sum(values, u, u) for values in (s, 1.0 / s)]
        s_phi_sqrt, s_psi_sqrt = (0.5 * (root + adjoint(root)) for root in roots)
        h_phi_psi = rank_one_sum(alpha, phi, psi)
        expected = {
            "H_phi_psi": h_phi_psi,
            "H_psi_phi": rank_one_sum(alpha, psi, phi),
            "S_psi": rank_one_sum(np.ones(alpha.shape, dtype=complex), psi, psi),
            "S_phi_sqrt": s_phi_sqrt,
            "S_psi_sqrt": s_psi_sqrt,
            "h": s_psi_sqrt @ h_phi_psi @ s_phi_sqrt,
            "Phi": s_psi_sqrt @ phi,
            "S_alpha_phi": rank_one_sum(alpha, phi, phi),
            "S_alpha_psi": rank_one_sum(alpha, psi, psi),
        }
        for name, operator in expected.items():
            assert np.array_equal(getattr(bundle, name), operator), name
        roots, _, _ = ladder.factorize_from_alpha(bundle.weights, bundle.is_real)
        for weights in (gamma, roots):  # the gamma ladder and the factorization's
            lp = ladder.build_ladder(pair, weights)
            a, b = self.ladder_sums(pair, weights)
            assert np.array_equal(lp.A_phi_psi, a) and np.array_equal(lp.B_phi_psi, b)
            squares, zero = weights[..., 1:] ** 2, np.zeros_like(weights[..., :1])
            h_ba, h_ab = (
                rank_one_sum(np.concatenate(w, axis=-1), phi, psi)
                for w in ([zero, squares], [squares, zero])
            )
            check = ladder.check_products(lp)
            r_ba, r_ab = max_entry(lp.BA - h_ba), max_entry(lp.AB - h_ab)
            assert np.array_equal(check.residual, np.maximum(r_ba, r_ab))
            assert np.array_equal(check.values[0], r_ba)
            assert np.array_equal(check.values[1], r_ab)
            commutator = max_entry((lp.AB - h_ab) - (lp.BA - h_ba))
            assert np.array_equal(check.values[2], commutator)

    def test_replaced_psi_forms_its_own_adjoint(self):
        """psi* is formed from the pair's own psi: a pair replaced with
        another psi does not keep the first pair's adjoint."""
        pair, _, _ = self.batch(8, 3)
        assert np.array_equal(pair.psi_adj, adjoint(pair.psi))
        psi = pair.psi.copy()
        psi[..., 0, -1] += 1e-8 * max_entry(psi)
        bumped = dataclasses.replace(pair, psi=psi)
        assert np.array_equal(bumped.psi_adj, adjoint(psi))
        assert not np.array_equal(bumped.psi_adj, pair.psi_adj)


class TestOverflowIsAnError:
    """Each builder holds numpy's overflow warnings off for all its
    products, so a product that overflows is the LinalgError of
    require_finite, not a RuntimeWarning, also when it is called outside
    the battery."""

    @pytest.fixture(autouse=True)
    def warnings_raise(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_bundle(self):
        # every alpha_n is finite; H = sum alpha_n phi_n psi_n* is not
        weights = parse_spec("affine:5e307,0").terms(4)
        with pytest.raises(LinalgError, match="non-finite"):
            build_bundle(random_pair(4, 0), weights)

    def test_ladder(self):
        # gamma_n phi_{n-1} overflows where |phi| = 1e110
        gamma = parse_spec("affine:1e200,0").terms(4)
        with pytest.raises(LinalgError, match="non-finite"):
            ladder.build_ladder(from_generator(1e110 * np.eye(4)), gamma)

    def test_ladder_products(self):
        # the ladder of gamma ~ 1e200 is finite; the shifted H of gamma_n^2
        # is not
        lp = ladder.build_ladder(random_pair(4, 0), parse_spec("affine:1e200,0").terms(4))
        with pytest.raises(LinalgError, match="non-finite"):
            ladder.check_products(lp)
