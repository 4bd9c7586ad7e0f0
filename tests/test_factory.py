import dataclasses
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
    poly,
    rank_one_sum,
)
from rieszops.linalg import adjoint, frobenius, max_entry
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
            # the bundle's 2 metric roots, H both ways, S^alpha on both sides
            # and S_psi (7; S_phi is the pair's TT*), A and B (2), and the two
            # shifted H of the products (2): 7 + 2 + 2 = 11.  For real alpha
            # the factorization's roots are gamma, so it reuses the gamma
            # ladder
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
