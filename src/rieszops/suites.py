"""Verification suites: assemble the full check battery for one model.

Three suites exist.  `three-level` runs the generic pipeline against the
3x3 closed-form model, `projection` against the rank-one perturbation
model, and `random` against a seeded well-conditioned generator
T = I + 0.3 R (R with entries uniform in the complex unit square, which
keeps the smallest singular value comfortably away from zero).

Every check name that can appear in a report maps to exactly one library
operation through CHECK_REGISTRY.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import basis, factory, ladder, linalg, models, sequences, similarity
from .domains import DEFAULT_N_MAX, DomainVerdict, summability_verdict
from .linalg import DEFAULT_TOL
from .report import CheckResult, VerificationReport

_GENERATOR_SPREAD = 0.3

SUITES = ("three-level", "projection", "random")


def _random_block(rng, dim: int, k: int) -> np.ndarray:
    """k random complex vectors as the columns of a (dim, k) block.

    One draw of shape (k, 2, dim) takes the same normal stream, in the same
    order, as k successive draws of a real part and then an imaginary part.
    """
    re_im = rng.normal(size=(k, 2, dim))
    return (re_im[:, 0] + 1j * re_im[:, 1]).T


def _random_generator(rng, dim: int) -> np.ndarray:
    real = rng.uniform(0.0, 1.0, size=(dim, dim))
    imag = rng.uniform(0.0, 1.0, size=(dim, dim))
    return np.eye(dim) + _GENERATOR_SPREAD * (real + 1j * imag)


def _merge_worst(name: str, results: list[CheckResult], note: str = "") -> CheckResult:
    worst = max(results, key=lambda c: (math.isnan(c.residual), c.residual))
    return CheckResult(
        name=name,
        passed=all(c.passed for c in results),
        residual=worst.residual,
        tol=worst.tol,
        note=note or f"worst of {len(results)} samples: {worst.note}",
    )


def _entrywise(name: str, got, expected, tol: float, note: str = "") -> CheckResult:
    residual = float(np.abs(np.asarray(got) - np.asarray(expected)).max())
    return CheckResult.from_residual(name, residual, tol, note=note)


def _common_bundle_checks(
    report: VerificationReport,
    bundle: factory.OperatorBundle,
    rng,
    tol: float,
    quasi_pairs: int = 10,
) -> None:
    """Battery shared by every suite: basis identities, adjoints,
    intertwining, similarity, and the metric inner-product facts."""
    pair = bundle.pair
    report.add(basis.verify_biorthogonality(pair, tol))
    report.add(
        CheckResult.from_residual(
            "reconstruction",
            basis.reconstruction_residual(pair, _random_block(rng, pair.dim, 10)),
            tol,
            note="worst relative reconstruction residual over 10 random vectors",
        )
    )
    frame = basis.frame_inequality_check(
        pair, bundle.alpha, _random_block(rng, pair.dim, 10), tol
    )
    report.add(replace(frame, note=f"worst of 10 samples: {frame.note}"))
    report.add(factory.check_eigen_action(bundle, tol))
    report.add(factory.check_weighted_action(pair, bundle.alpha, tol))
    report.add(factory.check_adjoint_pair(pair, bundle.alpha, tol))
    report.add(factory.check_metric_pair(bundle, tol))
    report.add(factory.check_intertwining(bundle, tol))
    if bundle.alpha.is_real:
        # pair j is (f, g) = columns (2j, 2j + 1): f drawn before g
        fg = _random_block(rng, pair.dim, 2 * quasi_pairs)
        quasi = factory.quasi_hermitian_symmetry(bundle, fg[:, 0::2], fg[:, 1::2], tol)
        report.add(
            replace(quasi, note=f"worst over {quasi_pairs} random (f, g) pairs")
        )
    report.add(similarity.check_selfadjoint_h(bundle, tol))
    report.add(similarity.check_transported_eigenbasis(bundle, tol))
    report.add(similarity.check_similarity_consistency(bundle, tol))
    report.add(similarity.onb_in_HS(bundle, tol))
    report.add(factory.check_norm_bound(bundle, tol))


def _ladder_checks(
    report: VerificationReport,
    bundle: factory.OperatorBundle,
    gamma: sequences.SequenceSpec,
    rng,
    tol: float,
) -> None:
    lp = ladder.build_ladder(bundle.pair, gamma)
    report.add(ladder.check_ladder_actions(lp, tol))
    report.add(ladder.check_ladder_adjoints(lp, tol))
    report.add(ladder.check_products(lp, tol))
    if gamma.abs_monotone and bundle.pair.dim >= 2:
        coeffs = _random_block(rng, bundle.pair.dim - 1, 1)[:, 0]
        f = bundle.pair.phi[:, :-1] @ coeffs
        report.add(ladder.check_commutator(lp, f, tol))
    try:
        ladder.factorize_from_alpha(bundle, tol)
    except ValueError as exc:
        report.add(
            CheckResult(
                name="factorization",
                passed=True,
                residual=0.0,
                tol=tol,
                note=f"skipped: {exc}",
            )
        )
    else:
        report.add(
            CheckResult.from_residual(
                "factorization",
                0.0,
                tol,
                note="gamma_n = sqrt(alpha_n) reproduces H = BA on the interior",
            )
        )


def three_level_report(
    t: float, seed: int = 0, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Full battery for the 3x3 model at parameter t."""
    report = VerificationReport(
        suite="three-level", params={"t": float(t), "seed": int(seed), "tol": float(tol)}
    )
    rng = np.random.default_rng(seed)
    model = models.three_level(t, tol)
    report.add(
        CheckResult(
            name="admissible",
            passed=model.admissible,
            residual=0.0 if model.admissible else 1.0,
            tol=0.5,
            note=(
                "t inside the admissible interval"
                if model.admissible
                else "t outside the admissible interval; ladder and ordering checks skipped"
            ),
        )
    )
    if model.admissible:
        min_gap = min(model.eps[1] - model.eps[0], model.eps[2] - model.eps[1])
        report.add(
            CheckResult.from_residual(
                "eigenvalue_ordering",
                max(0.0, -min_gap),
                tol,
                note=f"smallest eigenvalue gap {min_gap:.6e}",
            )
        )

    pair = basis.from_generator(model.T, tol)
    alpha = sequences.explicit(model.eps)
    bundle = factory.build_bundle(pair, alpha)

    report.add(_entrywise("three_level_H", bundle.H_phi_psi, model.H, tol))
    report.add(_entrywise("three_level_psi", pair.psi, np.column_stack(model.psi), tol))
    report.add(_entrywise("three_level_S_phi", bundle.S_phi, model.S_phi, tol))
    report.add(_entrywise("three_level_S_psi", bundle.S_psi, model.S_psi, tol))
    report.add(
        _entrywise("three_level_S_phi_sqrt", bundle.S_phi_sqrt, model.S_phi_sqrt, tol)
    )
    report.add(
        _entrywise("three_level_S_psi_sqrt", bundle.S_psi_sqrt, model.S_psi_sqrt, tol)
    )
    report.add(_entrywise("three_level_h", bundle.h, model.h, tol))
    report.add(
        _entrywise(
            "three_level_Phi",
            similarity.transported_eigenbasis(bundle),
            np.column_stack(model.Phi),
            tol,
            note="transported eigenvectors vs closed forms",
        )
    )
    norm_t = linalg.operator_norm(model.T)
    expected_norm = float(np.sqrt((39.0 + 7.0 * np.sqrt(29.0)) / 2.0))
    report.add(
        CheckResult.from_residual(
            "norm_T",
            abs(norm_t - expected_norm),
            tol,
            note=f"||T|| = {norm_t:.12g}, parameter-independent value {expected_norm:.12g}",
        )
    )
    report.add(
        CheckResult.from_residual(
            "norm_T_inv",
            abs(linalg.operator_norm(pair.generator_inverse) - norm_t / 5.0),
            tol,
            note="||T^{-1}|| = ||T|| / 5",
        )
    )
    sqrt_gap = float(np.abs(bundle.S_phi_sqrt - model.T).max())
    report.add(
        CheckResult.from_residual(
            "sqrt_vs_generator",
            max(0.0, 0.1 - sqrt_gap),
            tol,
            note=f"S_phi^(1/2) differs from T (max entry gap {sqrt_gap:.6g} > 0.1)",
        )
    )

    _common_bundle_checks(report, bundle, rng, tol, quasi_pairs=50)

    if model.admissible:
        lp = ladder.factorize_from_alpha(bundle, tol)
        report.add(ladder.check_ladder_actions(lp, tol))
        # B* lowers and A* raises psi_n:
        # B* psi_n = g_n psi_{n-1} and A* psi_n = g_{n+1} psi_{n+1}
        worst = ladder.shift_action_residual(
            lp.B_phi_psi.conj().T,
            lp.A_phi_psi.conj().T,
            np.column_stack(model.psi),
            lp.gamma.terms(3),
        )
        report.add(
            CheckResult.from_residual(
                "ladder_adjoint_actions",
                worst,
                tol,
                note="B* and A* shift actions on psi_n",
            )
        )
        report.add(ladder.check_ladder_adjoints(lp, tol))
        report.add(ladder.check_products(lp, tol))
        report.add(
            _entrywise(
                "factorization",
                lp.B_phi_psi @ lp.A_phi_psi,
                model.H,
                tol,
                note="H = BA entrywise (exact at dim 3: no dropped term)",
            )
        )
        _, hat_check = models.three_level_hat_spectrum(
            model, lp.A_phi_psi, lp.B_phi_psi, tol
        )
        report.add(hat_check)
        report.add(ladder.check_commutator(lp, model.phi[0], tol))
        a_closed, b_closed = models.three_level_ladder_closed_forms(model)
        report.add(
            _merge_worst(
                "printed_ladder_matrices",
                [
                    _entrywise("printed_ladder_matrices", lp.A_phi_psi, a_closed, tol),
                    _entrywise("printed_ladder_matrices", lp.B_phi_psi, b_closed, tol),
                ],
                note="closed-form A(t), B(t) vs generic construction",
            )
        )
    return report


def projection_report(
    dim: int,
    support: int,
    seed: int = 0,
    alpha: sequences.SequenceSpec | None = None,
    gamma: sequences.SequenceSpec | None = None,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Full battery for a seeded projection model with the given support size."""
    if not 2 <= support <= dim:
        raise ValueError(f"support size must be in 2..{dim}, got {support}")
    alpha = alpha if alpha is not None else sequences.poly(1.0)
    gamma = gamma if gamma is not None else sequences.sqrt_poly(1.0)
    report = VerificationReport(
        suite="projection",
        params={
            "dim": int(dim),
            "n": int(support),
            "seed": int(seed),
            "alpha": alpha.label,
            "gamma": gamma.label,
            "tol": float(tol),
        },
    )
    rng = np.random.default_rng(seed)
    coeffs = _random_block(rng, support, 1)[:, 0]
    coeffs /= np.linalg.norm(coeffs)
    model = models.projection_model(dim, coeffs, alpha, tol)

    pair = basis.from_generator(model.T, tol)
    bundle = factory.build_bundle(pair, alpha)

    report.add(
        _entrywise(
            "projection_projector",
            model.P @ model.P,
            model.P,
            tol,
            note="P^2 = P = P*",
        )
    )
    report.add(
        _entrywise("projection_T_inv", pair.generator_inverse, model.T_inv, tol)
    )
    report.add(_entrywise("projection_S_phi", bundle.S_phi, model.S_phi, tol))
    report.add(
        _entrywise("projection_S_phi_sqrt", bundle.S_phi_sqrt, model.S_phi_sqrt, tol)
    )
    report.add(
        _entrywise("projection_S_psi_sqrt", bundle.S_psi_sqrt, model.S_psi_sqrt, tol)
    )
    phi_closed, psi_closed = models.projection_phi_psi_closed_forms(model)
    report.add(
        _merge_worst(
            "projection_bases",
            [
                _entrywise("projection_bases", pair.phi, phi_closed, tol),
                _entrywise("projection_bases", pair.psi, psi_closed, tol),
            ],
            note="phi_n and psi_n case formulas",
        )
    )
    report.add(
        _entrywise(
            "projection_H_split",
            bundle.H_phi_psi,
            models.projection_H_closed_form(model),
            tol,
            note="H as support terms plus coordinate projections",
        )
    )
    outside = [k for k in range(dim) if k not in model.support]
    deviation = np.abs(bundle.h - np.diag(alpha.terms(dim)))
    block_residual = max(
        float(deviation[:, outside].max(initial=0.0)),
        float(deviation[outside, :].max(initial=0.0)),
    )
    report.add(
        CheckResult.from_residual(
            "projection_h_block",
            block_residual,
            tol,
            note="h acts as the diagonal weights on coordinates off the support",
        )
    )
    h_weights = model.h_domain_weights()
    report.add(
        CheckResult.from_residual(
            "h_domain_weights",
            float(np.abs(h_weights.terms(64) - alpha.terms(64)).max()),
            tol,
            note="D(h) matches D(H) through identical weight sequences",
        )
    )

    _common_bundle_checks(report, bundle, rng, tol)
    _ladder_checks(report, bundle, gamma, rng, tol)
    return report


def random_report(
    dim: int,
    seed: int = 0,
    alpha: sequences.SequenceSpec | None = None,
    gamma: sequences.SequenceSpec | None = None,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Full battery for a seeded random well-conditioned generator."""
    alpha = alpha if alpha is not None else sequences.poly(1.0)
    gamma = gamma if gamma is not None else sequences.sqrt_poly(1.0)
    report = VerificationReport(
        suite="random",
        params={
            "dim": int(dim),
            "seed": int(seed),
            "alpha": alpha.label,
            "gamma": gamma.label,
            "tol": float(tol),
        },
    )
    rng = np.random.default_rng(seed)
    pair = basis.from_generator(_random_generator(rng, dim), tol)
    bundle = factory.build_bundle(pair, alpha)
    _common_bundle_checks(report, bundle, rng, tol)
    _ladder_checks(report, bundle, gamma, rng, tol)
    return report


def run_verify(suite: str, **params) -> VerificationReport:
    if suite == "three-level":
        return three_level_report(
            t=params["t"],
            seed=params.get("seed", 0),
            tol=params.get("tol", DEFAULT_TOL),
        )
    if suite == "projection":
        return projection_report(
            dim=params.get("dim", 8),
            support=params.get("n", 3),
            seed=params.get("seed", 0),
            alpha=params.get("alpha"),
            gamma=params.get("gamma"),
            tol=params.get("tol", DEFAULT_TOL),
        )
    if suite == "random":
        return random_report(
            dim=params.get("dim", 8),
            seed=params.get("seed", 0),
            alpha=params.get("alpha"),
            gamma=params.get("gamma"),
            tol=params.get("tol", DEFAULT_TOL),
        )
    raise ValueError(f"unknown suite '{suite}'")


def sweep_three_level(
    t_min: float, t_max: float, steps: int, seed: int = 0, tol: float = DEFAULT_TOL
) -> list[VerificationReport]:
    if steps < 2:
        raise ValueError("a sweep needs at least 2 steps")
    if not t_min < t_max:
        raise ValueError("t-min must be strictly below t-max")
    grid = np.linspace(t_min, t_max, steps)
    return [three_level_report(float(t), seed=seed, tol=tol) for t in grid]


def sweep_projection(
    dim: int,
    n_min: int,
    n_max: int,
    seed: int = 0,
    alpha: sequences.SequenceSpec | None = None,
    tol: float = DEFAULT_TOL,
) -> list[VerificationReport]:
    if n_min > n_max:
        raise ValueError("n-min must not exceed n-max")
    return [
        projection_report(dim, n, seed=seed, alpha=alpha, tol=tol)
        for n in range(n_min, n_max + 1)
    ]


def run_domain(
    alpha: sequences.SequenceSpec,
    coeff: sequences.SequenceSpec,
    n_max: int = DEFAULT_N_MAX,
) -> DomainVerdict:
    return summability_verdict(alpha, coeff, n_max)


#: Report check name -> the library operation that produced or is validated
#: by it.  Every name a suite can emit appears here exactly once.
CHECK_REGISTRY = {
    "admissible": models.three_level,
    "eigenvalue_ordering": models.three_level,
    "three_level_H": models.three_level,
    "three_level_psi": models.three_level,
    "three_level_S_phi": models.three_level,
    "three_level_S_psi": models.three_level,
    "three_level_S_phi_sqrt": models.three_level,
    "three_level_S_psi_sqrt": models.three_level,
    "three_level_h": models.three_level,
    "three_level_Phi": similarity.transported_eigenbasis,
    "norm_T": linalg.operator_norm,
    "norm_T_inv": linalg.inverse,
    "sqrt_vs_generator": factory.build_bundle,
    "printed_ladder_matrices": models.three_level_ladder_closed_forms,
    "hat_spectrum": models.three_level_hat_spectrum,
    "ladder_adjoint_actions": ladder.check_ladder_adjoints,
    "projection_projector": models.projection_model,
    "projection_T_inv": models.projection_model,
    "projection_S_phi": models.projection_model,
    "projection_S_phi_sqrt": models.projection_model,
    "projection_S_psi_sqrt": models.projection_model,
    "projection_bases": models.projection_phi_psi_closed_forms,
    "projection_H_split": models.projection_H_closed_form,
    "projection_h_block": similarity.build_h,
    "h_domain_weights": models.ProjectionModel.h_domain_weights,
    "biorthogonality": basis.verify_biorthogonality,
    "reconstruction": basis.expand,
    "frame_inequality": basis.frame_inequality_check,
    "eigen_action": factory.check_eigen_action,
    "weighted_action": factory.check_weighted_action,
    "adjoint_pair": factory.check_adjoint_pair,
    "metric_pair": factory.check_metric_pair,
    "intertwining": factory.check_intertwining,
    "quasi_hermitian_symmetry": factory.quasi_hermitian_symmetry,
    "selfadjoint_h": similarity.check_selfadjoint_h,
    "transported_eigenbasis": similarity.check_transported_eigenbasis,
    "similarity_consistency": similarity.check_similarity_consistency,
    "onb_in_HS": similarity.onb_in_HS,
    "norm_bound": factory.check_norm_bound,
    "ladder_actions": ladder.check_ladder_actions,
    "ladder_adjoints": ladder.check_ladder_adjoints,
    "ladder_products": ladder.check_products,
    "ladder_commutator": ladder.check_commutator,
    "factorization": ladder.factorize_from_alpha,
}
