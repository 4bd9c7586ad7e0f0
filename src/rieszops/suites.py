"""Verification suites: assemble the full check battery for one model.

Three suites exist.  `three-level` runs the generic pipeline against the
3x3 closed-form model, `projection` against the rank-one perturbation
model, and `random` against a seeded well-conditioned generator
T = I + 0.3 R (R with entries uniform in the complex unit square, which
keeps the smallest singular value comfortably away from zero).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import basis, factory, ladder, models, sequences, similarity
from .linalg import DEFAULT_TOL
from .report import CheckResult, VerificationReport

_GENERATOR_SPREAD = 0.3


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
        pair, bundle.weights, _random_block(rng, pair.dim, 10), tol
    )
    report.add(replace(frame, note=f"worst of 10 samples: {frame.note}"))
    report.add(factory.check_eigen_action(bundle, tol))
    report.add(factory.check_weighted_action(bundle, tol))
    report.add(factory.check_adjoint_pair(bundle, tol))
    report.add(factory.check_metric_pair(bundle, tol))
    report.add(factory.check_intertwining(bundle, tol))
    if bundle.is_real:
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
    gamma: np.ndarray,
    rng,
    tol: float,
) -> ladder.LadderPair | None:
    """Ladder block shared by every suite: the ladder for gamma, its actions,
    adjoints, products and commutator, and H = BA for gamma_n = sqrt(alpha_n).
    Returns the ladder for gamma, or None at dim 1, where there is no block."""
    if bundle.pair.dim < 2:  # the interior 0..N-2 is empty: every entry is vacuous
        return None
    lp = ladder.build_ladder(bundle.pair, gamma)
    report.add(ladder.check_ladder_actions(lp, tol))
    report.add(ladder.check_ladder_adjoints(lp, tol))
    report.add(ladder.check_products(lp, tol))
    if lp.abs_monotone:
        coeffs = _random_block(rng, bundle.pair.dim - 1, 1)[:, 0]
        f = bundle.pair.phi[:, :-1] @ coeffs
        report.add(ladder.check_commutator(lp, f, tol))
    try:
        root = ladder.factorize_from_alpha(bundle)
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
            _entrywise(
                "factorization",
                root.B_phi_psi @ root.A_phi_psi,
                bundle.H_phi_psi,
                tol,
                note="H = BA entrywise for gamma_n = sqrt(alpha_n)",
            )
        )
    return lp


def three_level_report(
    t: float, seed: int = 0, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Full battery for the 3x3 model at parameter t."""
    report = VerificationReport(
        suite="three-level", params={"t": float(t), "seed": int(seed), "tol": float(tol)}
    )
    rng = np.random.default_rng(seed)
    model = models.three_level(t)
    min_gap = min(model.eps[1] - model.eps[0], model.eps[2] - model.eps[1])
    where, above = ("inside", ">") if model.admissible else ("outside", "<=")
    skipped = "" if model.admissible else "; ladder checks skipped"
    report.add(
        CheckResult(
            name="admissible",
            passed=model.admissible,
            residual=0.0 if model.admissible else 1.0,
            tol=0.5,
            note=(
                f"t {where} the admissible interval: smallest eigenvalue gap "
                f"{min_gap:.6e} {above} {DEFAULT_TOL:g}{skipped}"
            ),
        )
    )

    pair = basis.from_generator(model.T)
    bundle = factory.build_bundle(pair, np.array(model.eps, dtype=complex))

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
    norm_t = pair.frame_upper
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
            abs(1.0 / pair.frame_lower - norm_t / 5.0),
            tol,
            note="||T^{-1}|| = ||T|| / 5",
        )
    )

    _common_bundle_checks(report, bundle, rng, tol, quasi_pairs=50)

    if model.admissible:
        lp = _ladder_checks(report, bundle, np.sqrt(bundle.weights), rng, tol)
        # B* lowers and A* raises psi_n:
        # B* psi_n = g_n psi_{n-1} and A* psi_n = g_{n+1} psi_{n+1}
        worst = ladder.shift_action_residual(
            lp.B_phi_psi.conj().T,
            lp.A_phi_psi.conj().T,
            np.column_stack(model.psi),
            lp.weights,
        )
        report.add(
            CheckResult.from_residual(
                "ladder_adjoint_actions",
                worst,
                tol,
                note="B* and A* shift actions on psi_n",
            )
        )
        report.add(
            models.three_level_hat_spectrum(model, lp.A_phi_psi, lp.B_phi_psi, tol)
        )
        a_closed, b_closed = models.three_level_ladder_closed_forms(model)
        report.add(
            _entrywise(
                "printed_ladder_matrices",
                np.stack([lp.A_phi_psi, lp.B_phi_psi]),
                np.stack([a_closed, b_closed]),
                tol,
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
    model = models.projection_model(dim, coeffs, alpha.terms(dim))

    pair = basis.from_generator(model.T)
    bundle = factory.build_bundle(pair, model.weights)

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
        _entrywise(
            "projection_bases",
            np.stack([pair.phi, pair.psi]),
            np.stack([phi_closed, psi_closed]),
            tol,
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
    deviation = np.abs(bundle.h - np.diag(bundle.weights))
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

    _common_bundle_checks(report, bundle, rng, tol)
    _ladder_checks(report, bundle, gamma.terms(dim), rng, tol)
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
    pair = basis.from_generator(_random_generator(rng, dim))
    bundle = factory.build_bundle(pair, alpha.terms(dim))
    _common_bundle_checks(report, bundle, rng, tol)
    _ladder_checks(report, bundle, gamma.terms(dim), rng, tol)
    return report


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
