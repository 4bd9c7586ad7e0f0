"""Verification suites: assemble the full check battery for one model.

Three suites exist.  `three-level` runs the generic pipeline against the
3x3 closed-form model, `projection` against the rank-one perturbation
model, and `random` against a seeded generator T = I + 0.3 R (R with
entries uniform in the complex unit square), whose cond(T) grows with dim:
3.5-4.5 at dim 8 up to 233-924 at dim 64 for seeds 0-3 (0.3 R has a mean
of norm about 0.21 dim, and its centred part a spectral radius near 1).

The battery runs on a batch of points: a sweep is a few stacked calls, of
at most three dim-64 reports' matrix entries each, and a single report is
the sweep of one point.  Checks return a residual per point, and each joins
its ReportStack as one column over the points.
"""

from __future__ import annotations

import math

import numpy as np

from . import basis, factory, ladder, models, sequences, similarity
from .linalg import DEFAULT_TOL, adjoint, identity, max_entry
from .report import Check, ReportStack, VerificationReport

_GENERATOR_SPREAD = 0.3
#: matrix entries per field of three dim-64 reports: the most one stack may
#: hold, so a dim-64 projection sweep of three supports is one stack
_STACK_ENTRIES = 3 * 64 * 64


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


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays along a new leading axis; a single one is viewed, not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _stacked(reports_of, points, dim: int, *args) -> list[VerificationReport]:
    """reports_of(stack, *args) on consecutive stacks of at most
    max(1, _STACK_ENTRIES // dim**2) of the points, concatenated."""
    size = max(1, _STACK_ENTRIES // dim**2)
    stacks = (points[start : start + size] for start in range(0, len(points), size))
    return [report for stack in stacks for report in reports_of(stack, *args)]


def _battery(
    stack: ReportStack,
    generator: np.ndarray,
    alpha: np.ndarray,
    gamma: np.ndarray,
    rngs: list,
    tol: float,
    model=None,
    extras=lambda bundle: (),
) -> ladder.LadderPair | None:
    """The chain every suite runs, in one order: the pair and the bundle of
    the (k, d, d) generators and (k, d) alpha, the model's closed-form rows
    (each the largest entry modulus of the bundle's or pair's field minus
    the model's field of that name), the caller's extra checks of the
    bundle, the common block (basis identities, actions,
    intertwining, similarity, and the self-adjointness of h when every
    alpha is real: no suite's stack mixes realness), and the ladder block
    for the (k, d) gamma at every point, whether or not the paper's
    hypotheses hold there.  The ladder block runs when dim >= 2 (A = B = 0
    makes every identity vacuous); returns the ladder, None at dim 1.  Every
    check joins the stack; numpy's overflow and invalid-value warnings are
    off for the whole chain, because a residual that is not finite already
    fails its check.  The bundle is released before the ladder block, which
    reads only the pair, alpha, its realness and H: that block then holds
    its ladders in the bundle's place.

    The frame inequality's 10 vectors come from rngs: one generator shared
    by every point, whose (1, d, 10) block every point reads (each point's
    own stream when all share seed and dim), or one per point, each drawing
    its slice of a (k, d, 10) block."""
    with np.errstate(over="ignore", invalid="ignore"):
        pair = basis.from_generator(generator)
        del generator  # the pair holds its own copy
        bundle = factory.build_bundle(pair, alpha)
        vectors = _stack([_random_block(rng, pair.dim, 10) for rng in rngs])
        fields = vars(pair) | vars(bundle)
        stack.record(
            tol,
            *(
                Check(name, max_entry(fields[field] - getattr(model, field)), note)
                for name, field, note in (() if model is None else model.rows)
            ),
            *extras(bundle),
            basis.verify_biorthogonality(pair),
            basis.frame_inequality_check(pair, bundle.weights, vectors),
            factory.check_eigen_action(bundle),
            factory.check_weighted_action(bundle),
            factory.check_metric_pair(bundle),
            factory.check_intertwining(bundle),
        )
        if bundle.is_real.all():
            stack.record(tol, similarity.check_selfadjoint_h(bundle))
        stack.record(
            tol,
            similarity.check_transported_eigenbasis(bundle),
            similarity.check_similarity_consistency(bundle),
            factory.check_norm_bound(bundle),
        )
        if pair.dim < 2:
            return None
        weights, is_real, h_phi_psi = bundle.weights, bundle.is_real, bundle.H_phi_psi
        del bundle, fields
        return _ladder_checks(stack, pair, weights, is_real, h_phi_psi, gamma, tol)


def _ladder_checks(
    stack: ReportStack,
    pair: basis.RieszBasisPair,
    alpha: np.ndarray,
    is_real: np.ndarray,
    h_phi_psi: np.ndarray,
    gamma: np.ndarray,
    tol: float,
) -> ladder.LadderPair:
    """Ladder block shared by every suite, run at every point of the batch:
    the ladder for gamma, its actions and products, and
    H - alpha_0 I = BA for gamma_n = sqrt(alpha_n - alpha_0), from the
    ladder for gamma when the roots equal it.  These identities hold at
    truncation for every alpha and gamma; whether the paper's hypotheses
    hold is recorded in the factorization note and decides no check.
    Of the bundle it takes only alpha, its realness and H_{phi,psi}, so the
    caller can free the rest first.  Returns the ladder for gamma."""
    lp = ladder.build_ladder(pair, gamma)
    roots, failed, reasons = ladder.factorize_from_alpha(alpha, is_real)
    root = lp if (roots == lp.weights).all() else ladder.build_ladder(pair, roots)
    hold = "alpha is real and strictly increasing: the paper's hypotheses hold"
    why = np.full(failed.shape, hold, object)
    if reasons:
        why[failed] = ["the paper's hypotheses fail: " + reason for reason in reasons]
    note = "H - alpha_0 I = BA entrywise for gamma_n = sqrt(alpha_n - alpha_0); {}"
    shifted = h_phi_psi - alpha[..., :1, None] * identity(pair.dim)
    stack.record(
        tol,
        ladder.check_ladder_actions(lp),
        ladder.check_products(lp),
        Check("factorization", max_entry(root.BA - shifted), note, (why,)),
    )
    return lp


def _three_level_reports(ts: np.ndarray, seed: int, tol: float) -> list[VerificationReport]:
    """Full battery for the 3x3 model at every parameter of ts, as one stack."""
    params = [{"t": t, "seed": int(seed), "tol": float(tol)} for t in ts.tolist()]
    stack = ReportStack("three-level", params)
    rng = np.random.default_rng(seed)
    model = models.three_level(ts)
    inside, gaps = model.admissible, np.diff(model.eps, axis=-1).min(axis=-1)
    out = f"<= {DEFAULT_TOL:g}; the paper's hypotheses fail, every other check still runs"
    parts = np.where(inside, "inside", "outside"), gaps, np.where(inside, f"> {DEFAULT_TOL:g}", out)
    note = "t {} the admissible interval: smallest eigenvalue gap {:.6e} {}"
    stack.record(0.5, Check("admissible", np.where(inside, 0.0, 1.0), note, parts))
    expected_norm = float(np.sqrt((39.0 + 7.0 * np.sqrt(29.0)) / 2.0))
    norm_note = f"||T|| = {{:.12g}}, parameter-independent value {expected_norm:.12g}"

    def norms(bundle: factory.OperatorBundle) -> tuple[Check, ...]:
        pair = bundle.pair
        norm_t = pair.frame_upper
        return (
            Check("norm_T", np.abs(norm_t - expected_norm), norm_note, (norm_t,)),
            Check(
                "norm_T_inv",
                np.abs(1.0 / pair.frame_lower - norm_t / 5.0),
                "||T^{-1}|| = ||T|| / 5",
            ),
        )

    eps = model.eps.astype(complex)
    lp = _battery(stack, model.T, eps, np.sqrt(eps), [rng], tol, model, norms)
    a_closed, b_closed = models.three_level_ladder_closed_forms(model)
    stack.record(
        tol,
        # B* lowers and A* raises psi_n, with conjugated weights (gamma_1 is
        # imaginary outside the admissible interval):
        # B* psi_n = conj(g_n) psi_{n-1} and A* psi_n = conj(g_{n+1}) psi_{n+1}
        Check(
            "ladder_adjoint_actions",
            ladder.shift_action_residual(
                adjoint(lp.B_phi_psi),
                adjoint(lp.A_phi_psi),
                model.psi,
                lp.weights.conj(),
            ),
            "B* and A* shift actions on psi_n",
        ),
        models.three_level_hat_spectrum(model, lp.AB),
        Check(
            "printed_ladder_matrices",
            max_entry(np.concatenate([lp.A_phi_psi - a_closed, lp.B_phi_psi - b_closed], axis=-1)),
            "closed-form A(t), B(t) vs generic construction",
        ),
    )
    return stack.reports()


def three_level_report(t: float, seed: int = 0, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Full battery for the 3x3 model at parameter t: a sweep of one point."""
    return _stacked(_three_level_reports, np.array([float(t)]), 3, seed, tol)[0]


def _check_support(dim: int, support: int) -> None:
    if not 2 <= support <= dim:
        raise ValueError(f"support size must be in 2..{dim}, got {support}")


def _projection_reports(
    supports: list[int], dim: int, seed: int, alpha: sequences.SequenceSpec,
    gamma: sequences.SequenceSpec, tol: float
) -> list[VerificationReport]:
    """Full battery for the seeded projection model at each support size, as
    one stack; each point draws u, then its vectors, from its own rng."""
    labels = {"alpha": alpha.label, "gamma": gamma.label, "tol": float(tol)}
    params = [{"dim": int(dim), "n": int(n), "seed": int(seed)} | labels for n in supports]
    stack = ReportStack("projection", params)
    rngs = [np.random.default_rng(seed) for _ in supports]
    u = np.zeros((len(supports), max(supports)), dtype=complex)
    for k, (rng, support) in enumerate(zip(rngs, supports)):
        coeffs = _random_block(rng, support, 1)[:, 0]
        u[k, :support] = coeffs / np.linalg.norm(coeffs)
    model = models.projection_model(dim, u, _stack([alpha.terms(dim)] * len(supports)))
    off = ~model.inside

    def h_block(bundle: factory.OperatorBundle) -> tuple[Check]:
        deviation = np.abs(bundle.h - identity(dim) * bundle.weights[..., None, :])
        return (
            Check(
                "projection_h_block",
                np.where(off[:, :, None] | off[:, None, :], deviation, 0.0).max(axis=(-2, -1)),
                "h acts as the diagonal weights on coordinates off the support",
            ),
        )

    gammas = _stack([gamma.terms(dim)] * len(supports))
    _battery(stack, model.T, model.weights, gammas, rngs, tol, model, h_block)
    return stack.reports()


def projection_report(
    dim: int,
    n: int,
    seed: int = 0,
    alpha: sequences.SequenceSpec = sequences.poly(1.0),
    gamma: sequences.SequenceSpec = sequences.sqrt_poly(1.0),
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Full battery for a seeded projection model with support size n: a
    sweep of one point."""
    _check_support(dim, n)
    return _stacked(_projection_reports, [n], dim, dim, seed, alpha, gamma, tol)[0]


def random_report(
    dim: int,
    seed: int = 0,
    alpha: sequences.SequenceSpec = sequences.poly(1.0),
    gamma: sequences.SequenceSpec = sequences.sqrt_poly(1.0),
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Full battery for a seeded random generator: a batch of one point."""
    labels = {"alpha": alpha.label, "gamma": gamma.label, "tol": float(tol)}
    params = {"dim": int(dim), "seed": int(seed)} | labels
    stack = ReportStack("random", [params])
    rng = np.random.default_rng(seed)
    generator = _random_generator(rng, dim)[None]
    _battery(stack, generator, alpha.terms(dim)[None], gamma.terms(dim)[None], [rng], tol)
    return stack.reports()[0]


def sweep_three_level(
    t_min: float, t_max: float, steps: int, seed: int = 0, tol: float = DEFAULT_TOL
) -> list[VerificationReport]:
    """three_level_report at each point of the grid, in stacks of 1365: every
    grid the CLI allows (up to 1000 steps) is one stack."""
    if steps < 2:
        raise ValueError("a sweep needs at least 2 steps")
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError(f"t-min and t-max must be finite, got {t_min} and {t_max}")
    if not t_min < t_max:
        raise ValueError("t-min must be strictly below t-max")
    return _stacked(_three_level_reports, np.linspace(t_min, t_max, steps), 3, seed, tol)


def sweep_projection(
    dim: int,
    n_min: int,
    n_max: int,
    seed: int = 0,
    alpha: sequences.SequenceSpec = sequences.poly(1.0),
    tol: float = DEFAULT_TOL,
) -> list[VerificationReport]:
    """projection_report at each support size, run in stacks of at most
    max(1, 3 * 4096 // dim**2) points: 12 at dim 32, and 3 at dim 64, so a
    dim-64 sweep of three supports is one stack."""
    if n_min > n_max:
        raise ValueError("n-min must not exceed n-max")
    for n in (n_min, n_max):
        _check_support(dim, n)
    gamma = sequences.sqrt_poly(1.0)
    supports = list(range(n_min, n_max + 1))
    return _stacked(_projection_reports, supports, dim, dim, seed, alpha, gamma, tol)
