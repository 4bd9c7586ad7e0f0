"""Generalized lowering and raising operators and the factorization H = BA.

At truncation level N the lowering operator A = sum_{n>=1} gamma_n
(phi_{n-1} outer conj(psi_n)) annihilates phi_0, and the raising operator
B = sum_{n<=N-2} gamma_{n+1} (phi_{n+1} outer conj(psi_n)), which drops its
gamma_N term, annihilates phi_{N-1}: rank-one sums over the column slices
[..., :, :-1] and [..., :, 1:] of phi and the matching row slices of the
pair's psi*, formed once per pair.  Each builder holds one errstate for its
products.  By the adjoint rule of rank_one_sum their
adjoints are the psi,phi ladder of conj(gamma), (A_{phi,psi})* = B_{psi,phi},
so no psi,phi ladder is built.  For every gamma, on the whole truncated space,

    BA = H^{(0, gamma_1^2, ..., gamma_{N-1}^2)},
    AB = H^{(gamma_1^2, ..., gamma_{N-1}^2, 0)},

and, because sum_n phi_n psi_n* = I, the ladder with weights
gamma_n = sqrt(alpha_n - alpha_0) factorizes H - alpha_0 I = BA for every
alpha.  The paper's hypotheses (alpha real and strictly increasing,
|gamma_n| nondecreasing) concern the domains of the infinite-dimensional
operators; here they decide no check and are recorded in the notes.  Like
the operators they are built from, ladders carry a batch of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import RieszBasisPair
from .factory import require_weights, weighted_product
from .linalg import DEFAULT_TOL, max_entry, worst_column_norm
from .report import Check


@dataclass(frozen=True)
class LadderPair:
    pair: RieszBasisPair
    #: gamma_0 .. gamma_{dim-1} of each point
    weights: np.ndarray
    #: per point, |gamma_0| <= ... <= |gamma_{dim-1}|: the paper's hypothesis
    #: on gamma, recorded in the ladder_products note
    abs_monotone: np.ndarray
    A_phi_psi: np.ndarray
    B_phi_psi: np.ndarray

    @cached_property
    def BA(self) -> np.ndarray:
        """B A of the phi,psi pair, formed once for the products and the
        factorization."""
        return self.B_phi_psi @ self.A_phi_psi

    @cached_property
    def AB(self) -> np.ndarray:
        """A B of the phi,psi pair, formed once for the products and the
        three-level hat spectrum."""
        return self.A_phi_psi @ self.B_phi_psi


@np.errstate(over="ignore", invalid="ignore")
def build_ladder(pair: RieszBasisPair, weights: np.ndarray) -> LadderPair:
    """The phi,psi ladder from the (..., dim) array gamma_0 .. gamma_{dim-1}.

    |.|-monotonicity is decided here, once per point, from the weights
    themselves: at small dim a truncated non-monotone sequence can be
    monotone.
    """
    require_weights(weights, pair.phi)  # the products see only the shifted slices
    mags, phi, psi_adj, g = np.abs(weights), pair.phi, pair.psi_adj, weights[..., None, 1:]
    return LadderPair(
        pair=pair,
        weights=weights,
        abs_monotone=(mags[..., 1:] >= mags[..., :-1]).all(axis=-1),
        A_phi_psi=weighted_product(phi[..., :, :-1] * g, psi_adj[..., 1:, :]),
        B_phi_psi=weighted_product(phi[..., :, 1:] * g, psi_adj[..., :-1, :]),
    )


def shift_action_residual(
    lower: np.ndarray, upper: np.ndarray, cols: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Worst column residual of the shift actions on the columns c_n:

        lower c_0 = 0,  lower c_n = g_n c_{n-1};
        upper c_n = g_{n+1} c_{n+1} for n <= N-2,  upper c_{N-1} = 0.
    """
    down = lower @ cols
    down[..., :, 1:] -= cols[..., :, :-1] * g[..., None, 1:]
    up = upper @ cols
    up[..., :, :-1] -= cols[..., :, 1:] * g[..., None, 1:]
    return np.maximum(worst_column_norm(down), worst_column_norm(up))  # NaN stays NaN


def check_ladder_actions(lp: LadderPair) -> Check:
    """A phi_0 = 0, A phi_n = gamma_n phi_{n-1}; B phi_n = gamma_{n+1} phi_{n+1}
    for n <= N-2 and B phi_{N-1} = 0 (dropped term at truncation)."""
    worst = shift_action_residual(lp.A_phi_psi, lp.B_phi_psi, lp.pair.phi, lp.weights)
    return Check("ladder_actions", worst, "A and B shift actions on phi_n")


@np.errstate(over="ignore", invalid="ignore")
def check_products(lp: LadderPair) -> Check:
    """BA = H^{(0, gamma_1^2, ...)} and AB = H^{(..., gamma_{N-1}^2, 0)} on
    the whole truncated space, for every gamma: the largest entry modulus
    of either difference.

    The note adds the commutator residual: AB - BA against
    H^{(gamma_1^2 - 0, gamma_2^2 - gamma_1^2, ..., 0 - gamma_{N-1}^2)}, the
    difference of the two shifted H.  It is (AB - H_ab) - (BA - H_ba), at
    most the sum of the two product residuals, so it decides nothing.  Like
    the builders, it holds one errstate for its products and the squares.
    """
    squares = lp.weights[..., None, 1:] ** 2
    zero = np.zeros_like(lp.weights[..., None, :1])
    phi, psi_adj = lp.pair.phi, lp.pair.psi_adj
    d_ba = lp.BA - weighted_product(phi * np.concatenate([zero, squares], axis=-1), psi_adj)
    d_ab = lp.AB - weighted_product(phi * np.concatenate([squares, zero], axis=-1), psi_adj)
    r_ba, r_ab = max_entry(d_ba), max_entry(d_ab)
    return Check(
        "ladder_products",
        np.maximum(r_ba, r_ab),
        "max-entry BA {:.3e}, AB {:.3e} vs H of the shifted gamma_n^2; "
        "commutator {:.3e}; gamma {}|.|-monotone",
        (r_ba, r_ab, max_entry(d_ab - d_ba), np.where(lp.abs_monotone, "", "not ")),
    )


def factorize_from_alpha(
    alpha: np.ndarray, is_real: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Ladder weights gamma_n = sqrt(alpha_n - alpha_0), principal branch,
    whose ladder factorizes H - alpha_0 I = BA for every alpha, from a
    bundle's (..., dim) weights and per-point realness; the reports check
    that product, this function does not form it.

    Returns the roots, the points where the paper's hypotheses fail (alpha
    real and strictly increasing, tested against DEFAULT_TOL: a fact, not
    a verdict, so the check tolerance never moves it), and what fails at
    each of those points in batch order.
    """
    steps = np.zeros(alpha.shape, bool)  # alpha_n - alpha_{n-1} <= DEFAULT_TOL at n > 0
    np.less_equal(alpha.real[..., 1:] - alpha.real[..., :-1], DEFAULT_TOL, out=steps[..., 1:])
    failed = ~is_real | steps.any(axis=-1)
    roots = np.sqrt((alpha - alpha[..., :1]).astype(complex))
    if not failed.any():
        return roots, failed, []
    # what fails: the largest imaginary part of a complex point, the first
    # such step of a real one; one argmax over the failed points
    bad, complex_point = alpha[failed], ~is_real[failed]
    k = np.where(complex_point, np.abs(bad.imag).argmax(axis=-1), steps[failed].argmax(axis=-1))
    rows = np.arange(len(bad))
    at, before = bad[rows, k].tolist(), bad.real[rows, k - 1].tolist()
    reasons = [
        f"alpha_{j} = {x:.6g} is not real"
        if is_complex
        else f"alpha does not increase strictly: violated at index {j} "
        f"(alpha_{j} = {x.real:.6g} <= alpha_{j - 1} = {y:.6g})"
        for is_complex, j, x, y in zip(complex_point.tolist(), k.tolist(), at, before)
    ]
    return roots, failed, reasons
