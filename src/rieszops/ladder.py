"""Generalized lowering and raising operators and the factorization H = BA.

At truncation level N the lowering operator A = sum_{n>=1} gamma_n
(phi_{n-1} outer conj(psi_n)) annihilates phi_0, and the raising operator
B = sum_{n<=N-2} gamma_{n+1} (phi_{n+1} outer conj(psi_n)), which drops its
gamma_N term, annihilates phi_{N-1}: rank-one sums over the column slices
[..., :, :-1] and [..., :, 1:], and over psi and phi swapped for the psi,phi
variants.  So for every gamma, on the whole truncated space,

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
from .factory import OperatorBundle, rank_one_sum
from .linalg import DEFAULT_TOL, adjoint, frobenius, max_entry, worst_column_norm
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
    def A_psi_phi(self) -> np.ndarray:
        """The psi,phi variants, formed only where the adjoint check reads them."""
        psi, phi = self.pair.psi, self.pair.phi
        return rank_one_sum(self.weights[..., 1:], psi[..., :, :-1], phi[..., :, 1:])

    @cached_property
    def B_psi_phi(self) -> np.ndarray:
        psi, phi = self.pair.psi, self.pair.phi
        return rank_one_sum(self.weights[..., 1:], psi[..., :, 1:], phi[..., :, :-1])

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


def build_ladder(pair: RieszBasisPair, weights: np.ndarray) -> LadderPair:
    """The phi,psi ladder from the (..., dim) array gamma_0 .. gamma_{dim-1};
    the psi,phi variants are formed on first use.

    |.|-monotonicity is decided here, once per point, from the weights
    themselves: at small dim a truncated non-monotone sequence can be
    monotone.
    """
    expected = pair.phi.shape[:-1]  # rank_one_sum sees only the shifted slices
    if np.shape(weights) != expected:
        raise ValueError(f"weights have shape {np.shape(weights)}, expected {expected}")
    mags, phi, psi = np.abs(weights), pair.phi, pair.psi
    return LadderPair(
        pair=pair,
        weights=weights,
        abs_monotone=(mags[..., 1:] >= mags[..., :-1]).all(axis=-1),
        A_phi_psi=rank_one_sum(weights[..., 1:], phi[..., :, :-1], psi[..., :, 1:]),
        B_phi_psi=rank_one_sum(weights[..., 1:], phi[..., :, 1:], psi[..., :, :-1]),
    )


def shift_action_residual(
    lower: np.ndarray, upper: np.ndarray, cols: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Worst column residual of the shift actions on the columns c_n:

        lower c_0 = 0,  lower c_n = g_n c_{n-1};
        upper c_n = g_{n+1} c_{n+1} for n <= N-2,  upper c_{N-1} = 0.
    """
    shifted_down = np.zeros_like(cols)
    shifted_down[..., :, 1:] = cols[..., :, :-1] * g[..., None, 1:]
    shifted_up = np.zeros_like(cols)
    shifted_up[..., :, :-1] = cols[..., :, 1:] * g[..., None, 1:]
    return worst_column_norm(
        np.concatenate([lower @ cols - shifted_down, upper @ cols - shifted_up], axis=-1)
    )


def check_ladder_actions(lp: LadderPair) -> Check:
    """A phi_0 = 0, A phi_n = gamma_n phi_{n-1}; B phi_n = gamma_{n+1} phi_{n+1}
    for n <= N-2 and B phi_{N-1} = 0 (dropped term at truncation)."""
    worst = shift_action_residual(lp.A_phi_psi, lp.B_phi_psi, lp.pair.phi, lp.weights)
    return Check("ladder_actions", worst, "A and B shift actions on phi_n")


def check_ladder_adjoints(lp: LadderPair) -> Check:
    """(A_{phi,psi})* = B_{psi,phi} and (A_{psi,phi})* = B_{phi,psi}, both
    built with conjugated weights: the ladder itself for real weights."""
    conj = lp
    if lp.weights.imag.any():
        conj = build_ladder(lp.pair, lp.weights.conj())
    return Check.worst(
        "ladder_adjoints",
        "A* vs B residuals {:.3e}, {:.3e}; B* vs A {:.3e}, {:.3e}",
        frobenius(adjoint(lp.A_phi_psi) - conj.B_psi_phi),
        frobenius(adjoint(lp.A_psi_phi) - conj.B_phi_psi),
        frobenius(adjoint(lp.B_phi_psi) - conj.A_psi_phi),
        frobenius(adjoint(lp.B_psi_phi) - conj.A_phi_psi),
    )


def check_products(lp: LadderPair) -> Check:
    """BA = H^{(0, gamma_1^2, ...)} and AB = H^{(..., gamma_{N-1}^2, 0)} on
    the whole truncated space, for every gamma: the largest entry modulus
    of either difference.

    The note adds the commutator residual: AB - BA against
    H^{(gamma_1^2 - 0, gamma_2^2 - gamma_1^2, ..., 0 - gamma_{N-1}^2)}, the
    difference of the two shifted H.  It is (AB - H_ab) - (BA - H_ba), at
    most the sum of the two product residuals, so it decides nothing.
    """
    squares = lp.weights[..., 1:] ** 2
    zero = np.zeros_like(lp.weights[..., :1])
    phi, psi = lp.pair.phi, lp.pair.psi
    d_ba = lp.BA - rank_one_sum(np.concatenate([zero, squares], axis=-1), phi, psi)
    d_ab = lp.AB - rank_one_sum(np.concatenate([squares, zero], axis=-1), phi, psi)
    r_ba, r_ab = max_entry(d_ba), max_entry(d_ab)
    return Check(
        "ladder_products",
        np.maximum(r_ba, r_ab),
        "max-entry BA {:.3e}, AB {:.3e} vs H of the shifted gamma_n^2; "
        "commutator {:.3e}; gamma {}|.|-monotone",
        (r_ba, r_ab, max_entry(d_ab - d_ba), np.where(lp.abs_monotone, "", "not ")),
    )


def _hypothesis_failure(a: np.ndarray) -> str:
    """Which of the paper's hypotheses one point's alpha (dim,) fails."""
    if a.imag.any():
        k = int(np.argmax(np.abs(a.imag)))
        return f"alpha_{k} = {a[k]:.6g} is not real"
    vals = a.real
    k = int(np.argmax(np.diff(vals) <= DEFAULT_TOL)) + 1
    return (
        f"alpha does not increase strictly: violated at index {k} "
        f"(alpha_{k} = {vals[k]:.6g} <= alpha_{k - 1} = {vals[k - 1]:.6g})"
    )


def factorize_from_alpha(bundle: OperatorBundle) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Ladder weights gamma_n = sqrt(alpha_n - alpha_0), principal branch,
    whose ladder factorizes H - alpha_0 I = BA for every alpha; the reports
    check that product, this function does not form it.

    Returns the roots, the points where the paper's hypotheses fail (alpha
    real and strictly increasing, tested against DEFAULT_TOL: a fact, not
    a verdict, so the check tolerance never moves it), and what fails at
    each of those points in batch order.
    """
    a = bundle.weights
    failed = ~bundle.is_real | (np.diff(a.real, axis=-1) <= DEFAULT_TOL).any(axis=-1)
    reasons = [_hypothesis_failure(point) for point in a[failed]]
    return np.sqrt((a - a[..., :1]).astype(complex)), failed, reasons
