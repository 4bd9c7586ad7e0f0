"""Generalized lowering and raising operators and the factorization H = BA.

At truncation level N the raising operator drops its gamma_N term, so B
annihilates phi_{N-1} and the product identities for AB hold only on the
interior index range 0..N-2.  BA = H with weights gamma_n^2 additionally
needs gamma_0 = 0 (BA phi_0 is always zero); a nonzero gamma_0 is recorded
as a warning and the k = 0 comparison is skipped rather than failed.
The matrix-level products and the commutator need |gamma_n| nondecreasing
(LadderPair.abs_monotone).  Like the operators they are built from, ladders
carry a batch of points; every branch above is decided per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import RieszBasisPair
from .factory import OperatorBundle, _rank_one_sum, _weight_array, build_H
from .linalg import DEFAULT_TOL, adjoint, frobenius, guard, take, worst_column_norm
from .report import Check, notes


@dataclass(frozen=True)
class LadderPair:
    pair: RieszBasisPair
    #: gamma_0 .. gamma_{dim-1} of each point
    weights: np.ndarray
    #: per point, |gamma_0| <= ... <= |gamma_{dim-1}|: needed by the
    #: matrix-level products
    abs_monotone: np.ndarray
    A_phi_psi: np.ndarray
    B_phi_psi: np.ndarray
    A_psi_phi: np.ndarray
    B_psi_phi: np.ndarray

    @cached_property
    def BA(self) -> np.ndarray:
        """B A of the phi,psi pair, formed once for the products, the
        commutator and the factorization."""
        return self.B_phi_psi @ self.A_phi_psi

    @cached_property
    def AB(self) -> np.ndarray:
        return self.A_phi_psi @ self.B_phi_psi


def _shift_sum(weights, left, right, lower_shift: bool) -> np.ndarray:
    """Lowering: sum_{n>=1} w_n (left_{n-1} outer conj(right_n));
    raising: sum_{n<=N-2} w_{n+1} (left_{n+1} outer conj(right_n))."""
    if lower_shift:
        return _rank_one_sum(weights[..., 1:], left[..., :, :-1], right[..., :, 1:])
    return _rank_one_sum(weights[..., 1:], left[..., :, 1:], right[..., :, :-1])


def build_ladder(pair: RieszBasisPair, weights: np.ndarray) -> LadderPair:
    """All four ladder variants from the (..., dim) array gamma_0 .. gamma_{dim-1}.

    |.|-monotonicity is decided here, once per point, from the weights
    themselves: at small dim a truncated non-monotone sequence can be
    monotone.
    """
    g = _weight_array(pair, weights)
    mags = np.abs(g)
    return LadderPair(
        pair=pair,
        weights=g,
        abs_monotone=(mags[..., 1:] >= mags[..., :-1]).all(axis=-1),
        A_phi_psi=_shift_sum(g, pair.phi, pair.psi, True),
        B_phi_psi=_shift_sum(g, pair.phi, pair.psi, False),
        A_psi_phi=_shift_sum(g, pair.psi, pair.phi, True),
        B_psi_phi=_shift_sum(g, pair.psi, pair.phi, False),
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
    r1 = frobenius(adjoint(lp.A_phi_psi) - conj.B_psi_phi)
    r2 = frobenius(adjoint(lp.A_psi_phi) - conj.B_phi_psi)
    r3 = frobenius(adjoint(lp.B_phi_psi) - conj.A_psi_phi)
    r4 = frobenius(adjoint(lp.B_psi_phi) - conj.A_phi_psi)
    return Check(
        "ladder_adjoints",
        np.maximum(np.maximum(r1, r2), np.maximum(r3, r4)),
        notes("A* vs B residuals {:.3e}, {:.3e}; B* vs A {:.3e}, {:.3e}", r1, r2, r3, r4),
    )


def check_products(lp: LadderPair) -> Check:
    """Product identities on the interior range: (BA) phi_k = gamma_k^2 phi_k
    and (AB) phi_k = gamma_{k+1}^2 phi_k; index 0 of the BA part is skipped,
    with a warning, where gamma_0 != 0.

    For |.|-monotone gamma the matrix-level identities BA = H^{gamma_n^2} and
    AB = H^{gamma_{n+1}^2} are additionally asserted, restricted to the
    interior through the oblique projector sum phi_k psi_k*.
    """
    skip = np.abs(lp.weights[..., 0]) > 0.0
    counts = []
    for flag in (skip, lp.abs_monotone):  # the columns differ: split the batch
        counts.append(np.count_nonzero(flag))
        if 0 < counts[-1] < flag.size:
            on, off = check_products(take(lp, flag)), check_products(take(lp, ~flag))
            return Check.merge(flag, on, off)
    pair, g = lp.pair, lp.weights
    skip_zero, monotone = (bool(count) for count in counts)
    ba, ab = lp.BA, lp.AB
    ks = np.arange(pair.dim - 1)
    ks_ba = ks[ks != 0] if skip_zero else ks
    cols_ba, cols_ab = pair.phi[..., ks_ba], pair.phi[..., ks]
    r_ba = ba @ cols_ba - cols_ba * g[..., None, ks_ba] ** 2
    r_ab = ab @ cols_ab - cols_ab * g[..., None, ks + 1] ** 2
    worst = worst_column_norm(np.concatenate([r_ba, r_ab], axis=-1))
    parts = [notes(f"action residuals on interior 0..{pair.dim - 2}: {{:.3e}}", worst)]
    if monotone:
        interior = slice(1 if skip_zero else 0, pair.dim - 1)
        proj = pair.phi[..., interior] @ adjoint(pair.psi[..., interior])
        h_ba = build_H(pair, g**2, "phi_psi")
        shifted = np.concatenate([g[..., 1:] ** 2, np.zeros_like(g[..., :1])], axis=-1)
        h_ab = build_H(pair, shifted, "phi_psi")
        r_ba = frobenius((ba - h_ba) @ proj)
        r_ab = frobenius((ab - h_ab) @ proj)
        worst = np.maximum(np.maximum(worst, r_ba), r_ab)
        parts.append(notes("matrix-level BA {:.3e}, AB {:.3e}", r_ba, r_ab))
    else:
        parts.append(["matrix-level identities skipped: gamma not |.|-monotone"] * worst.size)
    if skip_zero:
        parts.append(notes(
            "gamma_0 = {:.6g} != 0: BA cannot reproduce the k=0 term; product checks skip index 0",
            g[..., 0],
        ))
    return Check("ladder_products", worst, ["; ".join(p) for p in zip(*parts)])


def check_commutator(lp: LadderPair, f: np.ndarray) -> Check:
    """(AB - BA) f = sum_{n<=N-2} (gamma_{n+1}^2 - gamma_n^2) <f, psi_n> phi_n
    for f in the interior span, with 0 in place of gamma_0^2: A phi_0 = 0.
    f holds one vector per point, (..., dim).

    Vectors with coefficient mass on psi_{N-1} beyond DEFAULT_TOL*||f|| are
    rejected: the identity is a truncation artifact outside the interior span.
    """
    if not lp.abs_monotone.all():
        raise ValueError("commutator identity requires |.|-monotone gamma")
    pair, g = lp.pair, lp.weights
    f = np.asarray(f, dtype=complex)[..., None]
    coeff = adjoint(pair.psi) @ f
    scale = np.maximum(frobenius(f), 1e-300)
    edge_mass = np.abs(coeff[..., -1, 0])
    guard(
        edge_mass > DEFAULT_TOL * scale,
        f"vector lies outside the interior span: |<f, psi_{pair.dim - 1}>| = {{:.6e}}",
        edge_mass,
        error=ValueError,
    )
    lhs = (lp.AB - lp.BA) @ f
    ba = g[..., :-1] ** 2
    ba[..., :1] = 0.0  # A phi_0 = 0, so BA phi_0 = 0 whatever gamma_0 is
    gaps = g[..., 1:] ** 2 - ba
    rhs = pair.phi[..., :, :-1] @ (gaps[..., None] * coeff[..., :-1, :])
    return Check(
        "ladder_commutator",
        frobenius(lhs - rhs) / scale,
        "(AB - BA) f vs weighted interior expansion, relative to ||f||",
    )


def _alpha_precondition(a: np.ndarray) -> str:
    """Why one point's alpha (dim,) admits no factorization."""
    if a.imag.any():
        k = int(np.argmax(np.abs(a.imag)))
        return f"alpha_{k} = {a[k]:.6g} is not real"
    vals = a.real
    if abs(vals[0]) > DEFAULT_TOL:
        return f"alpha_0 = {vals[0]:.6g} must be zero"
    k = int(np.argmax(np.diff(vals) <= DEFAULT_TOL)) + 1
    return (
        f"alpha must increase strictly from zero: violated at index {k} "
        f"(alpha_{k} = {vals[k]:.6g} <= alpha_{k - 1} = {vals[k - 1]:.6g})"
    )


def factorize_from_alpha(bundle: OperatorBundle) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Ladder weights gamma_n = sqrt(alpha_n), where alpha is real with
    0 = alpha_0 < alpha_1 < ..., each tested against DEFAULT_TOL: a guard,
    not a verdict, so the check tolerance never moves it.

    Returns the roots, the points where a precondition fails, and the
    failing precondition of each of those points in batch order.  Under
    them BA = H^alpha on the whole truncated space (B drops only gamma_N,
    which A never feeds); the reports check that product, this function
    does not form it.
    """
    a = bundle.weights
    vals = a.real
    failed = (
        ~bundle.is_real
        | (np.abs(vals[..., 0]) > DEFAULT_TOL)
        | (vals[..., 1:] - vals[..., :-1] <= DEFAULT_TOL).any(axis=-1)
    )
    reasons = [_alpha_precondition(point) for point in a[failed]]
    roots = np.sqrt(np.maximum(vals, 0.0))
    roots[..., 0] = 0.0  # alpha_0 is zero within DEFAULT_TOL; pin the convention exactly
    return roots.astype(complex), failed, reasons
