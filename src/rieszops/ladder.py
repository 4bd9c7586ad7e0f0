"""Generalized lowering and raising operators and the factorization H = BA.

At truncation level N the raising operator drops its gamma_N term, so B
annihilates phi_{N-1} and the product identities for AB hold only on the
interior index range 0..N-2.  BA = H with weights gamma_n^2 additionally
needs gamma_0 = 0 (BA phi_0 is always zero); a nonzero gamma_0 is recorded
as a warning and the k = 0 comparison is skipped rather than failed.
The matrix-level products and the commutator need |gamma_n| nondecreasing
(LadderPair.abs_monotone).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import RieszBasisPair
from .factory import OperatorBundle, _rank_one_sum, _weight_array, build_H
from .linalg import DEFAULT_TOL, frobenius, worst_column_norm
from .report import CheckResult


@dataclass(frozen=True)
class LadderPair:
    pair: RieszBasisPair
    #: gamma_0 .. gamma_{dim-1}
    weights: np.ndarray
    #: |gamma_0| <= ... <= |gamma_{dim-1}|: needed by the matrix-level products
    abs_monotone: bool
    A_phi_psi: np.ndarray
    B_phi_psi: np.ndarray
    A_psi_phi: np.ndarray
    B_psi_phi: np.ndarray
    #: set when gamma_0 != 0, in which case BA cannot reproduce the k = 0 term
    gamma0_warning: str = ""


def _shift_sum(weights, left, right, lower_shift: bool) -> np.ndarray:
    """Lowering: sum_{n>=1} w_n (left_{n-1} outer conj(right_n));
    raising: sum_{n<=N-2} w_{n+1} (left_{n+1} outer conj(right_n))."""
    if lower_shift:
        return _rank_one_sum(weights[1:], left[:, :-1], right[:, 1:])
    return _rank_one_sum(weights[1:], left[:, 1:], right[:, :-1])


def build_ladder(pair: RieszBasisPair, weights: np.ndarray) -> LadderPair:
    """All four ladder variants from the (dim,) array gamma_0 .. gamma_{dim-1}.

    |.|-monotonicity is decided here, once, from the weights themselves: at
    small dim a truncated non-monotone sequence can be monotone.
    """
    g = _weight_array(pair, weights)
    mags = np.abs(g)
    warning = ""
    if abs(g[0]) > 0.0:
        warning = (
            f"gamma_0 = {g[0]:.6g} != 0: BA cannot reproduce the k=0 term; "
            "product checks skip index 0"
        )
    return LadderPair(
        pair=pair,
        weights=g,
        abs_monotone=bool((mags[1:] >= mags[:-1]).all()),
        A_phi_psi=_shift_sum(g, pair.phi, pair.psi, True),
        B_phi_psi=_shift_sum(g, pair.phi, pair.psi, False),
        A_psi_phi=_shift_sum(g, pair.psi, pair.phi, True),
        B_psi_phi=_shift_sum(g, pair.psi, pair.phi, False),
        gamma0_warning=warning,
    )


def shift_action_residual(
    lower: np.ndarray, upper: np.ndarray, cols: np.ndarray, g: np.ndarray
) -> float:
    """Worst column residual of the shift actions on the columns c_n:

        lower c_0 = 0,  lower c_n = g_n c_{n-1};
        upper c_n = g_{n+1} c_{n+1} for n <= N-2,  upper c_{N-1} = 0.
    """
    shifted_down = np.zeros_like(cols)
    shifted_down[:, 1:] = cols[:, :-1] * g[1:]
    shifted_up = np.zeros_like(cols)
    shifted_up[:, :-1] = cols[:, 1:] * g[1:]
    return worst_column_norm(
        np.hstack([lower @ cols - shifted_down, upper @ cols - shifted_up])
    )


def check_ladder_actions(lp: LadderPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """A phi_0 = 0, A phi_n = gamma_n phi_{n-1}; B phi_n = gamma_{n+1} phi_{n+1}
    for n <= N-2 and B phi_{N-1} = 0 (dropped term at truncation)."""
    worst = shift_action_residual(lp.A_phi_psi, lp.B_phi_psi, lp.pair.phi, lp.weights)
    return CheckResult.from_residual(
        "ladder_actions", worst, tol, note="A and B shift actions on phi_n"
    )


def check_ladder_adjoints(lp: LadderPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """(A_{phi,psi})* = B_{psi,phi} and (A_{psi,phi})* = B_{phi,psi}, both
    built with conjugated weights: the ladder itself for real weights."""
    conj = lp
    if lp.weights.imag.any():
        conj = build_ladder(lp.pair, lp.weights.conj())
    r1 = frobenius(lp.A_phi_psi.conj().T - conj.B_psi_phi)
    r2 = frobenius(lp.A_psi_phi.conj().T - conj.B_phi_psi)
    r3 = frobenius(lp.B_phi_psi.conj().T - conj.A_psi_phi)
    r4 = frobenius(lp.B_psi_phi.conj().T - conj.A_phi_psi)
    return CheckResult.from_residual(
        "ladder_adjoints",
        max(r1, r2, r3, r4),
        tol,
        note=f"A* vs B residuals {r1:.3e}, {r2:.3e}; B* vs A {r3:.3e}, {r4:.3e}",
    )


def check_products(lp: LadderPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Product identities on the interior range: (BA) phi_k = gamma_k^2 phi_k
    and (AB) phi_k = gamma_{k+1}^2 phi_k.

    For |.|-monotone gamma the matrix-level identities BA = H^{gamma_n^2} and
    AB = H^{gamma_{n+1}^2} are additionally asserted, restricted to the
    interior through the oblique projector sum phi_k psi_k*.
    """
    pair, g = lp.pair, lp.weights
    ba = lp.B_phi_psi @ lp.A_phi_psi
    ab = lp.A_phi_psi @ lp.B_phi_psi
    skip_zero = bool(lp.gamma0_warning)
    ks = np.arange(pair.dim - 1)
    ks_ba = ks[ks != 0] if skip_zero else ks
    cols_ba, cols_ab = pair.phi[:, ks_ba], pair.phi[:, ks]
    r_ba = ba @ cols_ba - cols_ba * g[ks_ba] ** 2
    r_ab = ab @ cols_ab - cols_ab * g[ks + 1] ** 2
    worst = worst_column_norm(np.hstack([r_ba, r_ab]))
    notes = [f"action residuals on interior 0..{pair.dim - 2}: {worst:.3e}"]
    if lp.abs_monotone:
        interior = slice(1 if skip_zero else 0, pair.dim - 1)
        proj = pair.phi[:, interior] @ pair.psi[:, interior].conj().T
        h_ba = build_H(pair, g**2, "phi_psi")
        h_ab = build_H(pair, np.concatenate([g[1:] ** 2, [0.0]]), "phi_psi")
        r_ba = frobenius((ba - h_ba) @ proj)
        r_ab = frobenius((ab - h_ab) @ proj)
        worst = max(worst, r_ba, r_ab)
        notes.append(f"matrix-level BA {r_ba:.3e}, AB {r_ab:.3e}")
    else:
        notes.append("matrix-level identities skipped: gamma not |.|-monotone")
    if lp.gamma0_warning:
        notes.append(lp.gamma0_warning)
    return CheckResult.from_residual(
        "ladder_products", worst, tol, note="; ".join(notes)
    )


def check_commutator(
    lp: LadderPair, f: np.ndarray, tol: float = DEFAULT_TOL
) -> CheckResult:
    """(AB - BA) f = sum_{n<=N-2} (gamma_{n+1}^2 - gamma_n^2) <f, psi_n> phi_n
    for f in the interior span.

    Vectors with coefficient mass on psi_{N-1} beyond DEFAULT_TOL*||f|| are
    rejected: the identity is a truncation artifact outside the interior span.
    """
    if not lp.abs_monotone:
        raise ValueError("commutator identity requires |.|-monotone gamma")
    pair = lp.pair
    f = np.asarray(f, dtype=complex)
    g = lp.weights
    coeff = pair.psi.conj().T @ f
    scale = max(float(np.linalg.norm(f)), 1e-300)
    edge_mass = abs(coeff[-1])
    if edge_mass > DEFAULT_TOL * scale:
        raise ValueError(
            f"vector lies outside the interior span: |<f, psi_{pair.dim - 1}>| "
            f"= {edge_mass:.6e}"
        )
    lhs = (lp.A_phi_psi @ lp.B_phi_psi - lp.B_phi_psi @ lp.A_phi_psi) @ f
    gaps = g[1:] ** 2 - g[:-1] ** 2
    rhs = pair.phi[:, :-1] @ (gaps * coeff[:-1])
    residual = float(np.linalg.norm(lhs - rhs)) / scale
    return CheckResult.from_residual(
        "ladder_commutator",
        residual,
        tol,
        note="(AB - BA) f vs weighted interior expansion, relative to ||f||",
    )


def factorize_from_alpha(bundle: OperatorBundle) -> LadderPair:
    """Ladder pair with gamma_n = sqrt(alpha_n), requiring real alpha with
    0 = alpha_0 < alpha_1 < ..., each tested against DEFAULT_TOL: a guard,
    not a verdict, so the check tolerance never moves it.

    Only these preconditions raise.  Under them BA = H^alpha on the whole
    truncated space (B drops only gamma_N, which A never feeds); the reports
    check that product, this function does not form it.
    """
    a = bundle.weights
    if not bundle.is_real:
        k = int(np.argmax(np.abs(a.imag)))
        raise ValueError(f"alpha_{k} = {a[k]:.6g} is not real")
    vals = a.real
    if abs(vals[0]) > DEFAULT_TOL:
        raise ValueError(f"alpha_0 = {vals[0]:.6g} must be zero")
    for k in range(1, len(vals)):
        if vals[k] - vals[k - 1] <= DEFAULT_TOL:
            raise ValueError(
                f"alpha must increase strictly from zero: violated at index {k} "
                f"(alpha_{k} = {vals[k]:.6g} <= alpha_{k - 1} = {vals[k - 1]:.6g})"
            )
    roots = np.sqrt(np.clip(vals, 0.0, None))
    roots[0] = 0.0  # alpha_0 is zero within DEFAULT_TOL; pin the convention exactly
    return build_ladder(bundle.pair, roots.astype(complex))
