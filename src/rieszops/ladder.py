"""Generalized lowering and raising operators and the factorization H = BA.

At truncation level N the raising operator drops its gamma_N term, so B
annihilates phi_{N-1} and the product identities for AB hold only on the
interior index range 0..N-2.  BA = H with weights gamma_n^2 additionally
needs gamma_0 = 0 (BA phi_0 is always zero); a nonzero gamma_0 is recorded
as a warning and the k = 0 comparison is skipped rather than failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import RieszBasisPair
from .factory import OperatorBundle, _rank_one_sum, build_H
from .linalg import DEFAULT_TOL, frobenius, worst_column_norm
from .report import CheckResult
from .sequences import SequenceSpec, explicit


@dataclass(frozen=True)
class LadderPair:
    pair: RieszBasisPair
    gamma: SequenceSpec
    A_phi_psi: np.ndarray
    B_phi_psi: np.ndarray
    A_psi_phi: np.ndarray
    B_psi_phi: np.ndarray
    #: index range on which the product identities are exact at truncation
    interior: range
    #: set when gamma_0 != 0, in which case BA cannot reproduce the k = 0 term
    gamma0_warning: str = ""


def _shift_sum(weights, left, right, lower_shift: bool) -> np.ndarray:
    """Lowering: sum_{n>=1} w_n (left_{n-1} outer conj(right_n));
    raising: sum_{n<=N-2} w_{n+1} (left_{n+1} outer conj(right_n))."""
    if lower_shift:
        return _rank_one_sum(weights[1:], left[:, :-1], right[:, 1:])
    return _rank_one_sum(weights[1:], left[:, 1:], right[:, :-1])


def build_ladder(pair: RieszBasisPair, gamma: SequenceSpec) -> LadderPair:
    """All four ladder variants from one weight sequence."""
    g = gamma.terms(pair.dim)
    warning = ""
    if abs(g[0]) > 0.0:
        warning = (
            f"gamma_0 = {g[0]:.6g} != 0: BA cannot reproduce the k=0 term; "
            "product checks skip index 0"
        )
    return LadderPair(
        pair=pair,
        gamma=gamma,
        A_phi_psi=_shift_sum(g, pair.phi, pair.psi, True),
        B_phi_psi=_shift_sum(g, pair.phi, pair.psi, False),
        A_psi_phi=_shift_sum(g, pair.psi, pair.phi, True),
        B_psi_phi=_shift_sum(g, pair.psi, pair.phi, False),
        interior=range(pair.dim - 1),
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
    pair = lp.pair
    worst = shift_action_residual(
        lp.A_phi_psi, lp.B_phi_psi, pair.phi, lp.gamma.terms(pair.dim)
    )
    return CheckResult.from_residual(
        "ladder_actions", worst, tol, note="A and B shift actions on phi_n"
    )


def check_ladder_adjoints(lp: LadderPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """(A_{phi,psi})* = B_{psi,phi} and (A_{psi,phi})* = B_{phi,psi}, both
    built with conjugated weights."""
    conj = build_ladder(lp.pair, lp.gamma.conjugate())
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


def _interior_projector(pair: RieszBasisPair, skip_zero: bool) -> np.ndarray:
    """sum_k phi_k outer conj(psi_k) over k = 0..N-2 (1..N-2 if skip_zero)."""
    interior = slice(1 if skip_zero else 0, pair.dim - 1)
    return pair.phi[:, interior] @ pair.psi[:, interior].conj().T


def check_products(lp: LadderPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Product identities on the interior range: (BA) phi_k = gamma_k^2 phi_k
    and (AB) phi_k = gamma_{k+1}^2 phi_k.

    For |.|-monotone gamma the matrix-level identities BA = H^{gamma_n^2} and
    AB = H^{gamma_{n+1}^2} are additionally asserted, restricted to the
    interior through the oblique projector sum phi_k psi_k*.
    """
    pair = lp.pair
    g = lp.gamma.terms(pair.dim)
    ba = lp.B_phi_psi @ lp.A_phi_psi
    ab = lp.A_phi_psi @ lp.B_phi_psi
    skip_zero = bool(lp.gamma0_warning)
    ks = np.array(lp.interior, dtype=int)
    ks_ba = ks[ks != 0] if skip_zero else ks
    cols_ba, cols_ab = pair.phi[:, ks_ba], pair.phi[:, ks]
    r_ba = ba @ cols_ba - cols_ba * g[ks_ba] ** 2
    r_ab = ab @ cols_ab - cols_ab * g[ks + 1] ** 2
    worst = worst_column_norm(np.hstack([r_ba, r_ab]))
    notes = [f"action residuals on interior 0..{pair.dim - 2}: {worst:.3e}"]
    if lp.gamma.abs_monotone:
        proj = _interior_projector(pair, skip_zero)
        h_ba = build_H(pair, explicit(g**2), "phi_psi")
        shifted = np.concatenate([g[1:] ** 2, [0.0]])
        h_ab = build_H(pair, explicit(shifted), "phi_psi")
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

    Vectors with coefficient mass on psi_{N-1} beyond tol*||f|| are rejected:
    the identity is a truncation artifact outside the interior span.
    """
    if not lp.gamma.abs_monotone:
        raise ValueError("commutator identity requires |.|-monotone gamma")
    pair = lp.pair
    f = np.asarray(f, dtype=complex)
    g = lp.gamma.terms(pair.dim)
    coeff = pair.psi.conj().T @ f
    scale = max(float(np.linalg.norm(f)), 1e-300)
    edge_mass = abs(coeff[-1])
    if edge_mass > tol * scale:
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


def factorize_from_alpha(bundle: OperatorBundle, tol: float = DEFAULT_TOL) -> LadderPair:
    """Ladder pair with gamma_n = sqrt(alpha_n), requiring real alpha with
    0 = alpha_0 < alpha_1 < ... (strictness tested with tolerance tol).

    Verifies BA = H^alpha on the interior before returning.
    """
    pair = bundle.pair
    a = bundle.alpha.terms(pair.dim)
    if float(np.abs(a.imag).max()) > tol:
        k = int(np.argmax(np.abs(a.imag)))
        raise ValueError(f"alpha_{k} = {a[k]:.6g} is not real")
    vals = a.real
    if abs(vals[0]) > tol:
        raise ValueError(f"alpha_0 = {vals[0]:.6g} must be zero")
    for k in range(1, len(vals)):
        if vals[k] - vals[k - 1] <= tol:
            raise ValueError(
                f"alpha must increase strictly from zero: violated at index {k} "
                f"(alpha_{k} = {vals[k]:.6g} <= alpha_{k - 1} = {vals[k - 1]:.6g})"
            )
    roots = np.sqrt(np.clip(vals, 0.0, None))
    roots[0] = 0.0  # alpha_0 is zero within tol; pin the convention exactly
    gamma = explicit(roots)
    lp = build_ladder(pair, gamma)
    residual = frobenius(
        (lp.B_phi_psi @ lp.A_phi_psi - bundle.H_phi_psi)
        @ _interior_projector(pair, False)
    )
    if residual > tol:
        raise ValueError(
            f"factorization BA = H fails on the interior: residual {residual:.3e}"
        )
    return lp
