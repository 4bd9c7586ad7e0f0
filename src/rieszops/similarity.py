"""Similarity transform to self-adjoint form and the metric inner product.

h = S_psi^{1/2} H S_phi^{1/2} shares the eigenvalue list with H; for real
weights it is self-adjoint, and the transported vectors Phi_n =
S_psi^{1/2} phi_n form an orthonormal eigenbasis of h.
"""

from __future__ import annotations

import numpy as np

from .factory import OperatorBundle
from .linalg import DEFAULT_TOL, adjoint, frobenius
from .report import CheckResult


def check_selfadjoint_h(bundle: OperatorBundle, tol: float = DEFAULT_TOL) -> CheckResult:
    """Self-adjointness of h for real weights, and for any weights the
    adjoint relation h_{phi,psi}* = h_{psi,phi} built with conjugated weights."""
    conj_bundle_h = bundle.S_phi_sqrt @ bundle.H_conj_psi_phi @ bundle.S_psi_sqrt
    r_adjoint = frobenius(adjoint(bundle.h) - conj_bundle_h)
    notes = [f"h* = h'(conj alpha) ({r_adjoint:.3e})"]
    residual = r_adjoint
    if bundle.is_real:
        r_self = frobenius(bundle.h - adjoint(bundle.h))
        residual = max(residual, r_self)
        notes.insert(0, f"||h - h*|| ({r_self:.3e})")
    else:
        notes.append("self-adjointness skipped: complex alpha")
    return CheckResult.from_residual(
        "selfadjoint_h", residual, tol, note="; ".join(notes)
    )


def transported_eigenbasis(bundle: OperatorBundle) -> np.ndarray:
    """Columns Phi_n = S_psi^{1/2} phi_n (the eigenvectors of h)."""
    return bundle.S_psi_sqrt @ bundle.pair.phi


def check_transported_eigenbasis(
    bundle: OperatorBundle, tol: float = DEFAULT_TOL
) -> CheckResult:
    """h Phi_n = alpha_n Phi_n and <Phi_n, Phi_m> = delta_nm."""
    phi_t = transported_eigenbasis(bundle)
    r_action = float(np.abs(bundle.h @ phi_t - phi_t * bundle.weights).max())
    gram = adjoint(phi_t) @ phi_t
    r_onb = float(np.abs(gram - np.eye(bundle.pair.dim)).max())
    return CheckResult.from_residual(
        "transported_eigenbasis",
        max(r_action, r_onb),
        tol,
        note=f"eigen-action {r_action:.3e}; orthonormality {r_onb:.3e}",
    )


def check_similarity_consistency(
    bundle: OperatorBundle, tol: float = DEFAULT_TOL
) -> CheckResult:
    """Intertwining by the square root: S_phi^{1/2} h = H S_phi^{1/2}."""
    residual = frobenius(
        bundle.S_phi_sqrt @ bundle.h - bundle.H_phi_psi @ bundle.S_phi_sqrt
    )
    return CheckResult.from_residual(
        "similarity_consistency",
        residual,
        tol,
        note="S_phi^{1/2} h = H_{phi,psi} S_phi^{1/2}",
    )


def onb_in_HS(bundle: OperatorBundle, tol: float = DEFAULT_TOL) -> CheckResult:
    """phi_n is orthonormal in the S-inner-product: <S_psi phi_n, phi_m> = delta."""
    gram = adjoint(bundle.pair.phi) @ bundle.S_psi @ bundle.pair.phi
    residual = float(np.abs(gram - np.eye(bundle.pair.dim)).max())
    return CheckResult.from_residual(
        "onb_in_HS", residual, tol, note="max |<phi_n, phi_m>_S - delta_nm|"
    )
