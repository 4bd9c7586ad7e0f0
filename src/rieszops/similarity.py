"""Similarity transform to self-adjoint form and the metric inner product.

h = S_psi^{1/2} H S_phi^{1/2} shares the eigenvalue list with H; for real
weights it is self-adjoint, and the transported vectors Phi_n =
S_psi^{1/2} phi_n form an orthonormal eigenbasis of h.
"""

from __future__ import annotations

import numpy as np

from .factory import OperatorBundle
from .linalg import adjoint, frobenius, max_entry
from .report import Check


def check_selfadjoint_h(bundle: OperatorBundle) -> Check:
    """Self-adjointness of h for real weights, and for any weights the
    adjoint relation h_{phi,psi}* = h_{psi,phi} built with conjugated weights."""
    conj_bundle_h = bundle.S_phi_sqrt @ bundle.H_conj_psi_phi @ bundle.S_psi_sqrt
    note = np.where(
        bundle.is_real,
        "||h - h*|| ({:.3e}); h* = h'(conj alpha) ({:.3e})",
        "h* = h'(conj alpha) ({1:.3e}); self-adjointness skipped: complex alpha",
    )
    return Check.worst(
        "selfadjoint_h",
        note,
        # h = h* is asserted only where alpha is real
        np.where(bundle.is_real, frobenius(bundle.h - adjoint(bundle.h)), 0.0),
        frobenius(adjoint(bundle.h) - conj_bundle_h),
    )


def check_transported_eigenbasis(bundle: OperatorBundle) -> Check:
    """h Phi_n = alpha_n Phi_n and <Phi_n, Phi_m> = delta_nm."""
    return Check.worst(
        "transported_eigenbasis",
        "eigen-action {:.3e}; orthonormality {:.3e}",
        max_entry(bundle.h @ bundle.Phi - bundle.Phi * bundle.weights[..., None, :]),
        max_entry(adjoint(bundle.Phi) @ bundle.Phi - np.eye(bundle.pair.dim)),
    )


def check_similarity_consistency(bundle: OperatorBundle) -> Check:
    """Intertwining by the square root: S_phi^{1/2} h = H S_phi^{1/2}."""
    residual = frobenius(bundle.S_phi_sqrt @ bundle.h - bundle.H_phi_psi @ bundle.S_phi_sqrt)
    return Check("similarity_consistency", residual, "S_phi^{1/2} h = H_{phi,psi} S_phi^{1/2}")


def onb_in_HS(bundle: OperatorBundle) -> Check:
    """phi_n is orthonormal in the S-inner-product: <S_psi phi_n, phi_m> = delta."""
    gram = adjoint(bundle.pair.phi) @ bundle.S_psi @ bundle.pair.phi
    return Check(
        "onb_in_HS",
        max_entry(gram - np.eye(bundle.pair.dim)),
        "max |<phi_n, phi_m>_S - delta_nm|",
    )
