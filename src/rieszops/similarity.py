"""Similarity transform to self-adjoint form.

h = S_psi^{1/2} H S_phi^{1/2} shares the eigenvalue list with H; for real
weights it is self-adjoint, and the transported vectors Phi_n =
S_psi^{1/2} phi_n form an orthonormal eigenbasis of h.  That phi_n is
orthonormal in the metric inner product <S_psi f, g> needs no check of its
own: phi* S_psi phi - I = G* G - I with G = psi* phi, which the
biorthogonality check reads, and it is Phi* Phi - I once the roots square
to S_psi.
"""

from __future__ import annotations

from .factory import OperatorBundle
from .linalg import adjoint, frobenius, identity, max_entry
from .report import Check


def check_selfadjoint_h(bundle: OperatorBundle) -> Check:
    """Self-adjointness of h, asserted for real weights only."""
    residual = frobenius(bundle.h - adjoint(bundle.h))
    return Check("selfadjoint_h", residual, "||h - h*||_F")


def check_transported_eigenbasis(bundle: OperatorBundle) -> Check:
    """h Phi_n = alpha_n Phi_n and <Phi_n, Phi_m> = delta_nm."""
    return Check.worst(
        "transported_eigenbasis",
        "eigen-action {:.3e}; orthonormality {:.3e}",
        max_entry(bundle.h @ bundle.Phi - bundle.Phi * bundle.weights[..., None, :]),
        max_entry(adjoint(bundle.Phi) @ bundle.Phi - identity(bundle.pair.dim)),
    )


def check_similarity_consistency(bundle: OperatorBundle) -> Check:
    """Intertwining by the square root: S_phi^{1/2} h = H S_phi^{1/2}."""
    residual = frobenius(bundle.S_phi_sqrt @ bundle.h - bundle.H_phi_psi @ bundle.S_phi_sqrt)
    return Check("similarity_consistency", residual, "S_phi^{1/2} h = H_{phi,psi} S_phi^{1/2}")

