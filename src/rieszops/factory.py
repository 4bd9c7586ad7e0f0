"""Weighted operators H and S built from a basis pair, and their identities.

Every operator is a rank-one sum sum_n c_n (v_n outer conj(w_n)) over paired
columns, formed by rank_one_sum as one matrix product (V diag(c)) W*: H
pairs phi with psi, S a family with itself, the metric roots U with itself.
The checks downstream must exercise the defining formulas, so no
diagonalization shortcut (such as T diag(w) T^{-1}) is used.  Weights are
(..., m) arrays, one row per point of the pair's batch, and every check
returns a residual per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import RieszBasisPair
from .linalg import adjoint, frobenius, max_entry, operator_norm, require_finite
from .report import Check


def rank_one_sum(weights: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_n weights[..., n] (left_n outer conj(right_n)) over the columns of
    the (..., dim, m) stacks left and right, weights a (..., m) array; any
    other weight shape would broadcast.  An overflowing product is the
    LinalgError of require_finite, not a floating-point warning."""
    expected = left.shape[:-2] + left.shape[-1:]
    if np.shape(weights) != expected:
        raise ValueError(f"weights have shape {np.shape(weights)}, expected {expected}")
    with np.errstate(over="ignore", invalid="ignore"):
        acc = (left * weights[..., None, :]) @ right.conj().mT
    require_finite(acc)
    return acc


@dataclass(frozen=True)
class OperatorBundle:
    """Every operator attached to a batch of (basis pair, alpha) points, each
    built once: the checks read these fields and build none of their own."""

    pair: RieszBasisPair
    #: alpha_0 .. alpha_{dim-1} of each point
    weights: np.ndarray
    #: per point, no weight has an imaginary part: h is self-adjoint, the
    #: quasi-Hermitian symmetry holds, and the conj(alpha) operators are the
    #: alpha ones
    is_real: np.ndarray
    H_phi_psi: np.ndarray
    H_psi_phi: np.ndarray
    S_phi: np.ndarray
    S_psi: np.ndarray
    S_phi_sqrt: np.ndarray
    S_psi_sqrt: np.ndarray
    h: np.ndarray
    #: Phi_n = S_psi^{1/2} phi_n as columns, the eigenvectors of h
    Phi: np.ndarray
    #: S^alpha on both sides
    S_alpha_phi: np.ndarray
    S_alpha_psi: np.ndarray
    #: the conj(alpha) operators the adjoint identities compare against;
    #: the alpha operators themselves when every point is_real
    H_conj_psi_phi: np.ndarray
    S_conj_phi: np.ndarray
    S_conj_psi: np.ndarray


def build_bundle(pair: RieszBasisPair, weights: np.ndarray) -> OperatorBundle:
    """Materialize, from the (..., dim) array alpha_0 .. alpha_{dim-1}, H
    (both directions), the metric operators and their principal square
    roots, h = S_psi^{1/2} H S_phi^{1/2} and Phi, S^alpha on both sides, and
    the conj(alpha) operators H_{psi,phi} and S on both sides.

    Realness is decided here, once per point, from the weights themselves:
    at small dim a truncated complex sequence can be real.

    S_phi = T T* is the pair's, and so is the SVD T = U diag(s) V*, which
    gives S_phi^{1/2} = U diag(s) U* and S_psi^{1/2} = U diag(1/s) U*.
    """
    phi, psi, u, s = pair.phi, pair.psi, pair.singular_vectors, pair.singular_values
    is_real = ~weights.imag.any(axis=-1)
    # U diag(s^{+-1}) U*, symmetrized: Hermitian to the last bit
    roots = [rank_one_sum(values, u, u) for values in (s, 1.0 / s)]
    s_phi_sqrt, s_psi_sqrt = (0.5 * (root + adjoint(root)) for root in roots)
    h_phi_psi = rank_one_sum(weights, phi, psi)
    h_psi_phi = rank_one_sum(weights, psi, phi)
    s_alpha_phi = rank_one_sum(weights, phi, phi)
    s_alpha_psi = rank_one_sum(weights, psi, psi)
    # real weights are their own conjugates: reuse the alpha operators
    h_conj, s_conj_phi, s_conj_psi = h_psi_phi, s_alpha_phi, s_alpha_psi
    if not is_real.all():
        conj = weights.conj()
        h_conj = rank_one_sum(conj, psi, phi)
        s_conj_phi = rank_one_sum(conj, phi, phi)
        s_conj_psi = rank_one_sum(conj, psi, psi)
    return OperatorBundle(
        pair=pair,
        weights=weights,
        is_real=is_real,
        H_phi_psi=h_phi_psi,
        H_psi_phi=h_psi_phi,
        S_phi=pair.metric,
        S_psi=rank_one_sum(np.ones(psi.shape[:-1], dtype=complex), psi, psi),
        S_phi_sqrt=s_phi_sqrt,
        S_psi_sqrt=s_psi_sqrt,
        h=s_psi_sqrt @ h_phi_psi @ s_phi_sqrt,
        Phi=s_psi_sqrt @ phi,
        S_alpha_phi=s_alpha_phi,
        S_alpha_psi=s_alpha_psi,
        H_conj_psi_phi=h_conj,
        S_conj_phi=s_conj_phi,
        S_conj_psi=s_conj_psi,
    )


def check_eigen_action(bundle: OperatorBundle) -> Check:
    """H_{phi,psi} phi_k = alpha_k phi_k and H_{psi,phi} psi_k = alpha_k psi_k."""
    pair, weights = bundle.pair, bundle.weights[..., None, :]
    r_phi = max_entry(bundle.H_phi_psi @ pair.phi - pair.phi * weights)
    r_psi = max_entry(bundle.H_psi_phi @ pair.psi - pair.psi * weights)
    return Check(
        "eigen_action", np.maximum(r_phi, r_psi), "H phi_k = alpha_k phi_k, both directions"
    )


def check_adjoint_pair(bundle: OperatorBundle) -> Check:
    """(H^alpha_{phi,psi})* = H^conj(alpha)_{psi,phi}, and the weighted-S
    analogue (S^beta)* = S^conj(beta) on both sides, with beta = alpha."""
    return Check.worst(
        "adjoint_pair",
        "H* vs conj weights {:.3e}; S_phi {:.3e}; S_psi {:.3e}",
        frobenius(adjoint(bundle.H_phi_psi) - bundle.H_conj_psi_phi),
        frobenius(adjoint(bundle.S_alpha_phi) - bundle.S_conj_phi),
        frobenius(adjoint(bundle.S_alpha_psi) - bundle.S_conj_psi),
    )


def check_weighted_action(bundle: OperatorBundle) -> Check:
    """S^beta_phi psi_k = beta_k phi_k and S^beta_psi phi_k = beta_k psi_k,
    with beta = alpha.

    The second identity is the corrected reading of the weighted-action pair:
    the psi-side operator maps phi_k to beta_k psi_k.
    """
    pair, weights = bundle.pair, bundle.weights[..., None, :]
    return Check.worst(
        "weighted_action",
        "S^b_phi psi_k = b_k phi_k ({:.3e}); S^b_psi phi_k = b_k psi_k ({:.3e})",
        max_entry(bundle.S_alpha_phi @ pair.psi - pair.phi * weights),
        max_entry(bundle.S_alpha_psi @ pair.phi - pair.psi * weights),
    )


def check_metric_pair(bundle: OperatorBundle) -> Check:
    """S_phi S_psi = I and the square-root consistency S_phi_sqrt^2 = S_phi,
    S_psi_sqrt = S_phi_sqrt^{-1} (so S_psi_sqrt^2 = S_psi)."""
    eye = np.eye(bundle.pair.dim)
    roots = np.stack(
        [
            bundle.S_phi_sqrt @ bundle.S_phi_sqrt - bundle.S_phi,
            bundle.S_psi_sqrt @ bundle.S_phi_sqrt - eye,
            bundle.S_psi_sqrt @ bundle.S_psi_sqrt - bundle.S_psi,
        ]
    )
    return Check.worst(
        "metric_pair",
        "S_phi S_psi = I ({:.3e}); sqrt consistency ({:.3e})",
        frobenius(bundle.S_phi @ bundle.S_psi - eye),
        frobenius(roots).max(axis=0),  # NaN stays NaN
    )


def check_intertwining(bundle: OperatorBundle) -> Check:
    """The four intertwining residuals linking H, S, and the weighted S:

        S_psi H_{phi,psi} = H_{psi,phi} S_psi = S^alpha_psi
        S_phi H_{psi,phi} = H_{phi,psi} S_phi = S^alpha_phi
    """
    lhs_psi = bundle.S_psi @ bundle.H_phi_psi
    lhs_phi = bundle.S_phi @ bundle.H_psi_phi
    return Check.worst(
        "intertwining",
        "residuals: S_psi H - H' S_psi {:.3e}; S_psi H - S^a_psi {:.3e}; "
        "S_phi H' - H S_phi {:.3e}; S_phi H' - S^a_phi {:.3e}",
        frobenius(lhs_psi - bundle.H_psi_phi @ bundle.S_psi),
        frobenius(lhs_psi - bundle.S_alpha_psi),
        frobenius(lhs_phi - bundle.H_phi_psi @ bundle.S_phi),
        frobenius(lhs_phi - bundle.S_alpha_phi),
    )


def quasi_hermitian_symmetry(bundle: OperatorBundle, f: np.ndarray, g: np.ndarray) -> Check:
    """Symmetry of H in the S-inner-product: <S_psi H f, g> = <S_psi f, H g>.

    f and g are column blocks of paired vectors, (dim, k) or (1, dim, k)
    shared by every point, or (points, dim, k) one per point; the residual
    is that of the worst pair (f_j, g_j).  Only asserted for real alpha;
    complex weights are rejected.
    """
    if not bundle.is_real.all():
        raise ValueError("quasi-Hermitian symmetry is only asserted for real alpha")
    if f.ndim not in (2, 3) or f.shape != g.shape:
        raise ValueError(f"unpaired (dim, k) blocks: f {f.shape}, g {g.shape}")
    scale = np.maximum(np.linalg.norm(f, axis=-2) * np.linalg.norm(g, axis=-2), 1e-300)
    # stacked (dim, 1) vectors: matrix-vector products round like one pair at
    # a time; block products measured twice as noisy on this cancellation
    f, g = f.mT[..., None], g.mT[..., None]
    h, s_psi = bundle.H_phi_psi[..., None, :, :], bundle.S_psi[..., None, :, :]
    lhs = (adjoint(g) @ (s_psi @ (h @ f)))[..., 0, 0]
    rhs = (adjoint(h @ g) @ (s_psi @ f))[..., 0, 0]
    return Check(
        "quasi_hermitian_symmetry",
        (np.abs(lhs - rhs) / scale).max(axis=-1),
        f"worst over {f.shape[-3]} random (f, g) pairs",
    )


def check_norm_bound(bundle: OperatorBundle) -> Check:
    """Truncation proxy for boundedness: ||H|| <= (gamma_2/gamma_1) max|alpha_n|."""
    pair = bundle.pair
    bound = pair.frame_upper / pair.frame_lower * np.abs(bundle.weights).max(axis=-1)
    norm = operator_norm(bundle.H_phi_psi)
    return Check(
        "norm_bound",
        np.maximum(norm - bound, 0.0),
        "||H|| = {:.6e} vs (g2/g1) max|alpha| = {:.6e}",
        (norm, bound),
    )
