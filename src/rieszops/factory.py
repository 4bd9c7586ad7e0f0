"""Weighted operators H and S built from a basis pair, and their identities.

Every operator is a rank-one sum sum_n c_n (v_n outer conj(w_n)) over paired
columns, the one matrix product (V diag(c)) W* of weighted_product: H pairs
phi with psi, S a family with itself, the metric roots U with itself.  A
builder forms each V diag(c) once, takes psi* from the pair (formed once per
pair), forms any other W* once and holds one errstate for all its products;
rank_one_sum is the same product from the weights and both families, for
other callers.  So the paper's adjoint pairings, (H^alpha_{phi,psi})* =
H^conj(alpha)_{psi,phi} and (S^beta)* = S^conj(beta), are one algebraic
fact about rank_one_sum, pinned by its unit tests; no check rebuilds an
operator to compare it with an adjoint.  The checks downstream must
exercise the defining formulas, so no diagonalization shortcut (such as
T diag(w) T^{-1}) is used.  Weights are (..., m) arrays, one row per point
of the pair's batch, and every check returns a residual per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import RieszBasisPair
from .linalg import adjoint, frobenius, identity, max_entry, operator_norm, require_finite
from .report import Check


def require_weights(weights: np.ndarray, columns: np.ndarray) -> None:
    """weights must be a (..., m) array for the (..., dim, m) column stack
    columns: any other shape would broadcast."""
    expected = columns.shape[:-2] + columns.shape[-1:]
    if np.shape(weights) != expected:
        raise ValueError(f"weights have shape {np.shape(weights)}, expected {expected}")


def weighted_product(weighted: np.ndarray, right_adj: np.ndarray) -> np.ndarray:
    """sum_n weighted_n outer conj(right_n), from the weighted columns
    left_n w_n and right* (rows conj(right_n)), each formed once by the
    caller: the one product behind every operator.  A non-finite result is
    the LinalgError of require_finite; the caller holds numpy's overflow and
    invalid-value warnings off."""
    acc = weighted @ right_adj
    require_finite(acc)
    return acc


def rank_one_sum(weights: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_n weights[..., n] (left_n outer conj(right_n)) over the columns of
    the (..., dim, m) stacks left and right, weights a (..., m) array; any
    other weight shape would broadcast.  Its adjoint is
    rank_one_sum(conj(weights), right, left).  An overflowing product is the
    LinalgError of require_finite, not a floating-point warning."""
    require_weights(weights, left)
    with np.errstate(over="ignore", invalid="ignore"):
        return weighted_product(left * weights[..., None, :], adjoint(right))


@dataclass(frozen=True)
class OperatorBundle:
    """Every operator attached to a batch of (basis pair, alpha) points, each
    built once: the checks read these fields and build none of their own."""

    pair: RieszBasisPair
    #: alpha_0 .. alpha_{dim-1} of each point
    weights: np.ndarray
    #: per point, no weight has an imaginary part: h is self-adjoint, so
    #: realness decides whether selfadjoint_h runs
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


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2: Hermitian to the last bit."""
    return 0.5 * (m + adjoint(m))


@np.errstate(over="ignore", invalid="ignore")
def build_bundle(pair: RieszBasisPair, weights: np.ndarray) -> OperatorBundle:
    """Materialize, from the (..., dim) array alpha_0 .. alpha_{dim-1}, H
    (both directions), the metric operators and their principal square
    roots, h = S_psi^{1/2} H S_phi^{1/2} and Phi, and S^alpha on both sides.

    Realness is decided here, once per point, from the weights themselves:
    at small dim a truncated complex sequence can be real.

    S_phi = T T* is the pair's, and so is the SVD T = U diag(s) V*, which
    gives S_phi^{1/2} = U diag(s) U* and S_psi^{1/2} = U diag(1/s) U*.
    phi diag(alpha) and psi diag(alpha), phi* and U* are formed once each,
    for two products each, and one errstate covers every product; none of
    them is kept.
    """
    require_weights(weights, pair.phi)
    phi, psi, psi_adj = pair.phi, pair.psi, pair.psi_adj
    u, s = pair.singular_vectors, pair.singular_values
    u_adj = adjoint(u)
    is_real = ~weights.imag.any(axis=-1)
    # U diag(s^{+-1}) U*, symmetrized, one unsymmetrized root alive at a time
    s_phi_sqrt, s_psi_sqrt = (
        _hermitian_part(weighted_product(u * values[..., None, :], u_adj))
        for values in (s, 1.0 / s)
    )
    phi_alpha, psi_alpha = phi * weights[..., None, :], psi * weights[..., None, :]
    phi_adj = adjoint(phi)
    h_psi_phi = weighted_product(psi_alpha, phi_adj)
    s_alpha_phi = weighted_product(phi_alpha, phi_adj)
    del u_adj, phi_adj  # each read by its two products only
    h_phi_psi = weighted_product(phi_alpha, psi_adj)
    return OperatorBundle(
        pair=pair,
        weights=weights,
        is_real=is_real,
        H_phi_psi=h_phi_psi,
        H_psi_phi=h_psi_phi,
        S_phi=pair.metric,
        S_psi=weighted_product(psi, psi_adj),
        S_phi_sqrt=s_phi_sqrt,
        S_psi_sqrt=s_psi_sqrt,
        h=s_psi_sqrt @ h_phi_psi @ s_phi_sqrt,
        Phi=s_psi_sqrt @ phi,
        S_alpha_phi=s_alpha_phi,
        S_alpha_psi=weighted_product(psi_alpha, psi_adj),
    )


def _action_residual(
    operator: np.ndarray, vectors: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Largest entry modulus of operator v_k - weights_k t_k over the columns
    v_k of vectors and t_k of targets, the difference formed in place."""
    residual = operator @ vectors
    residual -= targets * weights[..., None, :]
    return max_entry(residual)


def check_eigen_action(bundle: OperatorBundle) -> Check:
    """H_{phi,psi} phi_k = alpha_k phi_k and H_{psi,phi} psi_k = alpha_k psi_k."""
    pair, alpha = bundle.pair, bundle.weights
    r_phi = _action_residual(bundle.H_phi_psi, pair.phi, pair.phi, alpha)
    r_psi = _action_residual(bundle.H_psi_phi, pair.psi, pair.psi, alpha)
    return Check(
        "eigen_action", np.maximum(r_phi, r_psi), "H phi_k = alpha_k phi_k, both directions"
    )


def check_weighted_action(bundle: OperatorBundle) -> Check:
    """S^beta_phi psi_k = beta_k phi_k and S^beta_psi phi_k = beta_k psi_k,
    with beta = alpha.

    The second identity is the corrected reading of the weighted-action pair:
    the psi-side operator maps phi_k to beta_k psi_k.
    """
    pair, beta = bundle.pair, bundle.weights
    return Check.worst(
        "weighted_action",
        "S^b_phi psi_k = b_k phi_k ({:.3e}); S^b_psi phi_k = b_k psi_k ({:.3e})",
        _action_residual(bundle.S_alpha_phi, pair.psi, pair.phi, beta),
        _action_residual(bundle.S_alpha_psi, pair.phi, pair.psi, beta),
    )


def check_metric_pair(bundle: OperatorBundle) -> Check:
    """S_phi S_psi = I and the square-root consistency S_phi_sqrt^2 = S_phi,
    S_psi_sqrt = S_phi_sqrt^{-1} (so S_psi_sqrt^2 = S_psi)."""
    eye = identity(bundle.pair.dim)
    roots = [
        frobenius(bundle.S_phi_sqrt @ bundle.S_phi_sqrt - bundle.S_phi),
        frobenius(bundle.S_psi_sqrt @ bundle.S_phi_sqrt - eye),
        frobenius(bundle.S_psi_sqrt @ bundle.S_psi_sqrt - bundle.S_psi),
    ]
    return Check.worst(
        "metric_pair",
        "S_phi S_psi = I ({:.3e}); sqrt consistency ({:.3e})",
        frobenius(bundle.S_phi @ bundle.S_psi - eye),
        np.max(roots, axis=0),  # NaN stays NaN
    )


def check_intertwining(bundle: OperatorBundle) -> Check:
    """The four intertwining residuals linking H, S, and the weighted S:

        S_psi H_{phi,psi} = H_{psi,phi} S_psi = S^alpha_psi
        S_phi H_{psi,phi} = H_{phi,psi} S_phi = S^alpha_phi
    """
    b, residuals = bundle, []
    for s, h, h_other, s_alpha in (
        (b.S_psi, b.H_phi_psi, b.H_psi_phi, b.S_alpha_psi),
        (b.S_phi, b.H_psi_phi, b.H_phi_psi, b.S_alpha_phi),
    ):
        lhs = s @ h  # one side at a time
        residuals += [frobenius(lhs - h_other @ s), frobenius(lhs - s_alpha)]
    return Check.worst(
        "intertwining",
        "residuals: S_psi H - H' S_psi {:.3e}; S_psi H - S^a_psi {:.3e}; "
        "S_phi H' - H S_phi {:.3e}; S_phi H' - S^a_phi {:.3e}",
        *residuals,
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
