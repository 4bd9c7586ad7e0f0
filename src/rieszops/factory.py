"""Weighted operators H and S built from a basis pair, and their identities.

All operators are materialized as explicit sums of rank-one terms
sum_n w_n (v_n w_n*), evaluated from the basis columns as one matrix
product (V diag(w)) W*: the checks downstream must exercise the defining
formulas, so no diagonalization shortcut (such as T diag(w) T^{-1}) is used.
Every builder takes (dim,) weight arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import RieszBasisPair
from .linalg import (
    DEFAULT_TOL,
    adjoint,
    frobenius,
    operator_norm,
    require_finite,
)
from .report import CheckResult


def _rank_one_sum(weights: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_n weights[n] * (left_n outer conj(right_n)) over matrix columns."""
    acc = (left * weights) @ right.conj().T
    require_finite(acc)
    return acc


def _weight_array(pair: RieszBasisPair, values: np.ndarray) -> np.ndarray:
    """values as the (dim,) weight array; any other shape would broadcast."""
    if np.shape(values) != (pair.dim,):
        raise ValueError(
            f"weights have shape {np.shape(values)}, expected ({pair.dim},)"
        )
    return values


def build_H(
    pair: RieszBasisPair, alpha: np.ndarray, direction: str = "phi_psi"
) -> np.ndarray:
    """H^alpha = sum_n alpha_n (v_n outer conj(w_n)), alpha a (dim,) array,
    with (v, w) = (phi, psi) for direction 'phi_psi', (psi, phi) for 'psi_phi'."""
    if direction == "phi_psi":
        left, right = pair.phi, pair.psi
    elif direction == "psi_phi":
        left, right = pair.psi, pair.phi
    else:
        raise ValueError(f"unknown direction '{direction}'")
    return _rank_one_sum(_weight_array(pair, alpha), left, right)


def build_S_weighted(
    pair: RieszBasisPair, beta: np.ndarray, side: str = "phi"
) -> np.ndarray:
    """S^beta = sum_n beta_n (v_n outer conj(v_n)), beta a (dim,) array, v phi or psi."""
    if side not in ("phi", "psi"):
        raise ValueError(f"unknown basis family '{side}'")
    cols = pair.phi if side == "phi" else pair.psi
    return _rank_one_sum(_weight_array(pair, beta), cols, cols)


@dataclass(frozen=True)
class OperatorBundle:
    """Every operator attached to one (basis pair, alpha) instance, each
    built once: the checks read these fields and build none of their own."""

    pair: RieszBasisPair
    #: alpha_0 .. alpha_{dim-1}
    weights: np.ndarray
    #: no weight has an imaginary part: h is self-adjoint, the quasi-Hermitian
    #: symmetry holds, and the conj(alpha) operators are the alpha ones
    is_real: bool
    H_phi_psi: np.ndarray
    H_psi_phi: np.ndarray
    S_phi: np.ndarray
    S_psi: np.ndarray
    S_phi_sqrt: np.ndarray
    S_psi_sqrt: np.ndarray
    h: np.ndarray
    #: S^alpha on both sides
    S_alpha_phi: np.ndarray
    S_alpha_psi: np.ndarray
    #: the conj(alpha) operators the adjoint identities compare against;
    #: the alpha operators themselves when is_real
    H_conj_psi_phi: np.ndarray
    S_conj_phi: np.ndarray
    S_conj_psi: np.ndarray


def build_bundle(pair: RieszBasisPair, weights: np.ndarray) -> OperatorBundle:
    """Materialize, from the (dim,) array alpha_0 .. alpha_{dim-1}, H (both
    directions), the metric operators and their principal square roots,
    h = S_psi^{1/2} H S_phi^{1/2}, S^alpha on both sides, and the conj(alpha)
    operators H_{psi,phi} and S on both sides.

    Realness is decided here, once, from the weights themselves: at small
    dim a truncated complex sequence can be real.

    Both roots come from the pair's eigendecomposition S_phi = U diag(s^2) U*:
    S_phi^{1/2} = U diag(s) U* and S_psi^{1/2} = U diag(1/s) U*.
    """
    unit = np.ones(pair.dim, dtype=complex)
    weights = _weight_array(pair, weights)
    is_real = not weights.imag.any()
    s = np.sqrt(pair.metric_eigen.eigenvalues)
    s_phi_sqrt = pair.metric_eigen.with_eigenvalues(s)
    s_psi_sqrt = pair.metric_eigen.with_eigenvalues(1.0 / s)
    h_phi_psi = build_H(pair, weights, "phi_psi")
    h_psi_phi = build_H(pair, weights, "psi_phi")
    s_alpha_phi = build_S_weighted(pair, weights, "phi")
    s_alpha_psi = build_S_weighted(pair, weights, "psi")
    # real weights are their own conjugates: reuse the alpha operators
    h_conj, s_conj_phi, s_conj_psi = h_psi_phi, s_alpha_phi, s_alpha_psi
    if not is_real:
        conj = weights.conj()
        h_conj = build_H(pair, conj, "psi_phi")
        s_conj_phi = build_S_weighted(pair, conj, "phi")
        s_conj_psi = build_S_weighted(pair, conj, "psi")
    return OperatorBundle(
        pair=pair,
        weights=weights,
        is_real=is_real,
        H_phi_psi=h_phi_psi,
        H_psi_phi=h_psi_phi,
        S_phi=build_S_weighted(pair, unit, "phi"),
        S_psi=build_S_weighted(pair, unit, "psi"),
        S_phi_sqrt=s_phi_sqrt,
        S_psi_sqrt=s_psi_sqrt,
        h=s_psi_sqrt @ h_phi_psi @ s_phi_sqrt,
        S_alpha_phi=s_alpha_phi,
        S_alpha_psi=s_alpha_psi,
        H_conj_psi_phi=h_conj,
        S_conj_phi=s_conj_phi,
        S_conj_psi=s_conj_psi,
    )


def check_eigen_action(
    bundle: OperatorBundle, tol: float = DEFAULT_TOL
) -> CheckResult:
    """H_{phi,psi} phi_k = alpha_k phi_k and H_{psi,phi} psi_k = alpha_k psi_k."""
    pair, weights = bundle.pair, bundle.weights
    r_phi = np.abs(bundle.H_phi_psi @ pair.phi - pair.phi * weights).max()
    r_psi = np.abs(bundle.H_psi_phi @ pair.psi - pair.psi * weights).max()
    return CheckResult.from_residual(
        "eigen_action",
        max(r_phi, r_psi),
        tol,
        note="H phi_k = alpha_k phi_k, both directions",
    )


def check_adjoint_pair(bundle: OperatorBundle, tol: float = DEFAULT_TOL) -> CheckResult:
    """(H^alpha_{phi,psi})* = H^conj(alpha)_{psi,phi}, and the weighted-S
    analogue (S^beta)* = S^conj(beta) on both sides, with beta = alpha."""
    r_h = frobenius(adjoint(bundle.H_phi_psi) - bundle.H_conj_psi_phi)
    r_s_phi = frobenius(adjoint(bundle.S_alpha_phi) - bundle.S_conj_phi)
    r_s_psi = frobenius(adjoint(bundle.S_alpha_psi) - bundle.S_conj_psi)
    residual = max(r_h, r_s_phi, r_s_psi)
    return CheckResult.from_residual(
        "adjoint_pair",
        residual,
        tol,
        note=f"H* vs conj weights {r_h:.3e}; S_phi {r_s_phi:.3e}; S_psi {r_s_psi:.3e}",
    )


def check_weighted_action(
    bundle: OperatorBundle, tol: float = DEFAULT_TOL
) -> CheckResult:
    """S^beta_phi psi_k = beta_k phi_k and S^beta_psi phi_k = beta_k psi_k,
    with beta = alpha.

    The second identity is the corrected reading of the weighted-action pair:
    the psi-side operator maps phi_k to beta_k psi_k.
    """
    pair, weights = bundle.pair, bundle.weights
    r1 = float(np.abs(bundle.S_alpha_phi @ pair.psi - pair.phi * weights).max())
    r2 = float(np.abs(bundle.S_alpha_psi @ pair.phi - pair.psi * weights).max())
    return CheckResult.from_residual(
        "weighted_action",
        max(r1, r2),
        tol,
        note=f"S^b_phi psi_k = b_k phi_k ({r1:.3e}); S^b_psi phi_k = b_k psi_k ({r2:.3e})",
    )


def check_metric_pair(bundle: OperatorBundle, tol: float = DEFAULT_TOL) -> CheckResult:
    """S_phi S_psi = I and the square-root consistency S_phi_sqrt^2 = S_phi,
    S_psi_sqrt = S_phi_sqrt^{-1} (so S_psi_sqrt^2 = S_psi)."""
    eye = np.eye(bundle.pair.dim)
    r_inv = frobenius(bundle.S_phi @ bundle.S_psi - eye)
    r_sqrt = frobenius(bundle.S_phi_sqrt @ bundle.S_phi_sqrt - bundle.S_phi)
    r_sqrt_inv = frobenius(bundle.S_psi_sqrt @ bundle.S_phi_sqrt - eye)
    r_psi_sqrt = frobenius(bundle.S_psi_sqrt @ bundle.S_psi_sqrt - bundle.S_psi)
    r_roots = max(r_sqrt, r_sqrt_inv, r_psi_sqrt)
    return CheckResult.from_residual(
        "metric_pair",
        max(r_inv, r_roots),
        tol,
        note=f"S_phi S_psi = I ({r_inv:.3e}); sqrt consistency ({r_roots:.3e})",
    )


def check_intertwining(bundle: OperatorBundle, tol: float = DEFAULT_TOL) -> CheckResult:
    """The four intertwining residuals linking H, S, and the weighted S:

        S_psi H_{phi,psi} = H_{psi,phi} S_psi = S^alpha_psi
        S_phi H_{psi,phi} = H_{phi,psi} S_phi = S^alpha_phi
    """
    lhs_psi = bundle.S_psi @ bundle.H_phi_psi
    lhs_phi = bundle.S_phi @ bundle.H_psi_phi
    residuals = (
        frobenius(lhs_psi - bundle.H_psi_phi @ bundle.S_psi),
        frobenius(lhs_psi - bundle.S_alpha_psi),
        frobenius(lhs_phi - bundle.H_phi_psi @ bundle.S_phi),
        frobenius(lhs_phi - bundle.S_alpha_phi),
    )
    return CheckResult.from_residual(
        "intertwining",
        max(residuals),
        tol,
        note=(
            "residuals: S_psi H - H' S_psi %.3e; S_psi H - S^a_psi %.3e; "
            "S_phi H' - H S_phi %.3e; S_phi H' - S^a_phi %.3e" % residuals
        ),
    )


def _stacked_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x_j, y_j> for stacked vectors x, y of shape (k, dim, 1)."""
    return (y.conj().transpose(0, 2, 1) @ x)[:, 0, 0]


def quasi_hermitian_symmetry(
    bundle: OperatorBundle,
    f: np.ndarray,
    g: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    """Symmetry of H in the S-inner-product: <S_psi H f, g> = <S_psi f, H g>.

    f and g are column blocks (dim, k) of paired vectors; the residual is
    that of the worst pair (f_j, g_j).  Only asserted for real alpha;
    complex weights are rejected.
    """
    if not bundle.is_real:
        raise ValueError("quasi-Hermitian symmetry is only asserted for real alpha")
    if f.ndim != 2 or f.shape != g.shape:
        raise ValueError(f"unpaired (dim, k) blocks: f {f.shape}, g {g.shape}")
    scale = np.maximum(np.linalg.norm(f, axis=0) * np.linalg.norm(g, axis=0), 1e-300)
    # stacked (dim, 1) vectors: matrix-vector products round like one pair at
    # a time; block products measured twice as noisy on this cancellation
    f, g = f.T[:, :, None], g.T[:, :, None]
    h = bundle.H_phi_psi
    lhs = _stacked_inner(bundle.S_psi @ (h @ f), g)
    rhs = _stacked_inner(bundle.S_psi @ f, h @ g)
    residual = float((np.abs(lhs - rhs) / scale).max())
    return CheckResult.from_residual(
        "quasi_hermitian_symmetry",
        residual,
        tol,
        note="|<S_psi H f, g> - <S_psi f, H g>| / (||f|| ||g||)",
    )


def check_norm_bound(bundle: OperatorBundle, tol: float = DEFAULT_TOL) -> CheckResult:
    """Truncation proxy for boundedness: ||H|| <= (gamma_2/gamma_1) max|alpha_n|."""
    pair = bundle.pair
    bound = pair.frame_upper / pair.frame_lower * float(np.abs(bundle.weights).max())
    norm = operator_norm(bundle.H_phi_psi)
    excess = max(norm - bound, 0.0)
    return CheckResult.from_residual(
        "norm_bound",
        excess,
        tol,
        note=f"||H|| = {norm:.6e} vs (g2/g1) max|alpha| = {bound:.6e}",
    )
