"""Weighted operators H and S built from a basis pair, and their identities.

All operators are materialized as explicit sums of rank-one terms
sum_n w_n (v_n w_n*), evaluated from the basis columns as one matrix
product (V diag(w)) W*: the checks downstream must exercise the defining
formulas, so no diagonalization shortcut (such as T diag(w) T^{-1}) is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import RieszBasisPair
from .linalg import (
    DEFAULT_TOL,
    adjoint,
    as_columns,
    frobenius,
    operator_norm,
    require_finite,
)
from .report import CheckResult
from .sequences import SequenceSpec, ones


def _rank_one_sum(weights: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_n weights[n] * (left_n outer conj(right_n)) over matrix columns."""
    acc = (left * weights) @ right.conj().T
    require_finite(acc)
    return acc


def _columns(pair: RieszBasisPair, which: str) -> np.ndarray:
    if which == "phi":
        return pair.phi
    if which == "psi":
        return pair.psi
    raise ValueError(f"unknown basis family '{which}'")


def build_H(
    pair: RieszBasisPair, alpha: SequenceSpec, direction: str = "phi_psi"
) -> np.ndarray:
    """H^alpha = sum_n alpha_n (v_n outer conj(w_n)) with (v, w) = (phi, psi)
    for direction 'phi_psi' and (psi, phi) for 'psi_phi'."""
    if direction not in ("phi_psi", "psi_phi"):
        raise ValueError(f"unknown direction '{direction}'")
    weights = alpha.terms(pair.dim)
    left, right = (
        ("phi", "psi") if direction == "phi_psi" else ("psi", "phi")
    )
    return _rank_one_sum(weights, _columns(pair, left), _columns(pair, right))


def build_S_weighted(
    pair: RieszBasisPair, beta: SequenceSpec, side: str = "phi"
) -> np.ndarray:
    """S^beta = sum_n beta_n (v_n outer conj(v_n)) with v = phi or psi."""
    weights = beta.terms(pair.dim)
    cols = _columns(pair, side)
    return _rank_one_sum(weights, cols, cols)


@dataclass(frozen=True)
class OperatorBundle:
    """Every operator attached to one (basis pair, alpha) instance."""

    pair: RieszBasisPair
    alpha: SequenceSpec
    H_phi_psi: np.ndarray
    H_psi_phi: np.ndarray
    S_phi: np.ndarray
    S_psi: np.ndarray
    S_phi_sqrt: np.ndarray
    S_psi_sqrt: np.ndarray
    h: np.ndarray


def build_bundle(pair: RieszBasisPair, alpha: SequenceSpec) -> OperatorBundle:
    """Materialize H (both directions), the metric operators and their
    principal square roots, and h = S_psi^{1/2} H S_phi^{1/2}.

    Both roots come from the pair's eigendecomposition S_phi = U diag(s^2) U*:
    S_phi^{1/2} = U diag(s) U* and S_psi^{1/2} = U diag(1/s) U*.
    """
    unit = ones()
    s_phi = build_S_weighted(pair, unit, "phi")
    s_psi = build_S_weighted(pair, unit, "psi")
    s = np.sqrt(pair.metric_eigen.eigenvalues)
    s_phi_sqrt = pair.metric_eigen.with_eigenvalues(s)
    s_psi_sqrt = pair.metric_eigen.with_eigenvalues(1.0 / s)
    h_phi_psi = build_H(pair, alpha, "phi_psi")
    return OperatorBundle(
        pair=pair,
        alpha=alpha,
        H_phi_psi=h_phi_psi,
        H_psi_phi=build_H(pair, alpha, "psi_phi"),
        S_phi=s_phi,
        S_psi=s_psi,
        S_phi_sqrt=s_phi_sqrt,
        S_psi_sqrt=s_psi_sqrt,
        h=s_psi_sqrt @ h_phi_psi @ s_phi_sqrt,
    )


def eigen_action_residual(
    pair: RieszBasisPair,
    alpha: SequenceSpec,
    matrix: np.ndarray,
    which: str = "phi",
) -> float:
    """max_k || M v_k - alpha_k v_k || for v = phi or psi columns."""
    weights = alpha.terms(pair.dim)
    cols = _columns(pair, which)
    return float(np.abs(matrix @ cols - cols * weights).max())


def check_eigen_action(
    bundle: OperatorBundle, tol: float = DEFAULT_TOL
) -> CheckResult:
    """H_{phi,psi} phi_k = alpha_k phi_k and H_{psi,phi} psi_k = alpha_k psi_k."""
    residual = max(
        eigen_action_residual(bundle.pair, bundle.alpha, bundle.H_phi_psi, "phi"),
        eigen_action_residual(bundle.pair, bundle.alpha, bundle.H_psi_phi, "psi"),
    )
    return CheckResult.from_residual(
        "eigen_action", residual, tol, note="H phi_k = alpha_k phi_k, both directions"
    )


def check_adjoint_pair(
    pair: RieszBasisPair, alpha: SequenceSpec, tol: float = DEFAULT_TOL
) -> CheckResult:
    """(H^alpha_{phi,psi})* = H^conj(alpha)_{psi,phi}, and the weighted-S
    analogue (S^beta)* = S^conj(beta) on both sides, with beta = alpha."""
    conj = alpha.conjugate()
    r_h = frobenius(
        adjoint(build_H(pair, alpha, "phi_psi")) - build_H(pair, conj, "psi_phi")
    )
    r_s_phi = frobenius(
        adjoint(build_S_weighted(pair, alpha, "phi"))
        - build_S_weighted(pair, conj, "phi")
    )
    r_s_psi = frobenius(
        adjoint(build_S_weighted(pair, alpha, "psi"))
        - build_S_weighted(pair, conj, "psi")
    )
    residual = max(r_h, r_s_phi, r_s_psi)
    return CheckResult.from_residual(
        "adjoint_pair",
        residual,
        tol,
        note=f"H* vs conj weights {r_h:.3e}; S_phi {r_s_phi:.3e}; S_psi {r_s_psi:.3e}",
    )


def check_weighted_action(
    pair: RieszBasisPair, beta: SequenceSpec, tol: float = DEFAULT_TOL
) -> CheckResult:
    """S^beta_phi psi_k = beta_k phi_k and S^beta_psi phi_k = beta_k psi_k.

    The second identity is the corrected reading of the weighted-action pair:
    the psi-side operator maps phi_k to beta_k psi_k.
    """
    weights = beta.terms(pair.dim)
    s_phi = build_S_weighted(pair, beta, "phi")
    s_psi = build_S_weighted(pair, beta, "psi")
    r1 = float(np.abs(s_phi @ pair.psi - pair.phi * weights).max())
    r2 = float(np.abs(s_psi @ pair.phi - pair.psi * weights).max())
    return CheckResult.from_residual(
        "weighted_action",
        max(r1, r2),
        tol,
        note=f"S^b_phi psi_k = b_k phi_k ({r1:.3e}); S^b_psi phi_k = b_k psi_k ({r2:.3e})",
    )


def check_metric_pair(bundle: OperatorBundle, tol: float = DEFAULT_TOL) -> CheckResult:
    """S_phi S_psi = I, S_phi = T T*, and the square-root consistency
    S_phi_sqrt^2 = S_phi, S_psi_sqrt = S_phi_sqrt^{-1} (so S_psi_sqrt^2 = S_psi)."""
    pair = bundle.pair
    eye = np.eye(pair.dim)
    r_inv = frobenius(bundle.S_phi @ bundle.S_psi - eye)
    r_tt = frobenius(bundle.S_phi - pair.generator @ adjoint(pair.generator))
    r_sqrt = frobenius(bundle.S_phi_sqrt @ bundle.S_phi_sqrt - bundle.S_phi)
    r_sqrt_inv = frobenius(bundle.S_psi_sqrt @ bundle.S_phi_sqrt - eye)
    r_psi_sqrt = frobenius(bundle.S_psi_sqrt @ bundle.S_psi_sqrt - bundle.S_psi)
    residual = max(r_inv, r_tt, r_sqrt, r_sqrt_inv, r_psi_sqrt)
    return CheckResult.from_residual(
        "metric_pair",
        residual,
        tol,
        note=(
            f"S_phi S_psi = I ({r_inv:.3e}); S_phi = TT* ({r_tt:.3e}); "
            f"sqrt consistency ({max(r_sqrt, r_sqrt_inv, r_psi_sqrt):.3e})"
        ),
    )


def check_intertwining(bundle: OperatorBundle, tol: float = DEFAULT_TOL) -> CheckResult:
    """The four intertwining residuals linking H, S, and the weighted S:

        S_psi H_{phi,psi} = H_{psi,phi} S_psi = S^alpha_psi
        S_phi H_{psi,phi} = H_{phi,psi} S_phi = S^alpha_phi
    """
    pair, alpha = bundle.pair, bundle.alpha
    s_alpha_psi = build_S_weighted(pair, alpha, "psi")
    s_alpha_phi = build_S_weighted(pair, alpha, "phi")
    lhs_psi = bundle.S_psi @ bundle.H_phi_psi
    lhs_phi = bundle.S_phi @ bundle.H_psi_phi
    residuals = (
        frobenius(lhs_psi - bundle.H_psi_phi @ bundle.S_psi),
        frobenius(lhs_psi - s_alpha_psi),
        frobenius(lhs_phi - bundle.H_phi_psi @ bundle.S_phi),
        frobenius(lhs_phi - s_alpha_phi),
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

    f and g are vectors (dim,) or column blocks (dim, k) of paired vectors;
    the residual is that of the worst pair (f_j, g_j).  Only asserted for
    real alpha; complex weights are rejected.
    """
    if not bundle.alpha.is_real:
        raise ValueError("quasi-Hermitian symmetry is only asserted for real alpha")
    f, g = as_columns(f), as_columns(g)
    if f.shape != g.shape:
        raise ValueError(f"unpaired vectors: f block {f.shape}, g block {g.shape}")
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
    bound = (
        pair.frame_upper
        / pair.frame_lower
        * float(np.abs(bundle.alpha.terms(pair.dim)).max())
    )
    norm = operator_norm(bundle.H_phi_psi)
    excess = max(norm - bound, 0.0)
    return CheckResult.from_residual(
        "norm_bound",
        excess,
        tol,
        note=f"||H|| = {norm:.6e} vs (g2/g1) max|alpha| = {bound:.6e}",
    )
