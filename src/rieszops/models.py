"""Closed-form oracles: the 3x3 one-parameter model and the rank-one
projection perturbation of the identity.

Both models carry every matrix in closed form so the generic pipeline
(generator -> basis pair -> operator bundle -> similarity/ladder) can be
validated entrywise against independent ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import from_generator
from .ladder import build_ladder
from .linalg import DEFAULT_TOL, adjoint, worst_column_norm
from .report import CheckResult
from .sequences import SequenceSpec, explicit

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ThreeLevelModel:
    """One-parameter 3x3 model with spectrum (0, 2cos t - 1, 2cos t + 1).

    The parameter domain is [0, 2pi); the eigenvalues are simple and
    increasing exactly on [0, pi/3) u [5pi/3, 2pi), recorded in
    `admissible`.  The transported vectors Phi_n fix the third components
    to sin(t/2) and cos(t/2): the factor-6 variants are inconsistent with
    orthonormality and with the direct product S_psi^{1/2} phi_n.
    """

    t: float
    admissible: bool
    eps: tuple[float, float, float]
    H: np.ndarray
    T: np.ndarray
    S_phi: np.ndarray
    S_psi: np.ndarray
    S_phi_sqrt: np.ndarray
    S_psi_sqrt: np.ndarray
    h: np.ndarray
    phi: tuple[np.ndarray, np.ndarray, np.ndarray]
    psi: tuple[np.ndarray, np.ndarray, np.ndarray]
    Phi: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def gamma(self) -> SequenceSpec:
        """Factorization weights (0, sqrt(eps_1), sqrt(eps_2)); admissible only."""
        if not self.admissible:
            raise ValueError("gamma is defined only on the admissible interval")
        return explicit([0.0, np.sqrt(self.eps[1]), np.sqrt(self.eps[2])])


def three_level(t: float, tol: float = DEFAULT_TOL) -> ThreeLevelModel:
    """Instantiate the model at parameter t in [0, 2pi)."""
    if not 0.0 <= t < 2.0 * np.pi:
        raise ValueError(f"t = {t} outside the parameter domain [0, 2pi)")
    admissible = t < np.pi / 3.0 or t >= 5.0 * np.pi / 3.0
    c, s = np.cos(t), np.sin(t)
    ch, sh = np.cos(t / 2.0), np.sin(t / 2.0)
    eps = (0.0, 2.0 * c - 1.0, 2.0 * c + 1.0)
    H = np.array(
        [
            [-3.0 * c / 5.0, s / 2.0, 3.0 * c / 5.0],
            [-2.0 * s / 5.0, c, 2.0 * s / 5.0],
            [-18.0 * c / 5.0, 3.0 * s, 18.0 * c / 5.0],
        ],
        dtype=complex,
    )
    phi = (
        np.array([1.0, 0.0, 1.0], dtype=complex),
        np.array([sh, -2.0 * ch, 6.0 * sh], dtype=complex),
        np.array([ch, 2.0 * sh, 6.0 * ch], dtype=complex),
    )
    T = np.column_stack(phi)
    psi = (
        np.array([6.0 / 5.0, 0.0, -1.0 / 5.0], dtype=complex),
        np.array([-sh / 5.0, -ch / 2.0, sh / 5.0], dtype=complex),
        np.array([-ch / 5.0, sh / 2.0, ch / 5.0], dtype=complex),
    )
    S_phi = np.array([[2, 0, 7], [0, 4, 0], [7, 0, 37]], dtype=complex)
    S_psi = np.array(
        [
            [37.0 / 25.0, 0.0, -7.0 / 25.0],
            [0.0, 1.0 / 4.0, 0.0],
            [-7.0 / 25.0, 0.0, 2.0 / 25.0],
        ],
        dtype=complex,
    )
    S_phi_sqrt = np.array([[1, 0, 1], [0, 2, 0], [1, 0, 6]], dtype=complex)
    S_psi_sqrt = np.array(
        [
            [6.0 / 5.0, 0.0, -1.0 / 5.0],
            [0.0, 1.0 / 2.0, 0.0],
            [-1.0 / 5.0, 0.0, 1.0 / 5.0],
        ],
        dtype=complex,
    )
    h = np.array(
        [[0.0, 0.0, 0.0], [0.0, c, s], [0.0, s, 3.0 * c]], dtype=complex
    )
    Phi = (
        np.array([1.0, 0.0, 0.0], dtype=complex),
        np.array([0.0, -ch, sh], dtype=complex),
        np.array([0.0, sh, ch], dtype=complex),
    )
    if admissible:
        gaps = (eps[1] - eps[0], eps[2] - eps[1])
        if min(gaps) <= 0.0:
            raise ValueError(
                f"admissible t = {t} but eigenvalue gaps {gaps} are not positive"
            )
    return ThreeLevelModel(
        t=float(t),
        admissible=admissible,
        eps=eps,
        H=H,
        T=T,
        S_phi=S_phi,
        S_psi=S_psi,
        S_phi_sqrt=S_phi_sqrt,
        S_psi_sqrt=S_psi_sqrt,
        h=h,
        phi=phi,
        psi=psi,
        Phi=Phi,
    )


def three_level_ladder_closed_forms(
    model: ThreeLevelModel,
) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form lowering and raising matrices A(t), B(t).

    Transcribed for completeness; the acceptance-bearing facts about the
    ladder are its basis actions, checked elsewhere.
    """
    if not model.admissible:
        raise ValueError("ladder closed forms need the admissible interval")
    t = model.t
    e1, e2 = np.sqrt(model.eps[1]), np.sqrt(model.eps[2])
    c, s = np.cos(t), np.sin(t)
    ch, sh = np.cos(t / 2.0), np.sin(t / 2.0)
    A = np.array(
        [
            [
                -(e1 + ch * e2) * sh / 5.0,
                (-ch * e1 + e2 * sh**2) / 2.0,
                (2.0 * e1 * sh + e2 * s) / 10.0,
            ],
            [(1.0 + c) * e2 / 5.0, -e2 * s / 2.0, -(1.0 + c) * e2 / 5.0],
            [
                (-e1 * sh - 3.0 * e2 * s) / 5.0,
                -ch * e1 / 2.0 + 3.0 * e2 * sh**2,
                (e1 * sh + 3.0 * e2 * s) / 5.0,
            ],
        ],
        dtype=complex,
    )
    B = np.array(
        [
            [
                6.0 * e1 * sh / 5.0 - e2 * s / 10.0,
                -(1.0 + c) * e2 / 4.0,
                (-2.0 * e1 * sh + e2 * s) / 10.0,
            ],
            [
                -2.0 * (6.0 * ch * e1 + e2 * sh**2) / 5.0,
                -e2 * s / 2.0,
                2.0 * (ch * e1 + e2 * sh**2) / 5.0,
            ],
            [
                3.0 * (12.0 * e1 * sh - e2 * s) / 5.0,
                -3.0 * (1.0 + c) * e2 / 2.0,
                3.0 * (-2.0 * e1 * sh + e2 * s) / 5.0,
            ],
        ],
        dtype=complex,
    )
    return A, B


def three_level_hat_spectrum(
    model: ThreeLevelModel,
    A: np.ndarray | None = None,
    B: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> tuple[tuple[float, float, float], CheckResult]:
    """Relabeled spectrum of AB: phi_n are eigenvectors with eigenvalues
    (eps_1, eps_2, 0), and psi_n are eigenvectors of (AB)* with the same list.

    A and B default to the generic ladder construction from the model's
    generator and factorization weights.
    """
    if not model.admissible:
        raise ValueError("hat spectrum is defined on the admissible interval")
    if A is None or B is None:
        lp = build_ladder(from_generator(model.T, tol), model.gamma)
        A = lp.A_phi_psi if A is None else A
        B = lp.B_phi_psi if B is None else B
    eps_tilde = (model.eps[1], model.eps[2], 0.0)
    hat = A @ B
    phi, psi = np.column_stack(model.phi), np.column_stack(model.psi)
    eigenvalues = np.array(eps_tilde)
    r_phi = hat @ phi - phi * eigenvalues
    r_psi = adjoint(hat) @ psi - psi * eigenvalues
    worst = worst_column_norm(np.hstack([r_phi, r_psi]))
    check = CheckResult.from_residual(
        "hat_spectrum",
        worst,
        tol,
        note="AB phi_n and (AB)* psi_n actions with relabeled eigenvalues",
    )
    return eps_tilde, check


@dataclass(frozen=True)
class ProjectionModel:
    """Rank-one perturbation T = I + i(u x u*) of the identity generator.

    u is a normalized vector supported on finitely many coordinates (at
    least two nonzero coefficients, so the projection does not commute with
    every coordinate projection).  All derived operators are polynomials in
    the projection, hence available in closed form.
    """

    dim: int
    u: np.ndarray
    support: tuple[int, ...]
    P: np.ndarray
    T: np.ndarray
    T_inv: np.ndarray
    S_phi: np.ndarray
    S_phi_sqrt: np.ndarray
    S_psi_sqrt: np.ndarray
    alpha: SequenceSpec

    def h_domain_weights(self) -> SequenceSpec:
        """Weights of the domain predicate shared by h and H for this model.

        The similarity transform acts as the identity outside the (finite)
        support of u, so D(h) = D(H) with coefficients taken against the
        coordinate basis.  This closed form is special to this model.
        """
        return self.alpha


def projection_model(
    dim: int,
    u_coeffs,
    alpha: SequenceSpec,
    tol: float = DEFAULT_TOL,
) -> ProjectionModel:
    """Build the projection model from the leading coefficients of u.

    u_coeffs fills the first len(u_coeffs) coordinates (zeros allowed, so
    any support pattern inside that window works); it must be normalized
    within tol and have at least two nonzero entries.
    """
    coeffs = np.asarray(u_coeffs, dtype=complex)
    if coeffs.ndim != 1 or not 1 <= coeffs.size <= dim:
        raise ValueError(
            f"u_coeffs must be a vector of length 1..{dim}, got shape {coeffs.shape}"
        )
    norm = float(np.linalg.norm(coeffs))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"u must be normalized: ||u|| = {norm:.12g}")
    support = tuple(int(k) for k in np.nonzero(np.abs(coeffs) > tol)[0])
    if len(support) < 2:
        raise ValueError(
            "u needs at least two nonzero coefficients; "
            f"found {len(support)} above tol"
        )
    u = np.zeros(dim, dtype=complex)
    u[: coeffs.size] = coeffs
    P = np.outer(u, u.conj())
    eye = np.eye(dim, dtype=complex)
    T = eye + 1j * P
    T_inv = eye - ((1j + 1.0) / 2.0) * P
    S_phi = eye + P
    S_phi_sqrt = eye + (_SQRT2 - 1.0) * P
    S_psi_sqrt = eye - ((2.0 - _SQRT2) / 2.0) * P
    # closed forms are mutually consistent by construction; guard anyway
    for name, residual in (
        ("P idempotent", float(np.abs(P @ P - P).max())),
        ("T T_inv = I", float(np.abs(T @ T_inv - eye).max())),
        ("sqrt^2 = S_phi", float(np.abs(S_phi_sqrt @ S_phi_sqrt - S_phi).max())),
    ):
        if residual > tol:
            raise ValueError(f"closed-form consistency failed: {name} ({residual:.3e})")
    return ProjectionModel(
        dim=dim,
        u=u,
        support=support,
        P=P,
        T=T,
        T_inv=T_inv,
        S_phi=S_phi,
        S_phi_sqrt=S_phi_sqrt,
        S_psi_sqrt=S_psi_sqrt,
        alpha=alpha,
    )


def projection_phi_psi_closed_forms(
    model: ProjectionModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Case formulas for the basis families:

        phi_n = e_n + i conj(u_n) u,    psi_n = e_n + (i-1)/2 conj(u_n) u

    (both reduce to e_n off the support of u).  Returned as column matrices.
    """
    eye = np.eye(model.dim, dtype=complex)
    phi = eye + 1j * np.outer(model.u, model.u.conj())
    psi = eye + ((1j - 1.0) / 2.0) * np.outer(model.u, model.u.conj())
    return phi, psi


def projection_H_closed_form(model: ProjectionModel) -> np.ndarray:
    """H as the split sum: weighted phi_k psi_k* on the support window and
    weighted coordinate projections e_k e_k* beyond it."""
    weights = model.alpha.terms(model.dim)
    phi, psi = projection_phi_psi_closed_forms(model)
    eye = np.eye(model.dim, dtype=complex)
    # column k of each factor: phi_k, psi_k on the support, e_k off it
    inside = np.zeros(model.dim, dtype=bool)
    inside[list(model.support)] = True
    left = np.where(inside, phi, eye)
    right = np.where(inside, psi, eye)
    return (left * weights) @ right.conj().T
