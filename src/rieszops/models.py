"""Closed-form oracles: the 3x3 one-parameter model and the rank-one
projection perturbation of the identity.

Both models carry every matrix in closed form so the generic pipeline
(generator -> basis pair -> operator bundle -> similarity/ladder) can be
validated entrywise against independent ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, adjoint, guard, worst_column_norm
from .report import Check

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ThreeLevelModel:
    """One-parameter 3x3 model with spectrum (0, 2cos t - 1, 2cos t + 1),
    at every point of an array of t: each field carries t's shape first.

    The parameter domain is [0, 2pi); the eigenvalues are simple and
    increasing exactly on [0, pi/3) u (5pi/3, 2pi).  `admissible` records
    that the smallest gap 2cos t - 1 exceeds DEFAULT_TOL, the comparison
    `ladder.factorize_from_alpha` makes on these eigenvalues, so it is
    false at both ends and within about DEFAULT_TOL/sqrt(3) of them.  The
    transported vectors Phi_n fix the third components to sin(t/2) and
    cos(t/2): the factor-6 variants are inconsistent with orthonormality
    and with S_psi^{1/2} phi_n.
    """

    t: np.ndarray
    admissible: np.ndarray
    #: (..., 3) eigenvalues
    eps: np.ndarray
    H: np.ndarray
    T: np.ndarray
    S_phi: np.ndarray
    S_psi: np.ndarray
    S_phi_sqrt: np.ndarray
    S_psi_sqrt: np.ndarray
    h: np.ndarray
    #: the vectors phi_n, psi_n and Phi_n, each (..., 3)
    phi: tuple[np.ndarray, np.ndarray, np.ndarray]
    psi: tuple[np.ndarray, np.ndarray, np.ndarray]
    Phi: tuple[np.ndarray, np.ndarray, np.ndarray]


def _entries(rows, shape: tuple) -> np.ndarray:
    """Nested rows of scalars or `shape` arrays as one complex array of
    shape + (rows, columns)."""
    out = np.empty(shape + (len(rows), len(rows[0])), dtype=complex)
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            out[..., i, j] = value
    return out


def three_level(t) -> ThreeLevelModel:
    """Instantiate the model at each parameter of t (a float or an array)
    in [0, 2pi)."""
    t = np.asarray(t, dtype=float)
    guard(
        ~((0.0 <= t) & (t < 2.0 * np.pi)),
        "t = {} outside the parameter domain [0, 2pi)",
        t,
        error=ValueError,
    )
    c, s = np.cos(t), np.sin(t)
    ch, sh = np.cos(t / 2.0), np.sin(t / 2.0)
    eps = np.stack([np.zeros(t.shape), 2.0 * c - 1.0, 2.0 * c + 1.0], axis=-1)

    def constant(rows):
        return np.broadcast_to(np.array(rows, dtype=complex), t.shape + (3, 3))

    phi = _entries([[1.0, 0.0, 1.0], [sh, -2.0 * ch, 6.0 * sh], [ch, 2.0 * sh, 6.0 * ch]], t.shape)
    psi = _entries(
        [[6.0 / 5.0, 0.0, -1.0 / 5.0], [-sh / 5.0, -ch / 2.0, sh / 5.0],
         [-ch / 5.0, sh / 2.0, ch / 5.0]],
        t.shape,
    )
    Phi = _entries([[1.0, 0.0, 0.0], [0.0, -ch, sh], [0.0, sh, ch]], t.shape)
    return ThreeLevelModel(
        t=t,
        admissible=np.diff(eps, axis=-1).min(axis=-1) > DEFAULT_TOL,
        eps=eps,
        H=_entries(
            [
                [-3.0 * c / 5.0, s / 2.0, 3.0 * c / 5.0],
                [-2.0 * s / 5.0, c, 2.0 * s / 5.0],
                [-18.0 * c / 5.0, 3.0 * s, 18.0 * c / 5.0],
            ],
            t.shape,
        ),
        T=phi.swapaxes(-1, -2).copy(),
        S_phi=constant([[2, 0, 7], [0, 4, 0], [7, 0, 37]]),
        S_psi=constant([[37 / 25, 0, -7 / 25], [0, 1 / 4, 0], [-7 / 25, 0, 2 / 25]]),
        S_phi_sqrt=constant([[1, 0, 1], [0, 2, 0], [1, 0, 6]]),
        S_psi_sqrt=constant([[6 / 5, 0, -1 / 5], [0, 1 / 2, 0], [-1 / 5, 0, 1 / 5]]),
        h=_entries([[0.0, 0.0, 0.0], [0.0, c, s], [0.0, s, 3.0 * c]], t.shape),
        phi=tuple(phi[..., n, :] for n in range(3)),
        psi=tuple(psi[..., n, :] for n in range(3)),
        Phi=tuple(Phi[..., n, :] for n in range(3)),
    )


def three_level_ladder_closed_forms(
    model: ThreeLevelModel,
) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form lowering and raising matrices A(t), B(t).

    Transcribed for completeness; the acceptance-bearing facts about the
    ladder are its basis actions, checked elsewhere.
    """
    if not model.admissible.all():
        raise ValueError("ladder closed forms need the admissible interval")
    t = model.t
    e1, e2 = np.sqrt(model.eps[..., 1]), np.sqrt(model.eps[..., 2])
    c, s = np.cos(t), np.sin(t)
    ch, sh = np.cos(t / 2.0), np.sin(t / 2.0)
    A = [
        [-(e1 + ch * e2) * sh / 5.0, (-ch * e1 + e2 * sh**2) / 2.0,
         (2.0 * e1 * sh + e2 * s) / 10.0],
        [(1.0 + c) * e2 / 5.0, -e2 * s / 2.0, -(1.0 + c) * e2 / 5.0],
        [(-e1 * sh - 3.0 * e2 * s) / 5.0, -ch * e1 / 2.0 + 3.0 * e2 * sh**2,
         (e1 * sh + 3.0 * e2 * s) / 5.0],
    ]
    B = [
        [6.0 * e1 * sh / 5.0 - e2 * s / 10.0, -(1.0 + c) * e2 / 4.0,
         (-2.0 * e1 * sh + e2 * s) / 10.0],
        [-2.0 * (6.0 * ch * e1 + e2 * sh**2) / 5.0, -e2 * s / 2.0,
         2.0 * (ch * e1 + e2 * sh**2) / 5.0],
        [3.0 * (12.0 * e1 * sh - e2 * s) / 5.0, -3.0 * (1.0 + c) * e2 / 2.0,
         3.0 * (-2.0 * e1 * sh + e2 * s) / 5.0],
    ]
    return _entries(A, t.shape), _entries(B, t.shape)


def three_level_hat_spectrum(model: ThreeLevelModel, AB: np.ndarray) -> Check:
    """Relabeled spectrum of the ladder's AB: phi_n are eigenvectors with
    eigenvalues (eps_1, eps_2, 0), and psi_n are eigenvectors of (AB)* with
    the same list.
    """
    if not model.admissible.all():
        raise ValueError("hat spectrum is defined on the admissible interval")
    phi, psi = np.stack(model.phi, axis=-1), np.stack(model.psi, axis=-1)
    eigenvalues = np.stack([model.eps[..., 1], model.eps[..., 2], np.zeros(model.t.shape)], axis=-1)
    r_phi = AB @ phi - phi * eigenvalues[..., None, :]
    r_psi = adjoint(AB) @ psi - psi * eigenvalues[..., None, :]
    return Check(
        "hat_spectrum",
        worst_column_norm(np.concatenate([r_phi, r_psi], axis=-1)),
        "AB phi_n and (AB)* psi_n actions with relabeled eigenvalues",
    )


@dataclass(frozen=True)
class ProjectionModel:
    """Rank-one perturbation T = I + i(u x u*) of the identity generator, at
    every point of a batch: each field but dim carries the batch shape first.

    u is a normalized vector supported on finitely many coordinates (at
    least two nonzero coefficients, so the projection does not commute with
    every coordinate projection).  All derived operators are polynomials in
    the projection, hence available in closed form.
    """

    dim: int
    #: (..., dim) mask of the support of u
    inside: np.ndarray
    P: np.ndarray
    T: np.ndarray
    T_inv: np.ndarray
    S_phi: np.ndarray
    S_phi_sqrt: np.ndarray
    S_psi_sqrt: np.ndarray
    #: alpha_0 .. alpha_{dim-1}
    weights: np.ndarray


def projection_model(dim: int, u_coeffs, alpha: np.ndarray) -> ProjectionModel:
    """Build the projection model at each point of a batch from the leading
    coefficients of u, (..., m), and the weights alpha_0 .. alpha_{dim-1},
    (..., dim).

    u_coeffs fills the first m coordinates (zeros allowed, so any support
    pattern inside that window works); it must be normalized within
    DEFAULT_TOL and have at least two entries above DEFAULT_TOL in
    modulus, which form the support.
    """
    coeffs = np.asarray(u_coeffs, dtype=complex)
    if coeffs.ndim < 1 or not 1 <= coeffs.shape[-1] <= dim:
        raise ValueError(
            f"u_coeffs must have a last axis of length 1..{dim}, got shape {coeffs.shape}"
        )
    norm = np.linalg.norm(coeffs, axis=-1)
    guard(
        np.abs(norm - 1.0) > DEFAULT_TOL, "u must be normalized: ||u|| = {:.12g}", norm,
        error=ValueError,
    )
    u = np.zeros(coeffs.shape[:-1] + (dim,), dtype=complex)
    u[..., : coeffs.shape[-1]] = coeffs
    inside = np.abs(u) > DEFAULT_TOL
    size = inside.sum(axis=-1)
    guard(
        size < 2,
        f"u needs at least two nonzero coefficients; found {{}} above {DEFAULT_TOL:g}",
        size,
        error=ValueError,
    )
    P = u[..., :, None] * u[..., None, :].conj()
    eye = np.eye(dim, dtype=complex)
    return ProjectionModel(
        dim=dim,
        inside=inside,
        P=P,
        T=eye + 1j * P,
        T_inv=eye - ((1j + 1.0) / 2.0) * P,
        S_phi=eye + P,
        S_phi_sqrt=eye + (_SQRT2 - 1.0) * P,
        S_psi_sqrt=eye - ((2.0 - _SQRT2) / 2.0) * P,
        weights=alpha,
    )


def projection_phi_psi_closed_forms(
    model: ProjectionModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Case formulas for the basis families:

        phi_n = e_n + i conj(u_n) u,    psi_n = e_n + (i-1)/2 conj(u_n) u

    (both reduce to e_n off the support of u), the outer products u u* read
    from P.  Returned as column matrices.
    """
    eye = np.eye(model.dim, dtype=complex)
    return eye + 1j * model.P, eye + ((1j - 1.0) / 2.0) * model.P


def projection_H_closed_form(model: ProjectionModel) -> np.ndarray:
    """H as the split sum: weighted phi_k psi_k* on the support window and
    weighted coordinate projections e_k e_k* beyond it."""
    phi, psi = projection_phi_psi_closed_forms(model)
    eye = np.eye(model.dim, dtype=complex)
    # column k of each factor: phi_k, psi_k on the support, e_k off it
    inside = model.inside[..., None, :]
    left = np.where(inside, phi, eye)
    right = np.where(inside, psi, eye)
    return (left * model.weights[..., None, :]) @ adjoint(right)
