"""Closed-form oracles: the 3x3 one-parameter model and the rank-one
projection perturbation of the identity.

Both models carry every matrix in closed form so the generic pipeline
(generator -> basis pair -> operator bundle -> similarity/ladder) can be
validated entrywise against independent ground truth.  Each closed form is
a field named after the bundle or pair field it predicts, and each model
lists its closed-form checks once, in `rows`: (check name, field, note).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .linalg import DEFAULT_TOL, adjoint, guard, identity, worst_column_norm
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

    rows: ClassVar[tuple[tuple[str, str, str], ...]] = (
        ("three_level_H", "H_phi_psi", ""),
        ("three_level_psi", "psi", ""),
        ("three_level_S_phi", "S_phi", ""),
        ("three_level_S_psi", "S_psi", ""),
        ("three_level_S_phi_sqrt", "S_phi_sqrt", ""),
        ("three_level_S_psi_sqrt", "S_psi_sqrt", ""),
        ("three_level_h", "h", ""),
        ("three_level_Phi", "Phi", "transported eigenvectors vs closed forms"),
    )

    t: np.ndarray
    admissible: np.ndarray
    #: (..., 3) eigenvalues
    eps: np.ndarray
    H_phi_psi: np.ndarray
    #: phi_n as columns
    T: np.ndarray
    S_phi: np.ndarray
    S_psi: np.ndarray
    S_phi_sqrt: np.ndarray
    S_psi_sqrt: np.ndarray
    h: np.ndarray
    #: psi_n and Phi_n as columns, each (..., 3, 3)
    psi: np.ndarray
    Phi: np.ndarray


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

    return ThreeLevelModel(
        t=t,
        admissible=np.diff(eps, axis=-1).min(axis=-1) > DEFAULT_TOL,
        eps=eps,
        H_phi_psi=_entries(
            [
                [-3.0 * c / 5.0, s / 2.0, 3.0 * c / 5.0],
                [-2.0 * s / 5.0, c, 2.0 * s / 5.0],
                [-18.0 * c / 5.0, 3.0 * s, 18.0 * c / 5.0],
            ],
            t.shape,
        ),
        T=_entries([[1.0, sh, ch], [0.0, -2.0 * ch, 2.0 * sh], [1.0, 6.0 * sh, 6.0 * ch]], t.shape),
        S_phi=constant([[2, 0, 7], [0, 4, 0], [7, 0, 37]]),
        S_psi=constant([[37 / 25, 0, -7 / 25], [0, 1 / 4, 0], [-7 / 25, 0, 2 / 25]]),
        S_phi_sqrt=constant([[1, 0, 1], [0, 2, 0], [1, 0, 6]]),
        S_psi_sqrt=constant([[6 / 5, 0, -1 / 5], [0, 1 / 2, 0], [-1 / 5, 0, 1 / 5]]),
        h=_entries([[0.0, 0.0, 0.0], [0.0, c, s], [0.0, s, 3.0 * c]], t.shape),
        psi=_entries(
            [[6.0 / 5.0, -sh / 5.0, -ch / 5.0], [0.0, -ch / 2.0, sh / 2.0],
             [-1.0 / 5.0, sh / 5.0, ch / 5.0]],
            t.shape,
        ),
        Phi=_entries([[1.0, 0.0, 0.0], [0.0, -ch, sh], [0.0, sh, ch]], t.shape),
    )


def three_level_ladder_closed_forms(
    model: ThreeLevelModel,
) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form lowering and raising matrices A(t), B(t) for
    gamma_n = sqrt(eps_n), principal branch, at every t: outside the
    admissible interval eps_1 < 0 and gamma_1 is imaginary.

    Transcribed for completeness; the acceptance-bearing facts about the
    ladder are its basis actions, checked elsewhere.
    """
    t = model.t
    gamma = np.sqrt(model.eps.astype(complex))
    e1, e2 = gamma[..., 1], gamma[..., 2]
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
    phi, psi = model.T, model.psi
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
    """Rank-one perturbation T = I + iP, P = u u*, of the identity generator,
    at every point of a batch: each field carries the batch shape first.

    u is a normalized vector supported on finitely many coordinates (at
    least two nonzero coefficients, so the projection does not commute with
    every coordinate projection).  All derived operators are polynomials in
    the projection, hence available in closed form.  The basis families
    follow case formulas,

        phi_n = e_n + i conj(u_n) u,    psi_n = e_n + (i-1)/2 conj(u_n) u,

    both e_n off the support of u, and H splits into weighted phi_k psi_k*
    on the support and weighted coordinate projections e_k e_k* beyond it.
    The model keeps P, the support of u and the weights; the generator T
    and each closed form of `rows` are formed from P (and H from the
    weights too) on every read, so a battery holds at most one of them at
    a time.
    """

    rows: ClassVar[tuple[tuple[str, str, str], ...]] = (
        ("projection_S_phi", "S_phi", ""),
        ("projection_S_phi_sqrt", "S_phi_sqrt", ""),
        ("projection_S_psi_sqrt", "S_psi_sqrt", ""),
        ("projection_bases", "psi", "psi_n case formula; phi_n = T e_n holds by construction"),
        ("projection_H_split", "H_phi_psi", "H as support terms plus coordinate projections"),
    )

    #: (..., dim) mask of the support of u
    inside: np.ndarray
    #: the projection u u*
    P: np.ndarray
    #: alpha_0 .. alpha_{dim-1}
    weights: np.ndarray

    def _plus_identity(self, scale: complex) -> np.ndarray:
        """I + scale P, the identity added in place."""
        out = scale * self.P
        out += identity(self.P.shape[-1])
        return out

    @property
    def T(self) -> np.ndarray:
        """phi_n as columns."""
        return self._plus_identity(1j)

    @property
    def S_phi(self) -> np.ndarray:
        return self._plus_identity(1.0)

    @property
    def S_phi_sqrt(self) -> np.ndarray:
        return self._plus_identity(_SQRT2 - 1.0)

    @property
    def S_psi_sqrt(self) -> np.ndarray:
        return self._plus_identity(-(2.0 - _SQRT2) / 2.0)

    @property
    def psi(self) -> np.ndarray:
        """psi_n as columns."""
        return self._plus_identity((1j - 1.0) / 2.0)

    @property
    def H_phi_psi(self) -> np.ndarray:
        # column k of each factor: phi_k, psi_k on the support, e_k off it,
        # set in place; phi_k formed from P, like every closed form, not
        # read from the generator T
        eye, off = identity(self.P.shape[-1]), ~self.inside[..., None, :]
        right, left = self.psi, self._plus_identity(1j)
        np.copyto(right, eye, where=off)
        right_adj = adjoint(right)
        del right
        np.copyto(left, eye, where=off)
        left *= self.weights[..., None, :]
        return left @ right_adj


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
    return ProjectionModel(inside=inside, P=P, weights=alpha)

