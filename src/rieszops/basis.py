"""Biorthogonal basis pairs generated by an invertible matrix.

Given an invertible generator T on C^N, the pair is phi_n = T e_n (columns
of T) and psi_n = (T^{-1})* e_n, with the standard coordinate basis fixed as
the ambient orthonormal frame.  The pair is biorthogonal, <phi_n, psi_m> =
delta_nm, and the tight frame bounds are the extreme singular values of T.

One SVD T = U diag(s) V* per pair yields the singular values s of T (the
frame bounds and the singularity test) to about cond(T) * eps.  U and s are
kept on the pair with S_phi = T T* = U diag(s^2) U* itself, so that the
metric square roots are built from them, not from further products and
solves.  psi comes from the LU inverse of T, not from the SVD's factors.
The adjoint psi* = T^{-1}, which every psi-side product and the checks
here read, is that inverse itself on a pair from_generator builds, and is
formed once, on first use, from the pair's own psi on any other: a pair
replaced with another psi forms its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    LinalgError,
    adjoint,
    as_matrix,
    column_norms,
    frobenius,
    guard,
    identity,
    max_entry,
    require_finite,
    svd,
)
from .report import Check


@dataclass(frozen=True)
class RieszBasisPair:
    """Both basis families, the frame bounds, the metric operator S_phi = T T*
    and the SVD factors U and s of T, for each point of a batch.

    phi and psi are (..., dim, dim) stacks whose n-th columns are phi_n and
    psi_n in ambient coordinates: phi is T itself and psi is (T^{-1})*.  The
    frame bounds are shaped like the batch.  singular_values (..., dim) are
    descending, each above DEFAULT_TOL * s_max, and the columns of
    singular_vectors (..., dim, dim) are the matching eigenvectors of S_phi.
    """

    dim: int
    phi: np.ndarray
    psi: np.ndarray
    frame_lower: np.ndarray
    frame_upper: np.ndarray
    metric: np.ndarray
    singular_vectors: np.ndarray
    singular_values: np.ndarray

    @cached_property
    def psi_adj(self) -> np.ndarray:
        """psi*, whose rows are the conjugated psi_n: T^{-1}."""
        return adjoint(self.psi)


def from_generator(t: np.ndarray) -> RieszBasisPair:
    """Construct the basis pairs from a stack of invertible generators.

    Rejects generators with sigma_min <= DEFAULT_TOL * sigma_max, a bound on
    cond(T) alone, independent of scale and of any check tolerance, with the
    measured values: those are not (numerically) Riesz-basis generators.
    psi = (T^{-1})* is the LU solve T X = I; a solve LAPACK finds singular,
    a non-finite X or ||T X - I||_F > DEFAULT_TOL * cond(T) is a LinalgError.
    """
    t = as_matrix(t)  # validated once: svd takes it as it is
    u, s, _ = svd(t)
    smin, smax = s[..., -1], s[..., 0]
    guard(
        smin <= DEFAULT_TOL * smax,
        "generator is numerically singular (sigma_min = {:.6e}, sigma_max = {:.6e}); "
        "not a Riesz-basis generator",
        smin,
        smax,
    )
    eye = identity(t.shape[-1])
    try:
        inv = np.linalg.solve(t, eye)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"generator is numerically singular: {exc}") from None
    require_finite(inv)
    residual, bound = frobenius(t @ inv - eye), DEFAULT_TOL * (smax / smin)
    guard(
        residual > bound,
        "inverse residual {:.3e} exceeds DEFAULT_TOL * cond = {:.3e}",
        residual,
        bound,
    )
    pair = RieszBasisPair(
        dim=t.shape[-1],
        phi=t.copy(),
        psi=adjoint(inv),
        frame_lower=smin,
        frame_upper=smax,
        metric=t @ adjoint(t),
        singular_vectors=u,
        singular_values=s,
    )
    vars(pair)["psi_adj"] = inv  # the cached psi*: what adjoint(pair.psi) forms, bit for bit
    return pair


def verify_biorthogonality(pair: RieszBasisPair) -> Check:
    """max_{n,m} |<phi_n, psi_m> - delta_nm|."""
    gram = pair.psi_adj @ pair.phi  # entry (m, n) = <phi_n, psi_m>
    return Check(
        "biorthogonality",
        max_entry(gram - identity(pair.dim)),
        "max |<phi_n,psi_m> - delta_nm| over all n, m",
    )


def frame_inequality_check(pair: RieszBasisPair, alpha: np.ndarray, f: np.ndarray) -> Check:
    """Two-sided frame inequality for the weighted coefficient sums.

    Verifies  gamma_1^2 S <= ||sum_k alpha_k <f,psi_k> phi_k||^2 <= gamma_2^2 S
    with S = sum_k |alpha_k <f,psi_k>|^2, each side with slack (scaled by
    the magnitude of the upper bound), for the weights alpha_0 ..
    alpha_{dim-1} and each column of the block f, (dim, k) for every point
    or (..., dim, k) one per point.  The residual and the note are those of
    the worst column, the first NaN one if any, taken by its flat index:
    bit for bit what take_along_axis at the argmax gives.
    """
    f = np.asarray(f, dtype=complex)
    if f.ndim < 2 or f.shape[-2] != pair.dim:
        raise ValueError(f"vectors have shape {f.shape}, expected ({pair.dim}, k)")
    weighted = alpha[..., :, None] * (pair.psi_adj @ f)
    coeff_mass = np.sum(np.abs(weighted) ** 2, axis=-2)
    mid = column_norms(pair.phi @ weighted) ** 2
    lower = pair.frame_lower[..., None] ** 2 * coeff_mass
    upper = pair.frame_upper[..., None] ** 2 * coeff_mass
    violation = np.maximum(lower - mid, mid - upper) / np.maximum(1.0, upper)
    worst = violation.argmax(axis=-1)  # the first NaN column, if any
    worst += violation.shape[-1] * np.arange(worst.size).reshape(worst.shape)  # flat index
    lower, mid, upper, violation = (x.take(worst) for x in (lower, mid, upper, violation))
    return Check(
        "frame_inequality",
        np.maximum(violation, 0.0),  # NaN stays NaN
        f"worst of {f.shape[-1]} samples: lower {{:.6e}} <= mid {{:.6e}} <= upper {{:.6e}}",
        (lower, mid, upper),
    )
