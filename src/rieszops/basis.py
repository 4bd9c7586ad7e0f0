"""Biorthogonal basis pairs generated by an invertible matrix.

Given an invertible generator T on C^N, the pair is phi_n = T e_n (columns
of T) and psi_n = (T^{-1})* e_n, with the standard coordinate basis fixed as
the ambient orthonormal frame.  The pair is biorthogonal, <phi_n, psi_m> =
delta_nm, and the tight frame bounds are the extreme singular values of T.

One Hermitian eigendecomposition S_phi = T T* = U diag(s^2) U* per pair
yields the singular values s of T (the frame bounds and the singularity
test) and is kept on the pair, so that the metric square roots are built
from it instead of from further eigensolves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    HermitianEigen,
    LinalgError,
    adjoint,
    as_matrix,
    hermitian_eig,
    inverse,
)
from .report import CheckResult


@dataclass(frozen=True)
class RieszBasisPair:
    """Both basis families, the generator's inverse, the frame bounds, and
    the eigendecomposition of the metric operator S_phi = T T*.

    phi and psi are dim x dim matrices whose n-th columns are phi_n and
    psi_n in ambient coordinates; phi is the generator T itself.
    metric_eigen has eigenvalues s_k^2 > DEFAULT_TOL^2, the squared
    singular values of T.
    """

    dim: int
    generator_inverse: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    frame_lower: float
    frame_upper: float
    metric_eigen: HermitianEigen


def from_generator(t: np.ndarray) -> RieszBasisPair:
    """Construct the basis pair from an invertible generator.

    Rejects generators with smallest singular value <= DEFAULT_TOL, an
    absolute threshold independent of any check tolerance, reporting the
    measured value: those are not (numerically) Riesz-basis generators.
    """
    t = as_matrix(t)
    metric = hermitian_eig(t @ adjoint(t))
    s = np.sqrt(np.clip(metric.eigenvalues, 0.0, None))
    smin, smax = float(s[0]), float(s[-1])
    if smin <= DEFAULT_TOL:
        raise LinalgError(
            f"generator is numerically singular (sigma_min = {smin:.6e}); "
            "not a Riesz-basis generator"
        )
    t_inv = inverse(t, (smin, smax))
    return RieszBasisPair(
        dim=t.shape[0],
        generator_inverse=t_inv,
        phi=t.copy(),
        psi=adjoint(t_inv),
        frame_lower=smin,
        frame_upper=smax,
        metric_eigen=metric,
    )


def verify_biorthogonality(
    pair: RieszBasisPair, tol: float = DEFAULT_TOL
) -> CheckResult:
    """max_{n,m} |<phi_n, psi_m> - delta_nm| against tol."""
    gram = adjoint(pair.psi) @ pair.phi  # entry (m, n) = <phi_n, psi_m>
    residual = float(np.abs(gram - np.eye(pair.dim)).max())
    return CheckResult.from_residual(
        "biorthogonality",
        residual,
        tol,
        note="max |<phi_n,psi_m> - delta_nm| over all n, m",
    )


def expand(pair: RieszBasisPair, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both coefficient families of the columns of a block f (dim, k).

    Returns (coeff_psi, coeff_phi), shaped like f, with coeff_psi[n] =
    <f, psi_n> (so that f = sum coeff_psi[n] phi_n) and coeff_phi[n] =
    <f, phi_n> (so that f = sum coeff_phi[n] psi_n), column by column.
    """
    f = np.asarray(f, dtype=complex)
    if f.ndim != 2 or f.shape[0] != pair.dim:
        raise ValueError(f"vectors have shape {f.shape}, expected ({pair.dim}, k)")
    coeff_psi = adjoint(pair.psi) @ f
    coeff_phi = adjoint(pair.phi) @ f
    return coeff_psi, coeff_phi


def reconstruction_residual(pair: RieszBasisPair, f: np.ndarray) -> float:
    """Worse of the two reconstruction residuals, relative to ||f||, of the
    worst column of the block f (dim, k)."""
    coeff_psi, coeff_phi = expand(pair, f)
    scale = np.maximum(np.linalg.norm(f, axis=0), 1e-300)
    residuals = np.maximum(
        np.linalg.norm(pair.phi @ coeff_psi - f, axis=0),
        np.linalg.norm(pair.psi @ coeff_phi - f, axis=0),
    )
    return float((residuals / scale).max())


def frame_inequality_check(
    pair: RieszBasisPair,
    alpha: np.ndarray,
    f: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    """Two-sided frame inequality for the weighted coefficient sums.

    Verifies  gamma_1^2 S <= ||sum_k alpha_k <f,psi_k> phi_k||^2 <= gamma_2^2 S
    with S = sum_k |alpha_k <f,psi_k>|^2, each side with slack tol (scaled by
    the magnitude of the upper bound), for the weights alpha_0 ..
    alpha_{dim-1} and each column of the block f (dim, k).  The result and
    its note are those of the worst column.
    """
    coeff_psi, _ = expand(pair, f)
    weighted = alpha[:, None] * coeff_psi
    coeff_mass = np.sum(np.abs(weighted) ** 2, axis=0)
    mid = np.linalg.norm(pair.phi @ weighted, axis=0) ** 2
    lower = pair.frame_lower**2 * coeff_mass
    upper = pair.frame_upper**2 * coeff_mass
    violation = np.maximum(lower - mid, mid - upper) / np.maximum(1.0, upper)
    k = int(np.argmax(violation))  # the first NaN column, if any
    return CheckResult.from_residual(
        "frame_inequality",
        max(float(violation[k]), 0.0),  # NaN stays NaN
        tol,
        note=f"lower {lower[k]:.6e} <= mid {mid[k]:.6e} <= upper {upper[k]:.6e}",
    )
