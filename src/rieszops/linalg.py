"""Dense complex linear algebra kernel.

Everything downstream (basis pairs, weighted frame operators, metric square
roots, ladder operators) reduces to three primitives on small dense complex
matrices: a Hermitian eigendecomposition, inversion, and the operator
(spectral) norm.  The metric square roots are matrix functions of the one
eigendecomposition each basis pair holds (HermitianEigen.with_eigenvalues).

The factorizations are LAPACK's, through numpy.linalg: eigh for Hermitian
eigendecompositions and solve for inverses; this module adds the
preconditions (finiteness, Hermitian input, singularity) and the residual
checks.  No general non-Hermitian eigensolver is used on purpose: spectra of
the non-normal operators built elsewhere are always verified constructively
against known eigenvectors, never recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default check tolerance (double precision, dim <= 64); fixed for every guard.
DEFAULT_TOL = 1e-10


class LinalgError(ValueError):
    """Raised when a kernel precondition fails (asymmetry, singularity,
    indefiniteness) or the eigensolver does not converge."""


def as_matrix(values) -> np.ndarray:
    """Coerce to a square complex128 matrix with dim >= 1 and finite entries."""
    m = np.asarray(values, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise LinalgError(f"expected a square matrix, got shape {m.shape}")
    require_finite(m)
    return m


def require_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():  # complex entries: both parts finite
        raise LinalgError("matrix contains non-finite entries")


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def worst_column_norm(m: np.ndarray) -> float:
    """Largest Euclidean column norm of m, 0 without columns; NaN propagates."""
    return float(np.linalg.norm(m, axis=0).max(initial=0.0))


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition M = U diag(w) U* of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvector columns of U are
    orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def with_eigenvalues(self, values: np.ndarray) -> np.ndarray:
        """U diag(values) U*: the matrix function sending the k-th eigenvalue
        to values[k].  Real values give a Hermitian result, symmetrized here
        so that it is Hermitian to the last bit."""
        u = self.eigenvectors
        out = (u * values) @ adjoint(u)
        return 0.5 * (out + adjoint(out))


def hermitian_eig(m: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy.linalg.eigh).

    The input must be Hermitian up to DEFAULT_TOL*||m|| and is symmetrized;
    larger asymmetry is an error rather than a silent repair, since it
    indicates a construction bug upstream.
    """
    m = as_matrix(m)
    scale = frobenius(m)
    asym = frobenius(m - adjoint(m))
    if asym > DEFAULT_TOL * max(scale, 1.0):
        raise LinalgError(
            f"input is not Hermitian: ||M - M*|| = {asym:.3e} "
            f"exceeds {DEFAULT_TOL:.1e} * ||M||"
        )
    try:
        lam, u = np.linalg.eigh(0.5 * (m + adjoint(m)))
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"eigensolver did not converge: {exc}") from None
    return HermitianEigen(lam, u)


def singular_extremes(m: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) singular values via the Hermitian spectrum of M*M."""
    m = as_matrix(m)
    gram = adjoint(m) @ m
    lam = hermitian_eig(gram).eigenvalues
    return float(np.sqrt(max(lam[0], 0.0))), float(np.sqrt(max(lam[-1], 0.0)))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value of m."""
    return singular_extremes(m)[1]


def inverse(m: np.ndarray, extremes: tuple[float, float]) -> np.ndarray:
    """Matrix inverse by an LU solve against the identity (numpy.linalg.solve).

    extremes are the (smallest, largest) singular values of m, which the
    caller already holds.  The smallest must exceed DEFAULT_TOL;
    numerically singular input is rejected with the measured estimate.  The
    residual ||m X - I|| must stay within DEFAULT_TOL * cond(m).
    """
    m = as_matrix(m)
    smin, smax = extremes
    if smin <= DEFAULT_TOL:
        raise LinalgError(
            f"matrix is numerically singular: sigma_min = {smin:.6e} <= {DEFAULT_TOL:.1e}"
        )
    eye = np.eye(m.shape[0], dtype=complex)
    try:
        inv = np.linalg.solve(m, eye)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"matrix is numerically singular: {exc}") from None
    require_finite(inv)
    residual = frobenius(m @ inv - eye)
    bound = DEFAULT_TOL * max(smax / smin, 1.0)
    if residual > bound:
        raise LinalgError(
            f"inverse residual {residual:.3e} exceeds DEFAULT_TOL * cond = {bound:.3e}"
        )
    return inv
