"""Dense complex linear algebra kernel.

Everything downstream (basis pairs, weighted frame operators, metric square
roots, ladder operators) reduces to four primitives on small dense complex
matrices: a Hermitian eigendecomposition, the principal PSD square root,
inversion, and the operator (spectral) norm.

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

#: Default tolerance for all residual checks (double precision, dim <= 64).
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


def as_columns(f) -> np.ndarray:
    """A complex vector (dim,) as a one-column block (dim, 1); a block
    (dim, k) of vectors unchanged."""
    f = np.asarray(f, dtype=complex)
    return f[:, None] if f.ndim == 1 else f


def require_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():  # complex entries: both parts finite
        raise LinalgError("matrix contains non-finite entries")


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def inner(f: np.ndarray, g: np.ndarray) -> complex:
    """Ambient inner product <f, g>, linear in the first argument."""
    return complex(np.vdot(g, f))


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def worst_column_norm(m: np.ndarray) -> float:
    """Largest Euclidean column norm of m, 0 without columns; NaN propagates."""
    return float(np.linalg.norm(m, axis=0).max(initial=0.0))


def max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max())


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

    def reconstruct(self) -> np.ndarray:
        return self.with_eigenvalues(self.eigenvalues)


def hermitian_eig(m: np.ndarray, tol: float = DEFAULT_TOL) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy.linalg.eigh).

    The input must be Hermitian up to tol*||m|| and is symmetrized to
    (m + m*)/2 before it is decomposed; larger asymmetry is an error rather
    than a silent repair, since it indicates a construction bug upstream.
    """
    m = as_matrix(m)
    scale = frobenius(m)
    asym = frobenius(m - adjoint(m))
    if asym > tol * max(scale, 1.0):
        raise LinalgError(
            f"input is not Hermitian: ||M - M*|| = {asym:.3e} "
            f"exceeds {tol:.1e} * ||M||"
        )
    try:
        lam, u = np.linalg.eigh(0.5 * (m + adjoint(m)))
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"eigensolver did not converge: {exc}") from None
    return HermitianEigen(lam, u)


def sqrt_psd(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a Hermitian positive-semidefinite matrix.

    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol is
    rejected as genuinely indefinite.
    """
    eig = hermitian_eig(m, tol)
    lam = eig.eigenvalues
    if lam[0] < -tol:
        raise LinalgError(
            f"matrix is not positive semidefinite: smallest eigenvalue {lam[0]:.6e}"
        )
    root = eig.with_eigenvalues(np.sqrt(np.clip(lam, 0.0, None)))
    require_finite(root)
    return root


def singular_extremes(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """(smallest, largest) singular values via the Hermitian spectrum of M*M."""
    m = as_matrix(m)
    gram = adjoint(m) @ m
    lam = hermitian_eig(gram, tol).eigenvalues
    return float(np.sqrt(max(lam[0], 0.0))), float(np.sqrt(max(lam[-1], 0.0)))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value of m."""
    return singular_extremes(m)[1]


def inverse(
    m: np.ndarray,
    tol: float = DEFAULT_TOL,
    extremes: tuple[float, float] | None = None,
) -> np.ndarray:
    """Matrix inverse by an LU solve against the identity (numpy.linalg.solve).

    The smallest singular value must exceed tol; numerically singular input
    is rejected with the measured estimate.  extremes, the (smallest,
    largest) singular values of m, skips their eigensolve when the caller
    already holds them.  The residual ||m X - I|| must stay within
    tol * cond(m).
    """
    m = as_matrix(m)
    smin, smax = singular_extremes(m, tol) if extremes is None else extremes
    if smin <= tol:
        raise LinalgError(
            f"matrix is numerically singular: sigma_min = {smin:.6e} <= tol = {tol:.1e}"
        )
    eye = np.eye(m.shape[0], dtype=complex)
    try:
        inv = np.linalg.solve(m, eye)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"matrix is numerically singular: {exc}") from None
    require_finite(inv)
    residual = frobenius(m @ inv - eye)
    cond = smax / smin
    if residual > tol * max(cond, 1.0):
        raise LinalgError(
            f"inverse residual {residual:.3e} exceeds tol * cond = {tol * cond:.3e}"
        )
    return inv
