"""Dense complex linear algebra kernel.

Everything downstream (basis pairs, weighted frame operators, metric square
roots, ladder operators) reduces to three primitives on small dense complex
matrices: a Hermitian eigendecomposition, inversion, and the operator
(spectral) norm.  The metric square roots are matrix functions of the one
eigendecomposition each basis pair holds (HermitianEigen.with_eigenvalues).

Every function takes a stack (..., d, d) of matrices: the leading axes are a
batch of independent points, and a single matrix is the batch of shape ().
Each slice of a stacked result is bit-identical to the same call on that
slice alone, and a guard that fails raises the message of its first failing
point in batch order.

The factorizations are LAPACK's, through numpy.linalg: eigh for Hermitian
matrices, eigvalsh where the eigenvalues alone are read (the operator norm),
solve for inverses; this module adds the preconditions (finiteness,
Hermitian input, singularity) and the residual checks.  No general
non-Hermitian eigensolver is used on purpose: spectra of the non-normal
operators built elsewhere are always verified against known eigenvectors.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

#: Default check tolerance (double precision, dim <= 64); fixed for every guard.
DEFAULT_TOL = 1e-10


class LinalgError(ValueError):
    """Raised when a kernel precondition fails (asymmetry, singularity,
    indefiniteness) or the eigensolver does not converge."""


def as_matrix(values) -> np.ndarray:
    """Coerce to a complex128 stack (..., d, d) of square matrices with d >= 1
    and finite entries."""
    m = np.asarray(values, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise LinalgError(f"expected a square matrix, got shape {m.shape}")
    require_finite(m)
    return m


def require_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():  # complex entries: both parts finite
        raise LinalgError("matrix contains non-finite entries")


def guard(failed, message: str, *values, error=LinalgError) -> None:
    """Raise error(message.format(*values at the point)) at the first point
    where failed holds; values are arrays shaped like the batch."""
    if np.count_nonzero(failed):
        first = np.flatnonzero(failed)[0]
        raise error(message.format(*(np.ravel(v)[first].item() for v in values)))


def take(batch, where):
    """The points of a batched record where the boolean array `where` holds:
    arrays (batch axes leading) and nested records and tuples are indexed,
    anything else (a dim) is kept.  Where every point holds, the batch itself."""
    if np.count_nonzero(where) == where.size:
        return batch
    if isinstance(batch, np.ndarray):
        return batch[where]
    if isinstance(batch, tuple):
        return tuple(take(item, where) for item in batch)
    if dataclasses.is_dataclass(batch):
        fields = {f.name: take(getattr(batch, f.name), where) for f in dataclasses.fields(batch)}
        return dataclasses.replace(batch, **fields)
    return batch


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().mT


def frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (a column: its vector norm),
    bit for bit numpy.linalg.norm of the slice, whose complex branch is this
    sum of two real dot products; norm(..., axis=(-2, -1)) differs by up to
    2 ulp."""
    f = m.reshape(m.shape[:-2] + (-1,))
    re, im = f.real, f.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def max_entry(m: np.ndarray) -> np.ndarray:
    """Largest entry modulus of each matrix of a stack; NaN propagates."""
    return np.abs(m).max(axis=(-2, -1))


def worst_column_norm(m: np.ndarray) -> np.ndarray:
    """Largest Euclidean column norm of each matrix, 0 without columns; NaN
    propagates."""
    return np.linalg.norm(m, axis=-2).max(axis=-1, initial=0.0)


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
        to values[..., k].  Real values give a Hermitian result, symmetrized
        here so that it is Hermitian to the last bit."""
        u = self.eigenvectors
        out = (u * values[..., None, :]) @ adjoint(u)
        return 0.5 * (out + adjoint(out))


def _hermitian_solve(solve, m: np.ndarray):
    """solve (numpy.linalg.eigh or eigvalsh) on each matrix of a stack, which
    must be Hermitian up to DEFAULT_TOL*||m|| and is symmetrized: larger
    asymmetry means a construction bug upstream, an error, not a repair."""
    m = as_matrix(m)
    scale = frobenius(m)
    asym = frobenius(m - adjoint(m))
    guard(
        asym > DEFAULT_TOL * np.maximum(scale, 1.0),
        f"input is not Hermitian: ||M - M*|| = {{:.3e}} exceeds {DEFAULT_TOL:.1e} * ||M||",
        asym,
    )
    try:
        return solve(0.5 * (m + adjoint(m)))
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"eigensolver did not converge: {exc}") from None


def hermitian_eig(m: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of each Hermitian matrix of a stack (eigh)."""
    return HermitianEigen(*_hermitian_solve(np.linalg.eigh, m))


def singular_extremes(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(smallest, largest) singular values from the eigenvalues of M*M."""
    m = as_matrix(m)
    lam = _hermitian_solve(np.linalg.eigvalsh, adjoint(m) @ m)
    return np.sqrt(np.maximum(lam[..., 0], 0.0)), np.sqrt(np.maximum(lam[..., -1], 0.0))


def operator_norm(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix."""
    return singular_extremes(m)[1]


def inverse(m: np.ndarray, extremes: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Inverse of each matrix by an LU solve against the identity
    (numpy.linalg.solve).

    extremes are the (smallest, largest) singular values of m, which the
    caller already holds.  The smallest must exceed DEFAULT_TOL times the
    largest; numerically singular input is rejected with the measured
    estimates.  The residual ||m X - I|| must stay within DEFAULT_TOL *
    cond(m).
    """
    m = as_matrix(m)
    smin, smax = extremes
    guard(
        smin <= DEFAULT_TOL * smax,
        f"matrix is numerically singular: sigma_min = {{:.6e}} <= {DEFAULT_TOL:.1e} "
        "* sigma_max = {:.6e}",
        smin,
        smax,
    )
    eye = np.eye(m.shape[-1], dtype=complex)
    try:
        inv = np.linalg.solve(m, eye)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"matrix is numerically singular: {exc}") from None
    require_finite(inv)
    residual = frobenius(m @ inv - eye)
    bound = DEFAULT_TOL * np.maximum(smax / smin, 1.0)
    guard(
        residual > bound,
        "inverse residual {:.3e} exceeds DEFAULT_TOL * cond = {:.3e}",
        residual,
        bound,
    )
    return inv
