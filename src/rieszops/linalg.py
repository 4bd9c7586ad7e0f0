"""Dense complex linear algebra kernel.

Everything downstream (basis pairs, weighted frame operators, metric square
roots, ladder operators) reduces to two LAPACK factorizations of small dense
complex matrices, through numpy.linalg: svd and solve.  A generator's SVD
T = U diag(s) V* gives the frame bounds and, through U and s, the metric
square roots; the singular values alone give the operator (spectral) norm;
basis.from_generator takes the one LU solve, T^{-1} for psi.  This module
adds the preconditions (square, finite), the guards and the residual norms.

Every function takes a stack (..., d, d) of matrices: the leading axes are a
batch of independent points, and a single matrix is the batch of shape ().
Each slice of a stacked result is bit-identical to the same call on that
slice alone, and a guard that fails raises the message of its first failing
point in batch order.

No eigensolver is used on purpose: the eigenvalues of T T* would square
cond(T) in the frame bounds, and spectra of the non-normal operators built
elsewhere are always verified against known eigenvectors.
"""

from __future__ import annotations

import functools

import numpy as np

#: Default check tolerance (double precision, dim <= 64); fixed for every guard.
DEFAULT_TOL = 1e-10


class LinalgError(ValueError):
    """Raised when a kernel precondition fails (non-finite entries,
    singularity, an inverse residual) or the SVD does not converge."""


def as_matrix(values) -> np.ndarray:
    """Coerce to a complex128 stack (..., d, d) of square matrices with d >= 1
    and finite entries."""
    m = np.asarray(values, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise LinalgError(f"expected a square matrix, got shape {m.shape}")
    require_finite(m)
    return m


def require_finite(arr: np.ndarray) -> None:
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):  # complex: both parts
        raise LinalgError("matrix contains non-finite entries")


def guard(failed, message: str, *values, error=LinalgError) -> None:
    """Raise error(message.format(*values at the point)) at the first point
    where failed holds; values are arrays shaped like the batch."""
    if np.count_nonzero(failed):
        first = np.flatnonzero(failed)[0]
        raise error(message.format(*(np.ravel(v)[first].item() for v in values)))


@functools.cache
def identity(dim: int) -> np.ndarray:
    """The complex dim x dim identity, read-only and built once per dim: each
    residual against I, and each I + X, reads it.  A real identity would
    give the same bits: numpy casts it to complex before the operation."""
    eye = np.eye(dim, dtype=complex)
    eye.flags.writeable = False
    return eye


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
    return np.maximum.reduce(np.abs(m), axis=(-2, -1))


def column_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of each matrix: numpy.linalg.norm(m,
    axis=-2)'s own sum, bit for bit, without its dispatch."""
    return np.sqrt(np.add.reduce((m.conj() * m).real, axis=-2))


def worst_column_norm(m: np.ndarray) -> np.ndarray:
    """Largest Euclidean column norm of each matrix (numpy.linalg.norm's, bit
    for bit), 0 without columns; NaN propagates."""
    return np.maximum.reduce(column_norms(m), axis=-1, initial=0.0)


def svd(m: np.ndarray, compute_uv: bool = True):
    """numpy.linalg.svd of each matrix of a stack that as_matrix has
    validated: (U, s, V*), or s alone, with s descending.  LAPACK
    non-convergence is a LinalgError."""
    try:
        return np.linalg.svd(m, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"SVD did not converge: {exc}") from None


def operator_norm(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix."""
    return svd(as_matrix(m), compute_uv=False)[..., 0]
