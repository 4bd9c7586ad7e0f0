"""Independent brute-force oracles for the rank-one-sum operators and the
Hermitian eigensolver.

Everything here is written as literal scalar loops over the defining sums,
or as a cyclic Jacobi iteration, deliberately sharing no code path with the
library's constructions (which use BLAS products and LAPACK).
"""

import numpy as np


def literal_rank_one_sum(weights, left_columns, right_columns):
    """sum_n w_n * left_n[i] * conj(right_n[j]) accumulated entry by entry."""
    dim = len(left_columns[0])
    out = [[0j for _ in range(dim)] for _ in range(dim)]
    for n, weight in enumerate(weights):
        left = left_columns[n]
        right = right_columns[n]
        for i in range(dim):
            for j in range(dim):
                out[i][j] += weight * left[i] * complex(right[j]).conjugate()
    return np.array(out, dtype=complex)


def _cols(matrix):
    return [matrix[:, k] for k in range(matrix.shape[1])]


def literal_H(pair, weights, direction):
    phi, psi = _cols(pair.phi), _cols(pair.psi)
    if direction == "phi_psi":
        return literal_rank_one_sum(weights, phi, psi)
    return literal_rank_one_sum(weights, psi, phi)


def literal_S(pair, weights, side):
    cols = _cols(pair.phi if side == "phi" else pair.psi)
    return literal_rank_one_sum(weights, cols, cols)


def literal_lowering(pair, weights, direction):
    """sum_{n>=1} gamma_n (v_{n-1} outer conj(w_n))."""
    v, w = (
        (_cols(pair.phi), _cols(pair.psi))
        if direction == "phi_psi"
        else (_cols(pair.psi), _cols(pair.phi))
    )
    shifted_left = [v[n - 1] for n in range(1, pair.dim)]
    shifted_right = [w[n] for n in range(1, pair.dim)]
    return literal_rank_one_sum(weights[1:], shifted_left, shifted_right)


def literal_raising(pair, weights, direction):
    """sum_{n<=N-2} gamma_{n+1} (v_{n+1} outer conj(w_n))."""
    v, w = (
        (_cols(pair.phi), _cols(pair.psi))
        if direction == "phi_psi"
        else (_cols(pair.psi), _cols(pair.phi))
    )
    shifted_left = [v[n + 1] for n in range(pair.dim - 1)]
    shifted_right = [w[n] for n in range(pair.dim - 1)]
    return literal_rank_one_sum(weights[1:], shifted_left, shifted_right)


def jacobi_eigh(m, target=1e-13, max_sweeps=100):
    """Eigendecomposition of a Hermitian matrix by cyclic complex Jacobi.

    Returns (eigenvalues ascending, eigenvector columns).  Each (p, q)
    rotation is a real Jacobi rotation conjugated by the phase of a[p, q],
    which annihilates that entry exactly.  Sweeps continue until the
    off-diagonal Frobenius norm falls below target * ||m||_F.
    """
    m = np.asarray(m, dtype=complex)
    a = 0.5 * (m + m.conj().T)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    bound = target * np.linalg.norm(a)
    skip = 0.01 * bound / n  # pivots this small contribute nothing

    def off(x):
        return np.linalg.norm(x - np.diag(np.diag(x)))

    sweeps = 0
    while off(a) > bound and sweeps < max_sweeps:
        for p in range(n - 1):
            for q in range(p + 1, n):
                z = a[p, q]
                if abs(z) <= skip:
                    continue
                phase = z / abs(z)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(z))
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + np.hypot(tau, 1.0))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                u = np.array(
                    [[c, s], [-s * phase.conjugate(), c * phase.conjugate()]]
                )
                a[:, [p, q]] = a[:, [p, q]] @ u
                a[[p, q], :] = u.conj().T @ a[[p, q], :]
                a[p, q] = a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                v[:, [p, q]] = v[:, [p, q]] @ u
        sweeps += 1
    if off(a) > bound:
        raise RuntimeError(f"Jacobi oracle did not converge in {max_sweeps} sweeps")
    lam = np.diag(a).real.copy()
    order = np.argsort(lam, kind="stable")
    return lam[order], v[:, order]


def jacobi_metric_roots(generator):
    """(S_phi^{1/2}, S_psi^{1/2}) of S_phi = T T* from the Jacobi oracle."""
    t = np.asarray(generator, dtype=complex)
    lam, u = jacobi_eigh(t @ t.conj().T)
    s = np.sqrt(lam)
    return (u * s) @ u.conj().T, (u / s) @ u.conj().T
