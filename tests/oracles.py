"""Independent brute-force oracles for the rank-one-sum operators, the
Hermitian eigensolver, the spectral projectors of H, the operator norm and
the sequence terms, the conjugate of a sequence from conjugated parameters
(the library conjugates the emitted weights), the ladder identities at
truncation and the 3x3 model's closed forms in exact arithmetic, and the
per-operator domain read-offs.

The oracles are written as literal scalar loops over the defining sums, as
a cyclic Jacobi iteration, as numpy's non-Hermitian eig (which src/ never
calls), as an mpmath SVD at 50 digits, as sympy sums over symbolic
weights, or term by term, deliberately sharing no code path with the
library's constructions (which use BLAS products, LAPACK and array
evaluation).  The domain read-offs map an operator kind to the weight
sequence of its domain predicate; the library judges one weight/coefficient
pair at a time (summability_verdict), and these name which pair belongs to
which operator.  The literal verdict restates summability_verdict's
defining formula with fresh arrays and every dyadic block, so the
library's in-place, last-blocks-only evaluation can be held to it bit for
bit.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from rieszops.domains import DEFAULT_N_MAX
from rieszops.sequences import SequenceSpec


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


def symbolic_ladder_identities(dim=4):
    """The three ladder identities at truncation, in exact arithmetic, for
    T = I + cJ with c = 1/2 + i/3 (J the superdiagonal shift):

        BA - H^{(0, gamma_1^2, ..., gamma_{dim-1}^2)},
        AB - H^{(gamma_1^2, ..., gamma_{dim-1}^2, 0)},
        BA - (H^a - a_0 I) for the ladder gamma_n = sqrt(a_n - a_0),

    with A, B and H built as literal rank-one sums over the columns phi_n of
    T and psi_n of (T^{-1})*, and gamma_n, a_n symbols.  Returns the three
    differences, each entry expanded: an identity holds when its difference
    is the zero matrix.
    """
    import sympy as sp

    c = sp.Rational(1, 2) + sp.I / 3
    t = sp.eye(dim) + c * sp.Matrix(dim, dim, lambda i, j: int(j == i + 1))
    phi = [t[:, n] for n in range(dim)]
    psi = [t.inv().H[:, n] for n in range(dim)]

    def rank_one_sum(terms):
        """sum of w (left outer conj(right)) over (w, left, right)."""
        out = sp.zeros(dim, dim)
        for weight, left, right in terms:
            out += weight * left * right.H
        return out

    def ladder(g):
        lower = rank_one_sum((g[n], phi[n - 1], psi[n]) for n in range(1, dim))
        upper = rank_one_sum((g[n + 1], phi[n + 1], psi[n]) for n in range(dim - 1))
        return lower, upper

    def weighted_h(w):
        return rank_one_sum((w[n], phi[n], psi[n]) for n in range(dim))

    gamma = sp.symbols(f"gamma_0:{dim}")
    squares = [g**2 for g in gamma[1:]]
    a_op, b_op = ladder(gamma)
    a = sp.symbols(f"a_0:{dim}")
    a_root, b_root = ladder([sp.sqrt(a_n - a[0]) for a_n in a])
    diffs = (
        b_op * a_op - weighted_h([0, *squares]),
        a_op * b_op - weighted_h([*squares, 0]),
        b_root * a_root - (weighted_h(a) - a[0] * sp.eye(dim)),
    )
    return [diff.applyfunc(sp.expand) for diff in diffs]


def symbolic_three_level():
    """The 3x3 model derived in exact arithmetic from its phi_n rows and
    eps(t) = (0, 2cos t - 1, 2cos t + 1) alone, in s = sin(t/2) and
    c = cos(t/2), each entry reduced modulo c^2 + s^2 = 1:

        T with columns phi_n, S_phi = T T*, psi_n the columns of (T^{-1})*,
        H = T diag(eps) T^{-1}, the printed root R of S_phi, S_psi = S_phi^{-1},
        S_psi^{1/2} = R^{-1}, h = R^{-1} H R, Phi = R^{-1} T,
        ||T||^2 and ||T^{-1}||^2 from the extreme eigenvalues of S_phi,

    and the ladder A = sum_{n>=1} g_n phi_{n-1} psi_n*, B = sum_{n<=1}
    g_{n+1} phi_{n+1} psi_n* as literal shift sums in symbols g_1, g_2
    (g_0 drops out), to be evaluated at g_n = sqrt(eps_n).  Returns a dict
    of sympy matrices and numbers, and the symbols (s, c, g_1, g_2).
    """
    import sympy as sp

    s, c, g1, g2 = sp.symbols("s c g_1 g_2", real=True)

    def reduce(m):
        return m.applyfunc(lambda e: sp.reduced(sp.expand(e), [c**2 + s**2 - 1], c, s)[1])

    phi = [sp.Matrix([1, 0, 1]), sp.Matrix([s, -2 * c, 6 * s]), sp.Matrix([c, 2 * s, 6 * c])]
    t = sp.Matrix.hstack(*phi)
    cos_t = c**2 - s**2
    eps = [0, 2 * cos_t - 1, 2 * cos_t + 1]
    det = reduce(sp.Matrix([t.det()]))[0]
    t_inv = reduce(t.adjugate() / det)
    s_phi = reduce(t * t.T)
    root = sp.Matrix([[1, 0, 1], [0, 2, 0], [1, 0, 6]])  # the printed S_phi^{1/2}
    root_inv = root.inv()
    h_op = reduce(t * sp.diag(*eps) * t_inv)
    psi = t_inv.T
    ladder_a = sum(
        (g * phi[n - 1] * psi[:, n].T for n, g in ((1, g1), (2, g2))), sp.zeros(3, 3)
    )
    ladder_b = sum(
        (g * phi[n + 1] * psi[:, n].T for n, g in ((0, g1), (1, g2))), sp.zeros(3, 3)
    )
    lams = sorted(s_phi.eigenvals(), key=lambda lam: float(lam))
    return {
        "det_T": det,
        "S_phi": s_phi,
        "S_psi": s_phi.inv(),
        "psi": psi,
        "H": h_op,
        "S_phi_sqrt": root,
        "S_psi_sqrt": root_inv,
        "h": reduce(root_inv * h_op * root),
        "Phi": reduce(root_inv * t),
        "norm_T_squared": lams[-1],
        "norm_T_inv_squared": 1 / lams[0],
        "A": reduce(ladder_a),
        "B": reduce(ladder_b),
    }, (s, c, g1, g2)


def symbolic_projection(u, alpha):
    """The projection model derived in exact arithmetic from the coefficients
    u of a unit vector and the weights alpha (sympy numbers, one per
    coordinate):

        T = I + i u u*, T^{-1} by exact inversion, phi_n = T e_n,
        psi_n = (T^{-1})* e_n, H = sum_n alpha_n phi_n psi_n*,

    the last as a literal rank-one sum.  Returns (T^{-1}, phi, psi, H) as
    sympy matrices, phi and psi as columns.
    """
    import sympy as sp

    u = sp.Matrix(u)
    dim = len(u)
    t = sp.eye(dim) + sp.I * u * u.H
    t_inv = t.inv()
    psi = t_inv.H
    h = sp.zeros(dim, dim)
    for n in range(dim):
        h += alpha[n] * t[:, n] * psi[:, n].H
    return t_inv, t, psi, h


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


def spectral_projectors(h):
    """(eigenvalues, projectors) of a matrix with simple spectrum, from H
    alone: numpy's non-Hermitian eig, sorted by real part, the eigenvectors
    phi_n as columns of V and psi_n* as the rows of V^{-1}, so that the n-th
    projector P_n = phi_n psi_n* does not depend on how eig scaled phi_n."""
    lam, v = np.linalg.eig(np.asarray(h, dtype=complex))
    order = np.argsort(lam.real, kind="stable")
    v = v[:, order]
    w = np.linalg.inv(v)
    return lam[order], np.array([np.outer(v[:, n], w[n]) for n in range(len(lam))])


def mp_operator_norm(m, dps=50) -> float:
    """Largest singular value of the float matrix m, by mpmath's complex SVD
    of its exact entries at dps digits, rounded once to a float."""
    import mpmath

    with mpmath.workdps(dps):
        exact = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in m])
        return float(max(mpmath.svd_c(exact, compute_uv=False)))


def mp_log_abs_affine(slope: complex, offset: complex, indices, dps=50) -> list[float]:
    """log |a n + b| at each index n, from the exact float a and b at dps
    digits, each rounded once to a float."""
    import mpmath

    with mpmath.workdps(dps):
        a, b = mpmath.mpc(slope), mpmath.mpc(offset)
        return [float(mpmath.log(abs(a * int(n) + b))) for n in indices]


def shift_generator(c: float, n: int) -> np.ndarray:
    """T = I + cJ on C^n, J the superdiagonal shift: phi_k = e_k + c e_{k-1}.
    Its frame lower bound falls like c^-n for c > 1 (||T^{-1}|| grows)."""
    return np.eye(n, dtype=complex) + c * np.eye(n, k=1)


def mp_shift_frame_lower(c: float, n: int, dps=60) -> float:
    """sigma_min of shift_generator(c, n), as the square root of the smallest
    eigenvalue of T^T T, by Sturm-count bisection at dps digits.

    T^T T is real symmetric tridiagonal: diagonal 1, 1 + c^2, ..., 1 + c^2
    and off-diagonal c.  The number of negative pivots of the LDL^T
    factorization of T^T T - x is the number of eigenvalues below x.  The
    bracket starts at [0, 1] (T^T T is positive definite and its (0, 0)
    entry is 1) and is halved until it is 10^(10 - dps) of its upper end.
    """
    import mpmath

    with mpmath.workdps(dps):
        c = mpmath.mpf(c)
        diag = [mpmath.mpf(1)] + [1 + c * c] * (n - 1)
        tiny = mpmath.mpf(10) ** (-2 * dps)

        def below(x):
            count, pivot = 0, diag[0] - x
            for a in diag[1:] + [None]:
                if pivot < 0:
                    count += 1
                if a is None:
                    return count
                pivot = a - x - c * c / (pivot if pivot != 0 else tiny)

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while hi - lo > mpmath.mpf(10) ** (10 - dps) * hi:
            mid = (lo + hi) / 2
            if below(mid):
                hi = mid
            else:
                lo = mid
        return float(mpmath.sqrt((lo + hi) / 2))


def sequence_term(spec: SequenceSpec, n: int) -> complex:
    """The n-th term of a SequenceSpec, computed as a Python scalar."""
    if n < 0:
        raise ValueError("sequence index must be >= 0")
    if spec.kind == "list":
        if n >= len(spec.values):
            raise ValueError(
                f"sequence '{spec.label}' has length {len(spec.values)}, index {n} requested"
            )
        return complex(spec.values[n])
    if spec.kind == "poly":
        if n == 0:
            base = 1.0 if spec.power == 0.0 else 0.0
        else:
            base = float(n) ** spec.power
        return complex(base)
    if spec.kind == "geometric":
        return complex(spec.ratio**n)
    if spec.kind == "affine":
        return complex(spec.slope * n + spec.offset)
    raise ValueError(f"unknown sequence kind '{spec.kind}'")


def conjugate(spec: SequenceSpec) -> SequenceSpec:
    """Spec emitting the complex conjugate of every term of spec, from its
    conjugated parameters."""
    return replace(
        spec,
        values=tuple(complex(v).conjugate() for v in spec.values),
        ratio=complex(spec.ratio).conjugate(),
        slope=complex(spec.slope).conjugate(),
        offset=complex(spec.offset).conjugate(),
        name=f"conj({spec.label})" if spec.label else "",
    )


@dataclass(frozen=True)
class DomainWeights:
    """Effective (nonnegative) weight sequence of a domain predicate,
    derived from a base sequence by an index shift and a power of |.|."""

    base: SequenceSpec
    shift: int = 0
    power: int = 1
    label: str = ""

    def log_abs_terms(self, count: int) -> np.ndarray:
        shifted = self.base.log_abs_terms(count + self.shift)[self.shift :]
        return self.power * shifted

    def terms(self, count: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_abs_terms(count))


def domain_of(op_kind: str, weights: SequenceSpec, count: int = 64):
    """Effective weight sequence of the domain predicate for one operator kind.

        H  -> |alpha_n|          S  -> |beta_n|
        A  -> |gamma_n|          B  -> |gamma_{n+1}|
        BA -> |gamma_n|^2        AB -> |gamma_{n+1}|^2

    The single-weight forms for BA and AB hold for |.|-monotone gamma, read
    from its first count terms; for non-monotone gamma they are only valid
    as a conjunction of two predicates, and a (quadratic, linear) weight
    pair is returned instead.
    """
    kind = op_kind.upper()
    if kind in ("H", "S"):
        return DomainWeights(weights, 0, 1, label=f"|{kind.lower()}_n|")
    if kind == "A":
        return DomainWeights(weights, 0, 1, label="|gamma_n|")
    if kind == "B":
        return DomainWeights(weights, 1, 1, label="|gamma_{n+1}|")
    if kind in ("BA", "AB"):
        shift = 0 if kind == "BA" else 1
        tag = "gamma_n" if kind == "BA" else "gamma_{n+1}"
        log_mags = weights.log_abs_terms(count)
        if np.all(log_mags[1:] >= log_mags[:-1]):
            return DomainWeights(weights, shift, 2, label=f"|{tag}|^2")
        return (
            DomainWeights(weights, shift, 2, label=f"|{tag}|^2"),
            DomainWeights(weights, shift, 1, label=f"|{tag}|"),
        )
    raise ValueError(f"unknown operator kind '{op_kind}'")


def domain_inclusion(wa, wb, n_max: int = DEFAULT_N_MAX) -> bool:
    """Termwise-domination test for D(wa) being contained in D(wb).

    The inclusion holds if |wb_n| <= C |wa_n| for a constant C; C is
    estimated on the first half of the range and must cover the tail with
    1% slack.  True means established; False means not established (never a
    proof of non-inclusion).
    """
    log_a = wa.log_abs_terms(n_max)
    log_b = wb.log_abs_terms(n_max)
    with np.errstate(invalid="ignore"):
        log_ratio = log_b - log_a
    # 0/0 positions impose no constraint on C
    log_ratio[np.isnan(log_ratio)] = -np.inf
    if np.any(np.isposinf(log_ratio)):
        return False  # wb nonzero where wa vanishes: no constant covers it
    head = float(log_ratio[: n_max // 2].max())
    tail = float(log_ratio.max())
    return tail <= head + np.log(1.01)


def literal_summability_verdict(weights, coeffs, n_max: int = DEFAULT_N_MAX):
    """(verdict, partial_sum, tail_ratio) by the defining formula: the terms
    exp(2 (log|w_n| + log|c_n|)) as a fresh array, their numpy sum, and
    every dyadic block B_j = sum over [2^j, 2^{j+1}) with 2^{j+1} <= n_max,
    read off by the rules summability_verdict documents."""
    log_terms = weights.log_abs_terms(n_max) + coeffs.log_abs_terms(n_max)
    with np.errstate(over="ignore"):
        terms = np.exp(2.0 * log_terms)
        partial = float(terms.sum())
        blocks = []
        j = 0
        while 2 ** (j + 1) <= n_max:
            blocks.append(float(terms[2**j : 2 ** (j + 1)].sum()))
            j += 1
    ratios = []
    for prev, curr in zip(blocks[-4:-1], blocks[-3:]):
        if prev == 0.0:
            ratios.append(0.0 if curr == 0.0 else math.inf)
        else:
            ratios.append(curr / prev)
    last3 = blocks[-3:]
    if all(b == 0.0 for b in last3) or all(r < 0.9 for r in ratios):
        verdict = "converged"
    elif partial > 1e12 or (last3[-1] > 0.0 and last3[0] <= last3[1] <= last3[2]):
        verdict = "diverged"
    else:
        verdict = "inconclusive"
    return verdict, partial, ratios[-1]
