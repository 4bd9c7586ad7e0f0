"""Sequence-level domain diagnostics.

The operators' domains are summability predicates: f belongs to the domain
attached to a weight sequence w iff sum |w_n|^2 |c_n|^2 converges, where c_n
are the coefficients of f against the relevant basis family.  No finite
computation decides convergence, so the verdict here is three-valued
(converged / diverged / inconclusive), driven by dyadic block sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


#: Default evaluation horizon: enough to separate polynomial from geometric
#: behaviour at negligible cost.
DEFAULT_N_MAX = 4096

_RATIO_THRESHOLD = 0.9
_DIVERGENCE_BOUND = 1e12


@dataclass(frozen=True)
class DomainVerdict:
    verdict: str  # 'converged' | 'diverged' | 'inconclusive'
    partial_sum: float
    tail_ratio: float
    n_max: int


def summability_verdict(weights, coeffs, n_max: int = DEFAULT_N_MAX) -> DomainVerdict:
    """Three-valued verdict on sum |w_n c_n|^2 over n < n_max.

    weights and coeffs need only log_abs_terms(count), as a parsed sequence
    spec has.  A spec reads n and log n from the process-wide table, so a
    horizon no longer than one reached before builds neither array (see
    sequences.IndexGrid).  The two logs are added into a
    new array, which is then doubled and exponentiated in place: the verdict
    writes only into arrays it allocates.

    Dyadic blocks B_j cover [2^j, 2^{j+1}); converged needs the last three
    block ratios below 0.9, diverged needs either the partial sum past 1e12
    or non-decreasing nonzero blocks over the final three.  A tail of
    identically zero blocks is a finite sum, hence converged.
    """
    if n_max < 64:
        raise ValueError(f"n_max must be >= 64, got {n_max}")
    top = int(n_max).bit_length() - 1  # blocks B_0 .. B_{top-1}; top >= 6
    with np.errstate(over="ignore"):  # a sum, doubled log or term past the float range is +inf
        terms = np.add(weights.log_abs_terms(n_max), coeffs.log_abs_terms(n_max))
        terms *= 2.0
        np.exp(terms, out=terms)
        partial = float(terms.sum())
        # the final four blocks, the only ones the verdict reads
        blocks = [float(terms[2**j : 2 ** (j + 1)].sum()) for j in range(top - 4, top)]
    last3 = blocks[-3:]
    pairs = list(zip(blocks[-4:-1], blocks[-3:]))  # (B_j, B_{j+1}) final three

    def ratio(prev: float, curr: float) -> float:
        if prev == 0.0:
            return 0.0 if curr == 0.0 else float("inf")
        return curr / prev

    ratios = [ratio(p, q) for p, q in pairs]
    tail_ratio = ratios[-1]

    if all(b == 0.0 for b in last3):
        verdict = "converged"
    elif all(r < _RATIO_THRESHOLD for r in ratios):
        verdict = "converged"
    elif partial > _DIVERGENCE_BOUND or (
        last3[-1] > 0.0 and last3[0] <= last3[1] <= last3[2]
    ):
        verdict = "diverged"
    else:
        verdict = "inconclusive"
    return DomainVerdict(
        verdict=verdict, partial_sum=partial, tail_ratio=tail_ratio, n_max=n_max
    )
