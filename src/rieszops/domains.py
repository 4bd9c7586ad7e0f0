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

from .sequences import SequenceSpec

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

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "partial_sum": self.partial_sum,
            "tail_ratio": self.tail_ratio,
            "n_max": self.n_max,
        }


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


def summability_verdict(weights, coeffs, n_max: int = DEFAULT_N_MAX) -> DomainVerdict:
    """Three-valued verdict on sum |w_n c_n|^2 over n < n_max.

    Dyadic blocks B_j cover [2^j, 2^{j+1}); converged needs the last three
    block ratios below 0.9, diverged needs either the partial sum past 1e12
    or non-decreasing nonzero blocks over the final three.  A tail of
    identically zero blocks is a finite sum, hence converged.
    """
    if n_max < 64:
        raise ValueError(f"n_max must be >= 64, got {n_max}")
    log_terms = weights.log_abs_terms(n_max) + coeffs.log_abs_terms(n_max)
    with np.errstate(over="ignore"):
        terms = np.exp(2.0 * log_terms)
        partial = float(terms.sum())

        blocks = []
        j = 0
        while 2 ** (j + 1) <= n_max:
            blocks.append(float(terms[2**j : 2 ** (j + 1)].sum()))
            j += 1
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


def domain_of(op_kind: str, weights: SequenceSpec):
    """Effective weight sequence of the domain predicate for one operator kind.

        H  -> |alpha_n|          S  -> |beta_n|
        A  -> |gamma_n|          B  -> |gamma_{n+1}|
        BA -> |gamma_n|^2        AB -> |gamma_{n+1}|^2

    The single-weight forms for BA and AB hold for |.|-monotone gamma; for
    non-monotone gamma they are only valid as a conjunction of two
    predicates, and a (quadratic, linear) weight pair is returned instead.
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
        if weights.abs_monotone:
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
