"""Weight sequences (alpha, beta, gamma) as closed forms or explicit lists.

A SequenceSpec emits complex terms s_0, s_1, ...; the suites turn it into
a (dim,) weight array once, and the operator code reads realness and
|.|-monotonicity from that array.

Closed-form kinds and their CLI spellings:

    poly:p        n^p, with the n = 0 term defined as 1 for p = 0 and 0 otherwise
    sqrt-poly:p   sqrt(n^p), i.e. poly with exponent p/2
    geometric:r   r^n
    affine:a,b    a*n + b
    harmonic      1/n for n >= 1, first term 0
    list:v0,v1,…  explicit terms (complex literals accepted)
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SequenceSpec:
    kind: str  # 'list' | 'poly' | 'geometric' | 'affine'
    values: tuple = ()
    power: float = 0.0
    ratio: complex = 1.0
    slope: complex = 0.0
    offset: complex = 0.0
    name: str = field(default="", compare=False)  # the given label

    @property
    def label(self) -> str:
        """The given label, or for a list without one its values, formatted on read."""
        if self.name or self.kind != "list":
            return self.name
        return "list:" + ",".join(_format_number(v) for v in self.values)

    def terms(self, count: int) -> np.ndarray:
        """First `count` terms as a complex array; a closed form that overflows
        is a ValueError naming the spec and its first non-finite index."""
        return self._finite_terms(IndexGrid(count)).astype(complex, copy=False)

    def _finite_terms(self, grid: IndexGrid) -> np.ndarray:
        """The checked terms n < grid.count, real where the closed form is real."""
        if self.kind == "list" and grid.count > len(self.values):
            raise ValueError(
                f"sequence '{self.label}' emits only {len(self.values)} terms, "
                f"{grid.count} requested"
            )
        with np.errstate(all="ignore"):
            out = self._evaluate(grid)
        if not np.isfinite(out).all():
            bad = np.flatnonzero(~np.isfinite(out))
            raise ValueError(f"sequence '{self.label or self.kind}' term {bad[0]} is not finite")
        return out

    def _evaluate(self, grid: IndexGrid) -> np.ndarray:
        if self.kind == "list":
            return np.array(self.values[: grid.count], dtype=complex)
        n = grid.n
        if self.kind == "poly":
            base = np.zeros(grid.count)
            base[1:] = n[1:] ** self.power  # 0 is never raised to the power
            if grid.count and self.power == 0.0:
                base[0] = 1.0
            return base
        if self.kind == "geometric":
            return complex(self.ratio) ** n
        if self.kind == "affine":
            a, b = self._affine_coefficients()
            return a * n + b
        raise ValueError(f"unknown sequence kind '{self.kind}'")

    def _affine_coefficients(self) -> tuple:
        """(a, b) of an affine spec, as floats when both are real: the same
        bits, half the work."""
        if self.slope.imag or self.offset.imag:
            return self.slope, self.offset
        return self.slope.real, self.offset.real

    def _log_abs_affine(self, grid: IndexGrid) -> np.ndarray:
        """log |a n + b|, and where |a n + b| overflows, log |a| + log |n + b/a|;
        a term whose log is still not finite is a ValueError, as in terms()."""
        a, b = self._affine_coefficients()
        with np.errstate(all="ignore"):
            out = np.abs(a * grid.n + b)
            bad = None if np.isfinite(out).all() else np.flatnonzero(~np.isfinite(out))
            np.log(out, out=out)
            if bad is not None and a:
                out[bad] = np.log(abs(a)) + np.log(np.abs(grid.n[bad] + b / a))
        if bad is not None and not np.isfinite(out[bad]).all():
            first = bad[~np.isfinite(out[bad])][0]
            raise ValueError(f"sequence '{self.label or self.kind}' term {first} is not finite")
        return out

    def log_abs_terms(self, count: int) -> np.ndarray:
        """log |s_n| for n < count as a fresh array, -inf marking exact zeros.

        Closed forms that grow are evaluated in log space, so they stay
        usable at the large horizons the domain diagnostics need (|r|^n
        overflows floats long before its product with a decaying coefficient
        does); lists are logged as emitted, and affine terms too, except
        where |a n + b| overflows (see _log_abs_affine).  A log that is
        +inf (p log n past the float range, or |s_n| of a finite complex
        term) is a ValueError, as in terms().  n and log n are the
        IndexGrid(count) views of the shared table.
        """
        grid = IndexGrid(count)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if self.kind == "poly":
                out = self.power * grid.log_n
                out[:1] = 0.0 if self.power == 0.0 else -np.inf  # n^0 := 1 at n = 0
            elif self.kind == "geometric":
                try:
                    log_r = np.log(abs(self.ratio))
                except OverflowError:  # |r| past the float range
                    log_r = np.inf
                out = log_r * grid.n
                out[:1] = 0.0  # r^0 = 1, also for r = 0
            elif self.kind == "affine":
                out = self._log_abs_affine(grid)
            else:
                out = np.abs(self._finite_terms(grid))
                np.log(out, out=out)
        # a poly or geometric log that is +inf anywhere is +inf at the last n;
        # an affine log never is (see _log_abs_affine)
        if grid.count and (out[-1] == np.inf or self.kind == "list" and np.isposinf(out).any()):
            first = np.argmax(out == np.inf)
            raise ValueError(f"sequence '{self.label or self.kind}' term {first} is not finite")
        return out


#: the longest index table kept between grids: 2^20 terms, 16 MB of n and
#: log n; also the CLI's --n-max bound
MAX_SHARED_COUNT = 2**20

#: n = 0..len-1 for the longest grid asked for so far, up to MAX_SHARED_COUNT,
#: and its log, built on first read; both read-only, None until first needed
_n_table: np.ndarray | None = None
_log_n_table: np.ndarray | None = None


class IndexGrid:
    """The indices n = 0..count-1 as floats, and log n built on first read:
    what the closed forms of several specs, and of several calls, share.

    Both are read-only slices of one process-wide table, grown to the
    largest count asked for so far, so a grid at a count already reached
    allocates and computes neither array.  A grid longer than
    MAX_SHARED_COUNT builds its own arrays and leaves the table alone."""

    def __init__(self, count: int):
        global _n_table, _log_n_table
        self.count = count
        if count > MAX_SHARED_COUNT:
            self.n = _read_only(np.arange(count, dtype=float))
            return
        if _n_table is None or len(_n_table) < count:
            _n_table, _log_n_table = _read_only(np.arange(count, dtype=float)), None
        self.n = _n_table[:count]

    @functools.cached_property
    def log_n(self) -> np.ndarray:
        global _log_n_table
        if self.count > MAX_SHARED_COUNT:
            return _read_only(_log(self.n))
        if _log_n_table is None:
            _log_n_table = _read_only(_log(_n_table))
        return _log_n_table[: self.count]


def _log(n: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(n)  # log 0 = -inf; each kind sets its own n = 0 term


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def explicit(values, label: str = "") -> SequenceSpec:
    vals = tuple(complex(v) for v in values)
    if not vals:
        raise ValueError("explicit sequence needs at least one term")
    return SequenceSpec(kind="list", values=vals, name=label)


def poly(power: float, label: str = "") -> SequenceSpec:
    return SequenceSpec(
        kind="poly", power=float(power), name=label or f"poly:{_format_real(power)}"
    )


def geometric(ratio: complex, label: str = "") -> SequenceSpec:
    return SequenceSpec(
        kind="geometric", ratio=complex(ratio), name=label or f"geometric:{_format_number(ratio)}"
    )


def affine(slope: complex, offset: complex, label: str = "") -> SequenceSpec:
    a, b = complex(slope), complex(offset)
    return SequenceSpec(
        kind="affine",
        slope=a,
        offset=b,
        name=label or f"affine:{_format_number(a)},{_format_number(b)}",
    )


def harmonic() -> SequenceSpec:
    """1/n for n >= 1, with the n = 0 term defined as 0."""
    return poly(-1.0, label="harmonic")


def sqrt_poly(power: float) -> SequenceSpec:
    """sqrt(n^p): the natural gamma shape for alpha = n^p factorizations."""
    return poly(power / 2.0, label=f"sqrt-poly:{_format_real(power)}")


def _format_real(x: float) -> str:
    """x's shortest round-trip repr, without a trailing ".0": parse_spec
    reads back the same float."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def _format_number(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _format_real(z.real)
    imag = _format_real(z.imag)
    return f"{_format_real(z.real)}{'' if imag[0] == '-' else '+'}{imag}j"


def _finite(text: str, convert=complex):
    value = convert(text)
    if not cmath.isfinite(value):
        raise ValueError(f"non-finite parameter '{text.strip()}'")
    return value


def parse_spec(text: str) -> SequenceSpec:
    """Parse a CLI sequence spec string (see module docstring for the forms).

    Every parameter must be a finite number."""
    text = text.strip()
    if text == "harmonic":
        return harmonic()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"cannot parse sequence spec '{text}': missing ':'")
    try:
        if head == "poly":
            return poly(_finite(rest, float))
        if head == "sqrt-poly":
            return sqrt_poly(_finite(rest, float))
        if head == "geometric":
            return geometric(_finite(rest))
        if head == "affine":
            a, b = rest.split(",")
            return affine(_finite(a), _finite(b))
        if head == "list":
            return explicit([_finite(v) for v in rest.split(",")])
    except ValueError as exc:
        raise ValueError(f"cannot parse sequence spec '{text}': {exc}") from None
    raise ValueError(f"unknown sequence spec kind '{head}'")
