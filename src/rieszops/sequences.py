"""Weight sequences (alpha, beta, gamma) as closed forms or explicit lists.

A SequenceSpec emits complex terms s_0, s_1, ... and carries two declared
properties used all over the operator checks: is_real (every term has zero
imaginary part) and abs_monotone (|s_0| <= |s_1| <= ...).  Declared flags can
be re-validated against any emitted range with check_emitted().

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
    scale: complex = 1.0
    length: int | None = None  # None = unbounded
    is_real: bool = True
    abs_monotone: bool = False
    label: str = field(default="", compare=False)

    def term(self, n: int) -> complex:
        if n < 0:
            raise ValueError("sequence index must be >= 0")
        if self.length is not None and n >= self.length:
            raise ValueError(
                f"sequence '{self.label or self.kind}' has length {self.length}, "
                f"index {n} requested"
            )
        if self.kind == "list":
            return complex(self.values[n])
        if self.kind == "poly":
            if n == 0:
                base = 1.0 if self.power == 0.0 else 0.0
            else:
                base = float(n) ** self.power
            return complex(self.scale * base)
        if self.kind == "geometric":
            return complex(self.scale * self.ratio**n)
        if self.kind == "affine":
            return complex(self.slope * n + self.offset)
        raise ValueError(f"unknown sequence kind '{self.kind}'")

    def terms(self, count: int) -> np.ndarray:
        """First `count` terms as a complex array."""
        if self.length is not None and count > self.length:
            raise ValueError(
                f"sequence '{self.label or self.kind}' emits only "
                f"{self.length} terms, {count} requested"
            )
        if self.kind == "list":
            return np.array(self.values[:count], dtype=complex)
        n = np.arange(count, dtype=float)
        if self.kind == "poly":
            base = np.zeros(count)
            base[1:] = n[1:] ** self.power  # 0 is never raised to the power
            if count and self.power == 0.0:
                base[0] = 1.0
            return self.scale * base
        if self.kind == "geometric":
            return self.scale * self.ratio**n
        if self.kind == "affine":
            return self.slope * n + self.offset
        raise ValueError(f"unknown sequence kind '{self.kind}'")

    def log_abs_terms(self, count: int) -> np.ndarray:
        """log |s_n| for n < count, with -inf marking exact zeros.

        Evaluated in log space so growing closed forms stay usable at the
        large horizons the domain diagnostics need (|r|^n overflows floats
        long before its product with a decaying coefficient does).
        """
        if self.length is not None and count > self.length:
            raise ValueError(
                f"sequence '{self.label or self.kind}' emits only "
                f"{self.length} terms, {count} requested"
            )
        n = np.arange(count, dtype=float)
        with np.errstate(divide="ignore"):
            if self.kind == "list":
                return np.log(np.abs(np.array(self.values[:count], dtype=complex)))
            if self.kind == "poly":
                out = np.full(count, np.log(abs(self.scale)))
                out[1:] += self.power * np.log(n[1:])
                if self.power != 0.0:
                    out[0] = -np.inf
                return out
            if self.kind == "geometric":
                out = np.full(count, np.log(abs(self.scale)))
                out[1:] += n[1:] * np.log(abs(self.ratio))
                return out
            if self.kind == "affine":
                return np.log(np.abs(self.slope * n + self.offset))
        raise ValueError(f"unknown sequence kind '{self.kind}'")

    def conjugate(self) -> "SequenceSpec":
        """Spec emitting the complex conjugate of every term."""
        return SequenceSpec(
            kind=self.kind,
            values=tuple(complex(v).conjugate() for v in self.values),
            power=self.power,
            ratio=complex(self.ratio).conjugate(),
            slope=complex(self.slope).conjugate(),
            offset=complex(self.offset).conjugate(),
            scale=complex(self.scale).conjugate(),
            length=self.length,
            is_real=self.is_real,
            abs_monotone=self.abs_monotone,
            label=f"conj({self.label})" if self.label else "",
        )

    def check_emitted(self, count: int, tol: float = 0.0) -> None:
        """Validate the declared is_real / abs_monotone flags on the emitted
        range; raises ValueError naming the first offending index."""
        vals = self.terms(count)
        if self.is_real:
            bad = np.nonzero(np.abs(vals.imag) > tol)[0]
            if bad.size:
                raise ValueError(
                    f"sequence declared real but term {bad[0]} = {vals[bad[0]]}"
                )
        if self.abs_monotone:
            mags = np.abs(vals)
            bad = np.nonzero(mags[1:] < mags[:-1] - tol)[0]
            if bad.size:
                k = int(bad[0])
                raise ValueError(
                    f"sequence declared |.|-monotone but |s_{k + 1}| = "
                    f"{mags[k + 1]:.6g} < |s_{k}| = {mags[k]:.6g}"
                )


def _is_real_number(z) -> bool:
    return complex(z).imag == 0.0


def explicit(values, label: str = "") -> SequenceSpec:
    vals = tuple(complex(v) for v in values)
    if not vals:
        raise ValueError("explicit sequence needs at least one term")
    mags = np.abs(np.array(vals))
    return SequenceSpec(
        kind="list",
        values=vals,
        length=len(vals),
        is_real=all(v.imag == 0.0 for v in vals),
        abs_monotone=bool(np.all(mags[1:] >= mags[:-1])),
        label=label or "list:" + ",".join(_format_number(v) for v in vals),
    )


def poly(power: float, scale: complex = 1.0, label: str = "") -> SequenceSpec:
    return SequenceSpec(
        kind="poly",
        power=float(power),
        scale=complex(scale),
        is_real=_is_real_number(scale),
        abs_monotone=power >= 0.0,
        label=label or f"poly:{power:g}",
    )


def geometric(ratio: complex, scale: complex = 1.0, label: str = "") -> SequenceSpec:
    return SequenceSpec(
        kind="geometric",
        ratio=complex(ratio),
        scale=complex(scale),
        is_real=_is_real_number(ratio) and _is_real_number(scale),
        abs_monotone=abs(ratio) >= 1.0,
        label=label or f"geometric:{_format_number(ratio)}",
    )


def affine(slope: complex, offset: complex, label: str = "") -> SequenceSpec:
    a, b = complex(slope), complex(offset)
    # |a n + b| is nondecreasing on n >= 0 iff |a|^2 + 2 Re(a conj(b)) >= 0
    monotone = abs(a) ** 2 + 2.0 * (a * b.conjugate()).real >= 0.0
    return SequenceSpec(
        kind="affine",
        slope=a,
        offset=b,
        is_real=_is_real_number(a) and _is_real_number(b),
        abs_monotone=monotone,
        label=label or f"affine:{_format_number(a)},{_format_number(b)}",
    )


def ones() -> SequenceSpec:
    """The constant sequence 1, 1, 1, ..."""
    return poly(0.0, label="poly:0")


def harmonic() -> SequenceSpec:
    """1/n for n >= 1, with the n = 0 term defined as 0."""
    return poly(-1.0, label="harmonic")


def sqrt_poly(power: float) -> SequenceSpec:
    """sqrt(n^p): the natural gamma shape for alpha = n^p factorizations."""
    return poly(power / 2.0, label=f"sqrt-poly:{power:g}")


def _format_number(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}j"


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
