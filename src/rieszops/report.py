"""Verification report containers and their deterministic JSON rendering.

Reports must be byte-identical across runs for identical inputs, so floats
are always rendered with %.17g (lossless for float64) and key order is
fixed: a report by its template, any other document by the insertion order
of its dicts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import NamedTuple

import numpy as np


@dataclass
class CheckResult:
    """One named check: residual against tolerance plus a verdict."""

    name: str
    passed: bool
    residual: float
    tol: float
    note: str = ""


class Check(NamedTuple):
    """One named check over a batch of points: a residual per point (an array
    shaped like the batch) and its note.  Without values the note is one
    text for every point.  With values, arrays shaped like the batch, the
    note is a template, or an array of per-point templates, formatted at
    each point with that point's values."""

    name: str
    residual: np.ndarray
    note: str | np.ndarray = ""
    values: tuple = ()

    @classmethod
    def worst(cls, name: str, note: str | np.ndarray, *parts: np.ndarray) -> Check:
        """The largest of the parts at each point, NaN if any part is NaN,
        with a note template that shows every part."""
        return cls(name, functools.reduce(np.maximum, parts), note, parts)

    def results(self, tol: float) -> list[CheckResult]:
        """One CheckResult per point, in batch order."""
        name, note, tol = self.name, self.note, float(tol)
        residuals = self.residual.ravel().tolist()
        if not self.values:
            return [CheckResult(name, r <= tol, r, tol, note) for r in residuals]
        columns = [v.ravel().tolist() for v in self.values]
        if isinstance(note, str):
            notes = map(note.format, *columns)
        else:
            notes = map(str.format, note.ravel().tolist(), *columns)
        return [CheckResult(name, r <= tol, r, tol, n) for r, n in zip(residuals, notes)]


@dataclass
class VerificationReport:
    suite: str
    params: dict
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    @property
    def summary(self) -> dict:
        passed = sum(1 for c in self.checks if c.passed)
        return {
            "total": len(self.checks),
            "passed": passed,
            "failed": len(self.checks) - passed,
        }

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def to_json(self) -> str:
        """render_json of the report document, through fixed templates.  Each
        distinct tol (the checks share one; `admissible` has its own) is
        rendered once."""
        tols = {tol: _render_float(tol) for tol in {c.tol for c in self.checks}}
        checks = [
            _CHECK
            % (
                encode_basestring(c.name),
                "true" if c.passed else "false",
                _render_float(c.residual),
                tols[c.tol],
                encode_basestring(c.note),
            )
            for c in self.checks
        ]
        return _REPORT % (
            encode_basestring(self.suite),
            render_json(self.params, 1),
            "[\n" + ",\n".join(checks) + "\n  ]" if checks else "[]",
            *self.summary.values(),
        )


#: a report at indent 0, and one check as an item of its "checks" list
_REPORT = """\
{
  "suite": %s,
  "params": %s,
  "checks": %s,
  "summary": {
    "total": %d,
    "passed": %d,
    "failed": %d
  }
}"""
_CHECK = """\
    {
      "name": %s,
      "passed": %s,
      "residual": %s,
      "tol": %s,
      "note": %s
    }"""


def _render_float(value: float) -> str:
    if math.isfinite(value):
        return format(value, ".17g")
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def render_json(value, indent: int = 0) -> str:
    """Render a report document as JSON with %.17g floats and stable key order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f'{inner}"{key}": {render_json(val, indent + 1)}'
            for key, val in value.items()
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = (f"{inner}{render_json(val, indent + 1)}" for val in value)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _render_float(value)
    if isinstance(value, str):
        # what json.dumps(value, ensure_ascii=False) returns, without the
        # encoder set-up json.dumps repeats per call (~2 us per string)
        return encode_basestring(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def render_reports(reports: list[VerificationReport]) -> str:
    """A parameter-ordered sweep as one JSON array.  A rendered string holds
    no raw newline, so indenting every line of a report nests it a level."""
    items = ("  " + r.to_json().replace("\n", "\n  ") for r in reports)
    return "[\n" + ",\n".join(items) + "\n]" if reports else "[]"
