"""Verification report containers and their deterministic JSON rendering.

Reports must be byte-identical across runs for identical inputs, so floats
are always rendered with %.17g (lossless for float64) and key order is
fixed: a report by the template of its stack, any other document by the
insertion order of its dicts.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import NamedTuple

import numpy as np


@dataclass
class CheckResult:
    """One named check at one point: residual against tolerance plus a verdict."""

    name: str
    passed: bool
    residual: float
    tol: float
    note: str = ""


class Check(NamedTuple):
    """One named check over a batch of points: a residual per point (an array
    shaped like the batch) and its note.  Without values the note is one
    text for every point.  With values, arrays shaped like the batch, the
    note is a str.format template of {:.Ne}, {:.Ng} and {} (a word) fields,
    formatted at each point with that point's values."""

    name: str
    residual: np.ndarray
    note: str = ""
    values: tuple = ()

    @classmethod
    def worst(cls, name: str, note: str, *parts: np.ndarray) -> Check:
        """The largest of the parts at each point, NaN if any part is NaN,
        with a note template that shows every part."""
        return cls(name, functools.reduce(np.maximum, parts), note, parts)

    def notes(self, points: slice = slice(None)) -> list[str]:
        """The formatted note at each of the points (a slice of the flattened
        batch) of a check with values, in one map."""
        return list(map(self.note.format, *(v.ravel()[points].tolist() for v in self.values)))


class _Column(NamedTuple):
    """A check recorded on a stack, with its tol."""

    check: Check
    tol: float


class _Verdicts(NamedTuple):
    """A stack's residuals and whether each passed, as (checks, points)
    arrays, and how many checks each point passed."""

    residuals: np.ndarray
    passed: np.ndarray
    counts: np.ndarray


class ReportStack:
    """The reports of one stack of points, with the checks recorded on it as
    columns.  Verdicts are decided for every check and point in one array
    comparison, and every report is rendered by one template for the stack,
    which holds each check's name, tol and fixed note once."""

    def __init__(self, suite: str, params: list[dict]):
        self.suite = suite
        self.params = params
        #: the recorded checks, in order, each a column over the points
        self.checks: list[_Column] = []
        self._verdicts: _Verdicts | None = None
        self._documents: list[str] | None = None

    def reports(self) -> list[VerificationReport]:
        """A view of each point, in point order.  The stack holds no report,
        so a stack and its reports form no reference cycle and are freed as
        soon as the last report is dropped."""
        return [VerificationReport(self, k) for k in range(len(self.params))]

    def record(self, tol: float, *checks: Check) -> None:
        """Each check joins the stack as a column, in order."""
        self.checks += [_Column(check, float(tol)) for check in checks]
        self._verdicts = self._documents = None

    def verdicts(self) -> _Verdicts:
        """Every check at every point, decided in one array comparison, on
        first use.  A point passes a check when |residual| <= tol: a residual
        is a magnitude, so residual == tol passes, and NaN and +-inf fail."""
        if self._verdicts is None:
            shape = (len(self.checks), len(self.params))
            residuals = np.array([c.check.residual for c in self.checks], float).reshape(shape)
            passed = np.abs(residuals) <= np.array([c.tol for c in self.checks])[:, None]
            self._verdicts = _Verdicts(residuals, passed, passed.sum(axis=0))
        return self._verdicts

    def documents(self, indent: int = 0) -> list[str]:
        """Each point's report document as render_json renders it, with
        every line, the first included, indented by indent levels, in point
        order.  At indent 0, a single report's, the stack is rendered once,
        on first use, and kept; at any other, a sweep's items, it is
        rendered on each call and not kept."""
        if indent:
            return self._render(indent)
        if self._documents is None:
            self._documents = self._render(0)
        return self._documents

    def _render(self, indent: int) -> list[str]:
        """One % per point fills the stack's template at indent with the raw
        params, verdicts, residuals, note values and pass counts; a residual
        column not all finite takes texts, params with no layout render_json."""
        verdicts = self.verdicts()
        layout = _params_layout(self.params)
        if layout is None:
            fields = [[render_json(p, indent + 1) for p in self.params]]
        else:
            fields = [[p[key] for p in self.params] for key, text in layout if text[0] == "%"]
        finite = np.isfinite(verdicts.residuals).all(axis=1).tolist()
        passed = _JSON_BOOLS[verdicts.passed.view(np.int8)].tolist()
        heads = []
        rows = zip(passed, verdicts.residuals.tolist(), finite)
        for (check, tol), (verdict, residual, whole) in zip(self.checks, rows):
            note, words = _note_template(check.note, bool(check.values))
            heads.append((check.name, tol, note, whole))
            if not whole:  # fails its check; strict JSON has null for it
                residual = [_render_float(r) for r in residual]
            fields += (verdict, residual)
            fields += (
                [encode_basestring(v)[1:-1] for v in map(str, column)] if word else column
                for word, column in zip(words, (v.ravel().tolist() for v in check.values))
            )
        counts = verdicts.counts.tolist()
        fields += (counts, [len(self.checks) - c for c in counts])
        template = _template(self.suite, tuple(heads), layout, indent)
        return [template % row for row in zip(*fields)]


@dataclass(frozen=True)
class VerificationReport:
    """One point of a ReportStack: its index in the stack.  Its params,
    verdicts and rendering are the stack's at that index."""

    stack: ReportStack
    index: int

    @property
    def suite(self) -> str:
        return self.stack.suite

    @property
    def params(self) -> dict:
        return self.stack.params[self.index]

    @property
    def checks(self) -> list[CheckResult]:
        """Each recorded check at this point, in order, built on demand from
        the stack's verdicts: for tests and library callers; rendering reads
        the columns."""
        k, verdicts = self.index, self.stack.verdicts()
        point = slice(k, k + 1)
        return [
            CheckResult(
                c.check.name, passed, residual, c.tol,
                c.check.notes(point)[0] if c.check.values else c.check.note,
            )
            for c, passed, residual in zip(
                self.stack.checks, verdicts.passed[:, k].tolist(), verdicts.residuals[:, k].tolist()
            )
        ]

    @property
    def summary(self) -> dict:
        total, passed = len(self.stack.checks), int(self.stack.verdicts().counts[self.index])
        return {"total": total, "passed": passed, "failed": total - passed}

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def to_json(self) -> str:
        """render_json of the report document, from its stack's rendering."""
        return self.stack.documents()[self.index]


#: the JSON literal of each verdict, indexed by the verdict
_JSON_BOOLS = np.array(["false", "true"], dtype=object)

#: a stack's report template at indent 0, with the suite, params, checks
#: and their count to fill in, and one check as an item of its "checks"
#: list, with its name, residual field, tol and note; %%s and %%d per point
_REPORT = """\
{
  "suite": %s,
  "params": %s,
  "checks": %s,
  "summary": {
    "total": %d,
    "passed": %%d,
    "failed": %%d
  }
}"""
_CHECK = """\
    {
      "name": %s,
      "passed": %%s,
      "residual": %s,
      "tol": %s,
      "note": %s
    }"""

#: an escaped brace, a field that % formats as str.format does ({}, {:.Ne}
#: or {:.Ng}, with its spec), or any other brace
_NOTE_FIELDS = re.compile(r"\{\{|\}\}|\{(|:\.\d+[eg])\}|[{}]")


@functools.lru_cache(maxsize=64)
def _template(suite: str, heads: tuple, layout: tuple | None, indent: int) -> str:
    """The report template of a stack at indent: the suite, the params
    layout (None: a slot per point), each check's name, tol, residual field
    and note, and the check count are filled in; the rest by each point."""
    params = "%s"
    if layout is not None:
        items = [f"    {_literal(key)}: " + text for key, text in layout]
        params = "{\n" + ",\n".join(items) + "\n  }" if items else "{}"
    items = [
        _CHECK % (_literal(name), "%.17g" if finite else "%s", _render_float(tol), note)
        for name, tol, note, finite in heads
    ]
    text = _REPORT % (
        _literal(suite),
        params,
        "[\n" + ",\n".join(items) + "\n  ]" if items else "[]",
        len(items),
    )
    pad = "  " * indent  # no filled-in text holds a newline: this nests each report
    return pad + text.replace("\n", "\n" + pad)


def _params_layout(params: list[dict]) -> tuple | None:
    """Each key of the params with its text in the stack's template: %.17g
    where every point holds a finite float, %d an int, or the literal of a
    str all share.  None unless every point has these keys in order."""
    keys = tuple(params[0]) if params else ()
    if any(tuple(p) != keys for p in params):
        return None
    layout = []
    for key in keys:
        column = [p[key] for p in params]
        kinds = set(map(type, column))
        if kinds == {str} and len(set(column)) == 1:
            layout.append((key, _literal(column[0])))
        elif kinds == {int} or kinds == {float} and all(map(math.isfinite, column)):
            layout.append((key, "%d" if kinds == {int} else "%.17g"))
        else:
            return None
    return tuple(layout)


@functools.lru_cache(maxsize=256)
def _note_template(note: str, valued: bool) -> tuple[str, tuple[bool, ...]]:
    """A note as its JSON literal in % form, and whether each field takes a
    word.  Escaping leaves the fields of a note with values as they are, so
    each {:.Ne} or {:.Ng} becomes that % spec and each {} a %s for the
    escaped word; any other field or brace is a ValueError."""
    if not valued:
        return _literal(note), ()
    words = []

    def field(match: re.Match) -> str:
        if match[1] is None and len(match[0]) == 1:
            raise ValueError(f"note {note!r} has a field with no % form")
        if match[1] is None:
            return match[0][0]
        words.append(not match[1])
        return "%" + match[1][1:] if match[1] else "%s"

    return _NOTE_FIELDS.sub(field, _literal(note)), tuple(words)


def _literal(text: str) -> str:
    """text as a JSON string, escaped to stand for itself in a % template."""
    return encode_basestring(text).replace("%", "%%")


def _render_float(value: float) -> str:
    """value at 17 significant digits; NaN and +-inf, which strict JSON
    lacks, as null."""
    return format(value, ".17g") if math.isfinite(value) else "null"


def render_json(value, indent: int = 0) -> str:
    """Render a report document as JSON with %.17g floats and stable key order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f"{inner}{encode_basestring(key)}: {render_json(val, indent + 1)}"
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


#: the domain command's document, with its params and verdict to fill in
_DOMAIN = """\
{
  "suite": "domain",
  "params": {
    "alpha": %s,
    "coeff": %s,
    "n_max": %d
  },
  "verdict": %s,
  "partial_sum": %s,
  "tail_ratio": %s,
  "n_max": %d
}"""


def render_domain(alpha: str, coeff: str, n_max: int, verdict) -> str:
    """render_json of the domain document, {"suite": "domain", "params":
    {"alpha", "coeff", "n_max"}, then the verdict's fields in order}, in
    one % pass; verdict is a domains.DomainVerdict, read field by field."""
    return _DOMAIN % (
        encode_basestring(alpha),
        encode_basestring(coeff),
        n_max,
        encode_basestring(verdict.verdict),
        _render_float(verdict.partial_sum),
        _render_float(verdict.tail_ratio),
        verdict.n_max,
    )


def render_reports(reports: list[VerificationReport]) -> str:
    """A parameter-ordered sweep as one JSON array: each run of consecutive
    reports of one stack is rendered at indent 1, in one pass."""
    items = []
    for stack, run in itertools.groupby(reports, key=lambda r: r.stack):
        documents = stack.documents(1)
        items += [documents[r.index] for r in run]
    return "[\n" + ",\n".join(items) + "\n]" if items else "[]"
