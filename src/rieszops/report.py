"""Verification report containers and their deterministic JSON rendering.

Reports must be byte-identical across runs for identical inputs, so floats
are always rendered with %.17g (lossless for float64) and key order is the
insertion order of the dicts that build the document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring


@dataclass
class CheckResult:
    """One named check: residual against tolerance plus a verdict."""

    name: str
    passed: bool
    residual: float
    tol: float
    note: str = ""

    @classmethod
    def from_residual(
        cls, name: str, residual: float, tol: float, note: str = ""
    ) -> "CheckResult":
        return cls(
            name=name,
            passed=bool(residual <= tol),
            residual=float(residual),
            tol=float(tol),
            note=note,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "tol": self.tol,
            "note": self.note,
        }


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

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return render_json(self.to_dict())


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
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "Infinity"
        if value == float("-inf"):
            return "-Infinity"
        return format(value, ".17g")
    if isinstance(value, str):
        # what json.dumps(value, ensure_ascii=False) returns, without the
        # encoder set-up json.dumps repeats per call (~2 us per string)
        return encode_basestring(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def render_reports(reports: list[VerificationReport]) -> str:
    """A parameter-ordered sweep as one JSON array."""
    return render_json([r.to_dict() for r in reports])
