"""Per-layer tracing of rieszops from outside the program.

A Tracer wraps public functions of each rieszops module with a recording
shim.  Modules import many functions by name (factory imports sqrt_psd and
inverse, similarity and ladder import build_H, cli imports the suite entry
points), so a function is replaced under every module attribute that refers
to it, not only in the module that defines it.  Methods are replaced on
their class.  A target that no longer exists is recorded as absent and
traced as zero, so the program can delete or move a function without
breaking the benchmark.

Spans (name, start, end, parent, item id) are held in memory and written
out when the run ends.  A layer's self time is the time its spans cover
minus the time of the spans they enclose.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

SPAN, COUNT = "span", "count"

#: (module, attribute or Class.method, layer group, mode).  COUNT targets
#: are counted but open no span, so their time stays in the caller's self time.
TARGETS = (
    ("linalg", "hermitian_eig", "linalg.hermitian_eig", SPAN),
    ("linalg", "inverse", "linalg.inverse", SPAN),
    ("linalg", "sqrt_psd", "linalg.sqrt_psd", SPAN),
    ("linalg", "singular_extremes", "linalg.singular_extremes", SPAN),
    ("basis", "from_generator", "basis.from_generator", SPAN),
    ("basis", "verify_biorthogonality", "basis.checks", SPAN),
    ("basis", "reconstruction_residual", "basis.checks", SPAN),
    ("basis", "frame_inequality_check", "basis.checks", SPAN),
    ("factory", "build_bundle", "factory.build_bundle", SPAN),
    ("factory", "build_H", "factory.build_H", COUNT),
    ("factory", "build_S_weighted", "factory.build_S_weighted", COUNT),
    ("factory", "check_eigen_action", "factory.checks", SPAN),
    ("factory", "check_weighted_action", "factory.checks", SPAN),
    ("factory", "check_adjoint_pair", "factory.checks", SPAN),
    ("factory", "check_metric_pair", "factory.checks", SPAN),
    ("factory", "check_intertwining", "factory.checks", SPAN),
    ("factory", "quasi_hermitian_symmetry", "factory.checks", SPAN),
    ("factory", "check_norm_bound", "factory.checks", SPAN),
    ("ladder", "build_ladder", "ladder.build", SPAN),
    ("ladder", "factorize_from_alpha", "ladder.build", SPAN),
    ("ladder", "check_ladder_actions", "ladder.checks", SPAN),
    ("ladder", "check_ladder_adjoints", "ladder.checks", SPAN),
    ("ladder", "check_products", "ladder.checks", SPAN),
    ("ladder", "check_commutator", "ladder.checks", SPAN),
    ("similarity", "check_selfadjoint_h", "similarity.checks", SPAN),
    ("similarity", "check_transported_eigenbasis", "similarity.checks", SPAN),
    ("similarity", "check_similarity_consistency", "similarity.checks", SPAN),
    ("similarity", "onb_in_HS", "similarity.checks", SPAN),
    ("models", "three_level", "models", SPAN),
    ("models", "three_level_ladder_closed_forms", "models", SPAN),
    ("models", "three_level_hat_spectrum", "models", SPAN),
    ("models", "projection_model", "models", SPAN),
    ("models", "projection_phi_psi_closed_forms", "models", SPAN),
    ("models", "projection_H_closed_form", "models", SPAN),
    ("sequences", "SequenceSpec.terms", "sequences.terms", SPAN),
    ("sequences", "SequenceSpec.log_abs_terms", "sequences.log_abs_terms", SPAN),
    ("domains", "summability_verdict", "domains.summability_verdict", SPAN),
    ("report", "render_json", "report.render", SPAN),
    ("report", "render_reports", "report.render", SPAN),
    ("report", "VerificationReport.to_json", "report.render", SPAN),
    ("suites", "run_verify", "suites", SPAN),
    ("suites", "three_level_report", "suites", SPAN),
    ("suites", "projection_report", "suites", SPAN),
    ("suites", "random_report", "suites", SPAN),
    ("suites", "sweep_three_level", "suites", SPAN),
    ("suites", "sweep_projection", "suites", SPAN),
    ("suites", "run_domain", "suites", SPAN),
    ("cli", "main", "cli", SPAN),
)

#: Per-layer metric -> (kind, key).  kind 'calls' counts calls of a
#: function, 'self' sums self time of a function or group, 'stat' reads a
#: tracer statistic.  Every value is per item of the traced phase.
PER_LAYER = {
    "linalg.hermitian_eig.calls": ("calls", "linalg.hermitian_eig"),
    "linalg.hermitian_eig.sweeps": ("stat", "sweeps"),
    "linalg.hermitian_eig.self_ms": ("self", "linalg.hermitian_eig"),
    "linalg.inverse.calls": ("calls", "linalg.inverse"),
    "linalg.inverse.self_ms": ("self", "linalg.inverse"),
    "linalg.sqrt_psd.calls": ("calls", "linalg.sqrt_psd"),
    "linalg.sqrt_psd.self_ms": ("self", "linalg.sqrt_psd"),
    "linalg.singular_extremes.calls": ("calls", "linalg.singular_extremes"),
    "linalg.singular_extremes.self_ms": ("self", "linalg.singular_extremes"),
    "linalg.errors": ("stat", "linalg_errors"),
    "basis.from_generator.self_ms": ("self", "basis.from_generator"),
    "basis.checks.self_ms": ("self", "basis.checks"),
    "factory.build_bundle.self_ms": ("self", "factory.build_bundle"),
    "factory.build_H.calls": ("calls", "factory.build_H"),
    "factory.build_S_weighted.calls": ("calls", "factory.build_S_weighted"),
    "factory.checks.self_ms": ("self", "factory.checks"),
    "ladder.build_ladder.calls": ("calls", "ladder.build_ladder"),
    "ladder.build.self_ms": ("self", "ladder.build"),
    "ladder.checks.self_ms": ("self", "ladder.checks"),
    "similarity.checks.self_ms": ("self", "similarity.checks"),
    "models.self_ms": ("self", "models"),
    "sequences.terms.calls": ("calls", "sequences.SequenceSpec.terms"),
    "sequences.terms.self_ms": ("self", "sequences.terms"),
    "sequences.log_abs_terms.self_ms": ("self", "sequences.log_abs_terms"),
    "domains.summability_verdict.self_ms": ("self", "domains.summability_verdict"),
    "report.render.self_ms": ("self", "report.render"),
    "suites.self_ms": ("self", "suites"),
    "cli.self_ms": ("self", "cli"),
}

#: per-layer metrics the run computes itself, beside the tracer's
RUN_METRICS = ("report.bytes", "trace.items_per_s", "trace.untraced_items_per_s")


def unit(metric: str) -> str:
    if metric.endswith("items_per_s"):
        return "items/s"
    if metric.endswith("_ms"):
        return "ms/item"
    if metric == "report.bytes":
        return "B/item"
    return "count/item"


#: ROADMAP baseline split of one random report -> groups whose outermost
#: spans (inclusive time) make up the column.
TABLE_COLUMNS = {
    "pair": ("basis.from_generator",),
    "bundle": ("factory.build_bundle",),
    "common": ("basis.checks", "factory.checks", "similarity.checks"),
    "ladder": ("ladder.build", "ladder.checks"),
    "json": ("report.render",),
}


class Tracer:
    """Records spans and call counts while installed; see install()."""

    def __init__(self) -> None:
        # span: [name, group, start_ns, end_ns, parent, item, child_ns]
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.stats: Counter = Counter()
        self.item = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target under every name rieszops looks it up by."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "rieszops"]
        error_type = getattr(sys.modules.get("rieszops.linalg"), "LinalgError", None)
        if error_type is None:
            self.absent.append("linalg.LinalgError")
        for module_name, attr, group, mode in TARGETS:
            module = sys.modules.get(f"rieszops.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, f"{module_name}.{attr}", group, mode, error_type)
            if owner_name:
                self._patch(owner, method, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, name, group, mode, error_type):
        tracer = self
        depth = [0]  # re-entry (recursion) opens no second span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if mode == COUNT:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            span = [name, group, time.perf_counter_ns(), 0, parent, tracer.item, 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if (
                    error_type is not None
                    and isinstance(exc, error_type)
                    and not getattr(exc, "_perfbench_counted", False)
                ):
                    exc._perfbench_counted = True
                    tracer.stats["linalg_errors"] += 1
                raise
            finally:
                depth[0] -= 1
                end = time.perf_counter_ns()
                span[3] = end
                stack.pop()
                if parent >= 0:
                    tracer.spans[parent][6] += end - span[2]
            if name == "linalg.hermitian_eig":
                tracer.stats["sweeps"] += getattr(result, "sweeps", 0)
            return result

        return wrapper

    # -- aggregation -------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Self time in ms, keyed by both function name and group."""
        out: dict[str, float] = defaultdict(float)
        for name, group, start, end, _, _, child in self.spans:
            ms = (end - start - child) / 1e6
            out[name] += ms
            if group != name:
                out[group] += ms
        return out

    def per_layer(self, items: int) -> dict[str, float]:
        """Every PER_LAYER metric, per item."""
        self_ms = self.self_ms()
        values = {}
        for metric, (kind, key) in PER_LAYER.items():
            if kind == "calls":
                total = self.calls[key]
            elif kind == "self":
                total = self_ms.get(key, 0.0)
            else:
                total = self.stats[key]
            values[metric] = total / max(items, 1)
        return values

    def outermost_ms(self, groups) -> float:
        """Inclusive time of spans in `groups` not nested in another such span."""
        total = 0
        for span in self.spans:
            if span[1] not in groups:
                continue
            parent = span[4]
            while parent >= 0 and self.spans[parent][1] not in groups:
                parent = self.spans[parent][4]
            if parent < 0:
                total += span[3] - span[2]
        return total / 1e6

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start_ns, end_ns, parent index, item id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, _, start, end, parent, item, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]) + "\n")
