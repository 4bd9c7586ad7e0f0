#!/usr/bin/env python3
"""rieszops benchmark: closed-loop CLI items, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy.  One caller sends items one after the
other; an item is one in-process call of rieszops.cli.main(argv) writing
its report to a file under perfbench/out/.  The run measures whole decks
(see workloads.py) until the items' own time reaches --seconds.  Timings
are scaled to a reference machine speed by the gauge (see gauge.py); the
raw wall-clock figures are printed beside them.

Every item's output is checked: strict RFC 8259 JSON (NaN and Infinity
rejected), the report structure and summary counts, an exit status that
agrees with the summary, and byte-identical output when the same argv is
run again.  Any violation, an exception or exit status 2 makes the item an
error.  The program's own check verdicts are not errors; they are counted
into check_fail_ratio as emitted.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same decks
untraced and then traced, and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: dims <= 64 gain nothing from
# threads, and one thread keeps timings steady on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from gauge import Gauge, at_reference, speed_ms  # noqa: E402
from layers import TABLE_COLUMNS, Tracer, unit  # noqa: E402
from workloads import DOMAIN_OVERFLOW_PROBE, WORKLOADS, Item, Workload  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

RUN_TOL = 1e-10  # every verify/sweep item passes --tol 1e-10
SETUP_PROBES = 5
RECHECK_SHARE = 0.1  # share of --seconds spent re-running items for determinism
RECHECK_POOL = 64  # items kept (seeded reservoir) as re-run candidates
WALL_CAP_S = 120.0  # stop the timed loop past this, whatever --seconds says
TABLE_DIMS = (8, 16, 32, 64)
VERDICTS = ("converged", "diverged", "inconclusive")
REPEAT_MISMATCH = "output differs when the argv is run again"
E2E_UNITS = {
    "items_per_s": "items/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no program, failed probe)."""


def load_cli():
    """Import rieszops.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "rieszops" / "cli.py").is_file():
        raise SetupError(f"no rieszops sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from rieszops import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"rieszops imported from {cli.__file__}, not from {SRC}")
    return cli


# --- one item -----------------------------------------------------------------


@dataclass(slots=True)
class Result:
    ms: float
    error: str = ""
    checks: int = 0
    failed_checks: int = 0
    worst: float = 0.0  # largest residual among checks judged at RUN_TOL
    nbytes: int = 0
    digest: bytes = b""


def item_argv(item: Item, out: Path) -> list[str]:
    argv = list(item.argv)
    if item.kind != "domain":
        argv += ["--tol", repr(RUN_TOL)]
    return argv + ["--out", str(out)]


def run_item(cli, item: Item, out: Path) -> Result:
    out.unlink(missing_ok=True)
    argv = item_argv(item, out)
    error = ""
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an item that raises is counted, not fatal
        rc, error = None, f"raised {type(exc).__name__}: {exc}"
    result = Result((time.perf_counter() - start) * 1e3, error)
    if not error:
        check_output(item, rc, out, result)
    return result


def _reject_constant(token: str):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def check_output(item: Item, rc, out: Path, result: Result) -> None:
    """Fill result from the item's output file, or set result.error."""
    if rc == 2:
        result.error = "exit status 2"
        return
    try:
        data = out.read_bytes()
    except OSError as exc:
        result.error = f"no output: {exc}"
        return
    try:
        doc = json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:  # bad UTF-8, bad JSON, NaN or Infinity
        result.error = f"not strict JSON: {exc}"
        return
    result.nbytes = len(data)
    result.digest = hashlib.sha256(data).digest()
    try:
        if item.kind == "domain":
            _check_domain(item, doc)
            expected_rc = 0
        else:
            reports = [doc] if item.kind == "verify" else doc
            if not isinstance(reports, list) or len(reports) != item.reports:
                raise ValueError(f"expected {item.reports} reports")
            for report in reports:
                _tally_report(item.argv[1], report, result)
            expected_rc = 0 if result.failed_checks == 0 else 1
    except (KeyError, TypeError, ValueError) as exc:
        result.error = f"malformed output: {exc!r}"
        return
    if rc != expected_rc:
        result.error = f"exit status {rc}, summary implies {expected_rc}"


def _tally_report(suite: str, report: dict, result: Result) -> None:
    if report["suite"] != suite:
        raise ValueError(f"suite {report['suite']!r}, expected {suite!r}")
    checks = report["checks"]
    passed = 0
    for check in checks:
        if not isinstance(check["name"], str) or not isinstance(check["passed"], bool):
            raise ValueError(f"malformed check {check!r}")
        residual, tol = float(check["residual"]), float(check["tol"])
        passed += check["passed"]
        if tol == RUN_TOL:
            result.worst = max(result.worst, residual)
    summary = {"total": len(checks), "passed": passed, "failed": len(checks) - passed}
    if report["summary"] != summary:
        raise ValueError(f"summary {report['summary']!r} disagrees with checks {summary!r}")
    result.checks += len(checks)
    result.failed_checks += len(checks) - passed


def _check_domain(item: Item, doc: dict) -> None:
    argv = dict(zip(item.argv[1::2], item.argv[2::2]))
    params = doc["params"]
    expected = {"alpha": argv["--alpha"], "coeff": argv["--coeff"], "n_max": int(argv["--n-max"])}
    if doc["suite"] != "domain" or params != expected:
        raise ValueError(f"params {params!r}, expected {expected!r}")
    if doc["verdict"] not in VERDICTS or doc["n_max"] != expected["n_max"]:
        raise ValueError(f"verdict {doc['verdict']!r} at n_max {doc['n_max']!r}")
    if not all(isinstance(doc[k], (int, float)) for k in ("partial_sum", "tail_ratio")):
        raise ValueError("partial_sum and tail_ratio must be numbers")


# --- what a run keeps ----------------------------------------------------------


class Tally:
    """Everything a run keeps of its items.  Apart from a few numbers per
    item in flat arrays, its size does not grow with the item count, so peak
    memory does not depend on how fast the program is."""

    def __init__(self, keep: int | None, seed: int) -> None:
        self.ms = array("d")
        self.scaled_ms = array("d")
        self.nbytes = 0
        self.checks = 0
        self.failed_checks = 0
        self.worst = 0.0
        self.errors: Counter = Counter()  # error kind -> items
        self.examples: set[str] = set()
        #: (item, digest) of kept items: all when keep is None, else a
        #: seeded reservoir sample of `keep` error-free items
        self.kept: list[tuple[Item, bytes]] = []
        self._keep = keep
        self._rng = random.Random(seed)
        self._ok = 0

    @property
    def attempted(self) -> int:
        return len(self.ms)

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def add(self, item: Item, result: Result) -> None:
        self.ms.append(result.ms)
        if result.error:
            self.error(result.error)
            if self._keep is None:
                self.kept.append((item, b""))
            return
        self.nbytes += result.nbytes
        self.checks += result.checks
        self.failed_checks += result.failed_checks
        self.worst = max(self.worst, result.worst)
        if self._keep is None:
            self.kept.append((item, result.digest))
            return
        self._ok += 1
        if len(self.kept) < self._keep:
            self.kept.append((item, result.digest))
        elif (slot := self._rng.randrange(self._ok)) < self._keep:
            self.kept[slot] = (item, result.digest)

    def error(self, message: str) -> None:
        self.errors[message.split(":")[0]] += 1
        if len(self.examples) < 5:
            self.examples.add(message)

    def merged(self, other: Tally) -> Tally:
        """Latencies, counts and errors of both (no gauge figures, no kept items)."""
        both = Tally(0, 0)
        for t in (self, other):
            both.ms.extend(t.ms)
            both.nbytes += t.nbytes
            both.checks += t.checks
            both.failed_checks += t.failed_checks
            both.worst = max(both.worst, t.worst)
            both.errors.update(t.errors)
            both.examples |= t.examples
        return both

    def correctness(self) -> dict:
        """The run's error and check figures, as measured."""
        return {
            "item_error_ratio": self.failed / self.attempted,
            "check_fail_ratio": self.failed_checks / self.checks if self.checks else None,
            "accuracy_digits": -math.log10(self.worst) if self.worst > 0 else None,
            "checks": self.checks,
            "errors_by_kind": dict(self.errors),
            "error_examples": sorted(self.examples),
        }


# --- run loops ----------------------------------------------------------------


def run_decks(cli, workload: Workload, seed: int, seconds: float, min_decks: int,
              out: Path, tally: Tally, gauge: Gauge | None = None,
              decks: list[int] | None = None, tracer: Tracer | None = None) -> list[int]:
    """Run whole decks until the items' time reaches `seconds` (and at least
    `min_decks` decks), or exactly the deck indices in `decks`.  With a
    gauge, the tally also gets each item's speed-scaled latency.  Returns
    the deck indices run."""
    used: list[int] = []
    # per item: gauge sample indices around it and handler time inside it
    bounds, handler_ms = array("q"), array("d")
    measured, deadline = 0.0, time.monotonic() + WALL_CAP_S
    with gauge or contextlib.nullcontext():
        for deck in itertools.count() if decks is None else decks:
            if decks is None and measured >= seconds * 1e3 and len(used) >= min_decks:
                break
            for item in workload.deck_items(seed, deck):
                if time.monotonic() > deadline:
                    break
                if tracer is not None:
                    tracer.item = tally.attempted
                if gauge:
                    i0, h0 = len(gauge.samples), gauge.handler_s
                result = run_item(cli, item, out)
                if gauge:
                    bounds.extend((i0, len(gauge.samples)))
                    handler_ms.append((gauge.handler_s - h0) * 1e3)
                measured += result.ms
                tally.add(item, result)
            else:
                used.append(deck)
                continue
            break  # wall-clock cap
    if gauge is not None:
        start = len(tally.scaled_ms)
        for k, ms in enumerate(tally.ms[start:]):
            i0, i1 = bounds[2 * k], bounds[2 * k + 1]
            tally.scaled_ms.append(gauge.scale(ms - handler_ms[k], i0, i1))
    return used


def recheck(cli, tally: Tally, budget_ms: float, out: Path) -> int:
    """Re-run kept items until the budget is spent (at least one); an output
    that differs byte for byte makes its item an error."""
    spent, rerun = 0.0, 0
    for item, digest in tally.kept:
        if rerun and spent >= budget_ms:
            break
        again = run_item(cli, item, out)
        spent += again.ms
        rerun += 1
        if again.error or again.digest != digest:
            tally.error(again.error or REPEAT_MISMATCH)
    return rerun


def setup_probe(workload: Workload, seed: int, out: Path) -> None:
    """What set-up costs a fresh interpreter: import, inputs, one warm-up item."""
    cli = load_cli()
    workload.deck_items(seed, 0)
    result = run_item(cli, warmup_item(workload, seed), out)
    if result.error:
        raise SetupError(f"warm-up item failed: {result.error}")


def warmup_item(workload: Workload, seed: int) -> Item:
    # deck -1 is never timed, so the warm-up argv does not repeat in the run
    return next(i for i in workload.deck_items(seed, -1) if i.shape == workload.warmup)


def measure_setup(workload: Workload, seed: int):
    """Median raw and speed-scaled wall time, in s, of SETUP_PROBES
    fresh-interpreter probes, and the digests of their warm-up outputs."""
    raw, scaled, digests = [], [], []
    for k in range(SETUP_PROBES):
        out = OUT / f"probe-{os.getpid()}-{k}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", workload.name, "--seed", str(seed), "--out", str(out)]
        kernel = speed_ms()
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        seconds = time.perf_counter() - start
        kernel = (kernel + speed_ms()) / 2
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        raw.append(seconds)
        scaled.append(at_reference(seconds, kernel))
        digests.append(hashlib.sha256(out.read_bytes()).digest())
        out.unlink()
    return statistics.median(raw), statistics.median(scaled), digests


# --- measuring ----------------------------------------------------------------


def timing(latencies_ms, tail_q: float) -> dict:
    return {
        "items_per_s": len(latencies_ms) / (sum(latencies_ms) / 1e3),
        "item_ms_p50": float(np.percentile(latencies_ms, 50.0)),
        "item_ms_tail": float(np.percentile(latencies_ms, tail_q)),
    }


def measure(cli, workload: Workload, seed: int, seconds: float):
    out = OUT / f"item-{os.getpid()}.json"
    setup_raw, setup_s, probe_digests = measure_setup(workload, seed)
    warm = run_item(cli, warmup_item(workload, seed), out)
    if warm.error or any(d != warm.digest for d in probe_digests):
        raise SetupError(f"warm-up item not reproducible: {warm.error or 'digests differ'}")
    tally, gauge = Tally(RECHECK_POOL, seed), Gauge()
    decks = run_decks(cli, workload, seed, seconds, workload.min_decks, out, tally, gauge)
    rerun = recheck(cli, tally, RECHECK_SHARE * seconds * 1e3, out)
    tail_q = workload.tail_percentile
    metrics = {
        **timing(tally.scaled_ms, tail_q),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if workload.name == "domain-grid":
        # untimed and not an item: shows whether non-finite output persists
        probe = run_item(cli, DOMAIN_OVERFLOW_PROBE, out)
        overflow_probe = {"argv": list(DOMAIN_OVERFLOW_PROBE.argv), "error": probe.error or None}
    out.unlink(missing_ok=True)
    detail = {
        "tail_percentile": round(tail_q, 2),
        "items": tally.attempted,
        "decks": len(decks),
        "rechecked_items": rerun,
        "setup_probes": SETUP_PROBES,
        **tally.correctness(),
        "raw": {**timing(tally.ms, tail_q), "setup_s": setup_raw},
        "gauge": gauge.summary(),
    }
    if workload.name == "domain-grid":
        detail["overflow_probe"] = overflow_probe
    return tally, metrics, detail


def measure_traced(cli, workload: Workload, seed: int, seconds: float):
    out = OUT / f"item-{os.getpid()}.json"
    run_item(cli, warmup_item(workload, seed), out)
    plain = Tally(None, seed)
    decks = run_decks(cli, workload, seed, seconds / 2, 1, out, plain, Gauge())
    traced, tracer = Tally(None, seed), Tracer()
    tracer.install()
    try:
        run_decks(cli, workload, seed, 0, 0, out, traced, Gauge(), decks, tracer)
    finally:
        tracer.uninstall()
    for (_, a), (_, b) in zip(plain.kept, traced.kept):
        if a and b and a != b:
            traced.error(REPEAT_MISMATCH)
    plain_s, traced_s = sum(plain.scaled_ms) / 1e3, sum(traced.scaled_ms) / 1e3
    values = tracer.per_layer(traced.attempted)
    values["report.bytes"] = traced.nbytes / traced.attempted
    values["trace.items_per_s"] = traced.attempted / traced_s
    values["trace.untraced_items_per_s"] = plain.attempted / plain_s
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    both = plain.merged(traced)
    detail = {
        "items": traced.attempted,
        "decks": len(decks),
        "trace_overhead": traced_s / plain_s - 1.0,
        "absent": tracer.absent,
        **both.correctness(),
    }
    if workload.name == "random-dense":
        detail["layer_table_ms"] = layer_table(cli, out)
    out.unlink(missing_ok=True)
    return both, values, detail


def layer_table(cli, out: Path) -> dict:
    """ROADMAP split of `verify random --dim d --seed 1`, traced, per dim."""
    table = {}
    for dim in TABLE_DIMS:
        item = Item(("verify", "random", "--dim", str(dim), "--seed", "1"), f"dim{dim}", "verify", 1)
        tracer = Tracer()
        tracer.install()
        try:
            result = run_item(cli, item, out)
        finally:
            tracer.uninstall()
        row = {col: tracer.outermost_ms(groups) for col, groups in TABLE_COLUMNS.items()}
        row["total"] = result.ms
        row["eig_calls"] = tracer.calls["linalg.hermitian_eig"]
        row["eig_self_share"] = tracer.self_ms().get("linalg.hermitian_eig", 0.0) / result.ms
        table[f"dim{dim}"] = {k: round(v, 4) for k, v in row.items()}
    return table


# --- environment --------------------------------------------------------------


def environment(nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_loc = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "src_loc": src_loc,
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS numpy loaded, if it says."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    # one CPU for the run, its probes and the gauge, so the gauge samples
    # the CPU the items run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.probe:
            setup_probe(workload, args.seed, args.out)
            return 0
        cli = load_cli()
        OUT.mkdir(exist_ok=True)
        measure_run = measure_traced if args.trace else measure
        tally, metrics, detail = measure_run(cli, workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    unit_of = unit if args.trace else E2E_UNITS.get
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              **detail, "env": environment(nproc)}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
