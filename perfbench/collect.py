#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/collect.py [--workloads W ...] [--seeds 1 2 3] \
        [--seconds S] [--trace 0|1] [--json PATH]

For each workload and metric it prints the median over the seeds and the
spread (distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of the median),
next to the bound in BENCHMARK.json.  The correctness figures the run
prints beside its metrics (item_error_ratio, check_fail_ratio,
accuracy_digits) are summarized the same way, so one command shows all of
them by name and unit.  --json writes the raw runs and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: figures every run prints in its detail line, beside the gated metrics
REPORTED = {
    "item_error_ratio": "ratio",
    "check_fail_ratio": "ratio",
    "accuracy_digits": "decades",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    return {"seed": seed, "wall_s": wall_s, **json.loads(result_line), **json.loads(detail_line)}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else None


def summarize(runs: list[dict]) -> dict:
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    summary = {}
    names = list(runs[0]["metrics"]) + [k for k in REPORTED if runs[0]["detail"]["trace"] == 0]
    for name in names:
        if name in REPORTED:
            values = [r["detail"][name] for r in runs]
            unit = REPORTED[name]
        else:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
        values = [v for v in values if v is not None]
        if not values:
            summary[name] = {"unit": unit, "median": None}
            continue
        median, share = spread(values)
        summary[name] = {
            "unit": unit,
            "median": median,
            "spread": share,
            "bound": bounds.get(name),
            "min": min(values),
            "max": max(values),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write runs and summary here")
    args = parser.parse_args()

    record = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            print(f"  {workload} seed {seed}: attempted {run['attempted']} "
                  f"failed {run['failed']} correct {run['correct']} "
                  f"wall {run['wall_s']:.1f} s", file=sys.stderr)
        summary = summarize(runs)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
        items = statistics.median(r["detail"]["items"] for r in runs)
        tail = runs[0]["detail"].get("tail_percentile")
        print(f"\n{workload}  ({len(runs)} seeds, trace {args.trace}, median {items:g} "
              f"items per run" + (f", tail = p{tail}" if tail else "") + ")")
        for name, s in summary.items():
            if s["median"] is None:
                print(f"  {name:36s} {'n/a':>14s} {s['unit']}")
                continue
            bound = f"bound {s['bound']:.2f}" if s["bound"] is not None else ""
            share = "-" if s["spread"] is None else f"{s['spread']:.2%}"
            print(f"  {name:36s} {s['median']:14.6g} {s['unit']:10s} "
                  f"spread {share:>7s}  {bound}")
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
