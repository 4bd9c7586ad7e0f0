"""Command-line front end: verify / sweep / domain.

Reports are JSON-shaped, deterministic for identical parameters (seed
included), and written to stdout or --out.  Exit status is 0 only when
every check in every emitted report passed; usage errors exit 2 without
producing a report.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .domains import DEFAULT_N_MAX
from .linalg import DEFAULT_TOL
from .report import render_json, render_reports
from .sequences import parse_spec
from .suites import (
    run_domain,
    run_verify,
    sweep_projection,
    sweep_three_level,
)


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: '{text}'") from None
    if not math.isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL, help="residual tolerance (> 0)"
    )
    parser.add_argument(
        "--out", default=None, help="output path (default: standard output)"
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="rieszops",
        description=(
            "Construct operators defined by Riesz-basis pairs at finite "
            "truncation and verify their identities."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser("verify", help="run one verification suite")
    suites = verify.add_subparsers(dest="suite", required=True)

    three = suites.add_parser("three-level", help="3x3 one-parameter model")
    three.add_argument("--t", type=float, required=True, help="model parameter in [0, 2pi)")
    _add_common(three)

    proj = suites.add_parser("projection", help="rank-one projection model")
    proj.add_argument("--dim", type=int, default=8, help="truncation level")
    proj.add_argument("--n", type=int, default=3, help="support size of u")
    proj.add_argument("--alpha", default="poly:1", help="eigenvalue sequence spec")
    proj.add_argument("--gamma", default="sqrt-poly:1", help="ladder weight spec")
    _add_common(proj)

    rand = suites.add_parser("random", help="seeded random generator")
    rand.add_argument("--dim", type=int, default=8, help="truncation level")
    rand.add_argument("--alpha", default="poly:1", help="eigenvalue sequence spec")
    rand.add_argument("--gamma", default="sqrt-poly:1", help="ladder weight spec")
    _add_common(rand)

    sweep = commands.add_parser("sweep", help="run a suite over a parameter grid")
    grids = sweep.add_subparsers(dest="suite", required=True)

    sweep_three = grids.add_parser("three-level", help="sweep the model parameter t")
    sweep_three.add_argument("--t-min", type=float, default=0.0)
    sweep_three.add_argument("--t-max", type=float, required=True)
    sweep_three.add_argument("--steps", type=int, required=True)
    _add_common(sweep_three)

    sweep_proj = grids.add_parser("projection", help="sweep the support size")
    sweep_proj.add_argument("--dim", type=int, default=8)
    sweep_proj.add_argument("--n-min", type=int, required=True)
    sweep_proj.add_argument("--n-max", type=int, required=True)
    sweep_proj.add_argument("--alpha", default="poly:1")
    _add_common(sweep_proj)

    domain = commands.add_parser(
        "domain", help="summability verdict for a weight/coefficient pair"
    )
    domain.add_argument("--alpha", required=True, help="weight sequence spec")
    domain.add_argument("--coeff", required=True, help="coefficient sequence spec")
    domain.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    domain.add_argument("--out", default=None)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            if args.suite == "three-level":
                report = run_verify(
                    "three-level", t=args.t, seed=args.seed, tol=args.tol
                )
            elif args.suite == "projection":
                report = run_verify(
                    "projection",
                    dim=args.dim,
                    n=args.n,
                    seed=args.seed,
                    alpha=parse_spec(args.alpha),
                    gamma=parse_spec(args.gamma),
                    tol=args.tol,
                )
            else:
                report = run_verify(
                    "random",
                    dim=args.dim,
                    seed=args.seed,
                    alpha=parse_spec(args.alpha),
                    gamma=parse_spec(args.gamma),
                    tol=args.tol,
                )
            _emit(report.to_json(), args.out)
            return 0 if report.all_passed else 1

        if args.command == "sweep":
            if args.suite == "three-level":
                reports = sweep_three_level(
                    args.t_min, args.t_max, args.steps, seed=args.seed, tol=args.tol
                )
            else:
                reports = sweep_projection(
                    args.dim,
                    args.n_min,
                    args.n_max,
                    seed=args.seed,
                    alpha=parse_spec(args.alpha),
                    tol=args.tol,
                )
            _emit(render_reports(reports), args.out)
            return 0 if all(r.all_passed for r in reports) else 1

        # domain
        verdict = run_domain(
            parse_spec(args.alpha), parse_spec(args.coeff), args.n_max
        )
        doc = {
            "suite": "domain",
            "params": {
                "alpha": args.alpha,
                "coeff": args.coeff,
                "n_max": args.n_max,
            },
        }
        doc.update(verdict.to_dict())
        _emit(render_json(doc), args.out)
        return 0
    except ValueError as exc:
        parser.exit(2, f"rieszops: error: {exc}\n")
    return 2  # unreachable; parser.exit raises SystemExit


if __name__ == "__main__":
    sys.exit(main())
