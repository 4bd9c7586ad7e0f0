"""Command-line front end: verify / sweep / domain.

Reports are JSON-shaped, deterministic for identical parameters (seed
included), and written to stdout or --out.  Exit status is 0 only when
every check in every emitted report passed; usage errors exit 2 without
producing a report, and so does an --out path that cannot be written.

Each suite leaf is a row of SUITES: its help, its options, each declared
once, and the name of the `suites` function it calls, looked up on that
module at each call, so a function patched there is the one called.

The argparse tree is built once per process, every suite leaf from its
row.  A well-formed argv (the command words of a leaf, then (option,
value) pairs of its one-value options, each once, every required one
present, every value converting) is matched against that leaf's option
table, which is read from the leaf's own argparse Actions, so argparse
parses nothing.  Any other argv (help, "--", --opt=value, an
abbreviation, a negative number, a repeated or missing option, a rejected
value) is parsed by the root parser, so every help text, usage error and
exit code is argparse's.  A document is written to stdout as text, or to
--out as its UTF-8 bytes, with os.write calls on a raw file descriptor.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import platform
import sys
from typing import NamedTuple

from . import suites
from .domains import DEFAULT_N_MAX, summability_verdict
from .linalg import DEFAULT_TOL
from .report import render_domain, render_reports
from .sequences import MAX_SHARED_COUNT, parse_spec


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: '{text}'") from None
    if not math.isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _finite(text: str) -> float:
    """argparse type: a finite float, checked before any grid is built from it."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: '{text}'") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _int_in(low: int, high: int):
    """argparse type: an int in low..high, checked before anything is sized by it."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: '{text}'") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in {low}..{high}, got {value}")
        return value

    return parse


#: truncation levels (N <= 64), domain horizons and three-level grid sizes
_DIM = _int_in(1, 64)
_N_MAX = _int_in(64, MAX_SHARED_COUNT)
_STEPS = _int_in(2, 1000)


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One add_argument call, made on each leaf whose row lists it."""
    return flags, kwargs


_DIM_ARG = _arg("--dim", type=_DIM, default=8, help="truncation level, 1..64")
_ALPHA_ARG = _arg("--alpha", default="poly:1", help="eigenvalue sequence spec")
_GAMMA_ARG = _arg("--gamma", default="sqrt-poly:1", help="ladder weight spec")
#: the options every suite leaf ends with
_COMMON_ARGS = (
    _arg("--tol", type=_tolerance, default=DEFAULT_TOL, help="residual tolerance (> 0)"),
    _arg("--out", default=None, help="output path (default: standard output)"),
    _arg("--seed", type=int, default=0, help="random seed"),
)

#: the help of each command group whose leaves are suites
_GROUPS = {"verify": "run one verification suite", "sweep": "run a suite over a parameter grid"}
#: every suite leaf by its command words: its help, the name of the
#: `suites` function it calls, and its options before _COMMON_ARGS
SUITES = {
    ("verify", "three-level"): ("3x3 one-parameter model", "three_level_report", (
        _arg("--t", type=float, required=True, help="model parameter in [0, 2pi)"),
    )),
    ("verify", "projection"): ("rank-one projection model", "projection_report", (
        _DIM_ARG, _arg("--n", type=int, default=3, help="support size of u"),
        _ALPHA_ARG, _GAMMA_ARG,
    )),
    ("verify", "random"): (
        "seeded random generator", "random_report", (_DIM_ARG, _ALPHA_ARG, _GAMMA_ARG)
    ),
    ("sweep", "three-level"): ("sweep the model parameter t", "sweep_three_level", (
        _arg("--t-min", type=_finite, default=0.0),
        _arg("--t-max", type=_finite, required=True),
        _arg("--steps", type=_STEPS, required=True, help="grid points, 2..1000"),
    )),
    ("sweep", "projection"): ("sweep the support size", "sweep_projection", (
        _DIM_ARG,
        _arg("--n-min", type=int, required=True),
        _arg("--n-max", type=int, required=True),
        _arg("--alpha", default="poly:1"),
    )),
}


class _OptionTable(NamedTuple):
    """A leaf parser's one-value options, read from its Actions: the Action
    of each option string, the dest of each required Action, and the
    default of each dest, in the order argparse sets them."""

    options: dict[str, argparse.Action]
    required: frozenset[str]
    defaults: dict[str, object]

    @classmethod
    def of(cls, parser: argparse.ArgumentParser) -> _OptionTable:
        defaults = {}
        for action in parser._actions:
            if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                defaults.setdefault(action.dest, action.default)
        for dest, default in parser._defaults.items():
            defaults.setdefault(dest, default)
        return cls(
            {
                option: action
                for action in parser._actions
                if isinstance(action, argparse._StoreAction)
                and action.nargs is None
                and action.choices is None
                for option in action.option_strings
            },
            frozenset(action.dest for action in parser._actions if action.required),
            defaults,
        )

    def match(self, words: list[str]) -> argparse.Namespace | None:
        """The Namespace the leaf's argparse gives for words, when words are
        (option, value) pairs of this table, each option once, every
        required one present, no value empty or starting with "-", and each
        type call succeeds; else None."""
        if len(words) % 2:
            return None
        values = {}
        for option, value in zip(words[::2], words[1::2]):
            action = self.options.get(option)
            if action is None or not value or value[0] == "-" or action.dest in values:
                return None
            try:
                values[action.dest] = value if action.type is None else action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if not self.required <= values.keys():
            return None
        args = argparse.Namespace()
        vars(args).update(self.defaults)
        vars(args).update(values)
        return args


def build_parser() -> argparse.ArgumentParser:
    """The root of the argparse tree, built on first use and shared by every call."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[tuple[str, ...], _OptionTable]]:
    """The root parser, and the option table of each leaf parser by the
    command words that name it (("verify", "random"), ("domain",), ...),
    read once the tree is built."""
    parser = argparse.ArgumentParser(
        prog="rieszops",
        description=(
            "Construct operators defined by Riesz-basis pairs at finite "
            "truncation and verify their identities."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {
        name: commands.add_parser(name, help=text).add_subparsers(dest="suite", required=True)
        for name, text in _GROUPS.items()
    }
    leaves = {}
    for words, (text, _, options) in SUITES.items():
        leaves[words] = groups[words[0]].add_parser(words[1], help=text)
        for flags, kwargs in (*options, *_COMMON_ARGS):
            leaves[words].add_argument(*flags, **kwargs)

    domain = commands.add_parser("domain", help="summability verdict for a weight/coefficient pair")
    domain.add_argument("--alpha", required=True, help="weight sequence spec")
    domain.add_argument("--coeff", required=True, help="coefficient sequence spec")
    domain.add_argument(
        "--n-max", type=_N_MAX, default=DEFAULT_N_MAX, help="horizon, 64..2^20"
    )
    domain.add_argument("--out", default=None)
    leaves[("domain",)] = domain
    return parser, {words: _OptionTable.of(leaf) for words, leaf in leaves.items()}


@functools.cache
def _keep_heap() -> None:
    """Keep freed heap memory in the process, once per process, on glibc.

    A report at dim 48 or 64, or a stack of sweep points, frees more than
    glibc's default 128 KiB trim threshold, so free() hands the top of the
    heap back to the kernel and the next operator page-faults it in again.
    Any mallopt call also freezes glibc's dynamic mmap threshold, so it is
    raised too: frozen at 128 KiB, every 16384-term domain array would be
    mmapped afresh.  Neither setting changes a computed value.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # a refused setting (mallopt returns 0) only leaves glibc's default
    libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's maximum


def _emit(text: str, out: str | None) -> None:
    """Write text and a newline to stdout, or its UTF-8 bytes to the file
    out, created or truncated as open(out, "wb") does, with no buffered
    file object: os.write until every byte is written."""
    if out is None:
        sys.stdout.write(text + "\n")
        return
    # encoded before opening: a failed encode leaves no file
    data = memoryview((text + "\n").encode("utf-8"))
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data) :]
    finally:
        os.close(fd)


def parse_args(argv=None) -> argparse.Namespace:
    """build_parser().parse_args(argv): the match of the option table of the
    leaf that argv's command words name, or, when the words after them are
    not well formed (see the module docstring), the root parser's parse."""
    parser, tables = _parsers()
    words = sys.argv[1:] if argv is None else list(argv)
    for key in (tuple(words[:2]), tuple(words[:1])):
        if key in tables:
            args = tables[key].match(words[len(key) :])
            if args is not None:
                vars(args).update(zip(("command", "suite"), key))
                return args
            break
    return parser.parse_args(words)


def main(argv=None) -> int:
    _keep_heap()
    args = parse_args(argv)
    try:
        if args.command == "domain":
            verdict = summability_verdict(
                parse_spec(args.alpha), parse_spec(args.coeff), args.n_max
            )
            _emit(render_domain(args.alpha, args.coeff, args.n_max, verdict), args.out)
            return 0
        # the leaf's dests but --out, as keyword arguments; specs parsed
        result = getattr(suites, SUITES[args.command, args.suite][1])(**{
            dest: parse_spec(value) if dest in ("alpha", "gamma") else value
            for dest, value in vars(args).items()
            if dest not in ("command", "suite", "out")
        })
        if args.command == "sweep":
            _emit(render_reports(result), args.out)
            return 0 if all(r.all_passed for r in result) else 1
        _emit(result.to_json(), args.out)
        return 0 if result.all_passed else 1
    except (ValueError, OSError) as exc:
        build_parser().exit(2, f"rieszops: error: {exc}\n")
    return 2  # unreachable; parser.exit raises SystemExit


if __name__ == "__main__":
    sys.exit(main())
