"""Command-line front end: verify / sweep / domain.

Reports are JSON-shaped, deterministic for identical parameters (seed
included), and written to stdout or --out.  Exit status is 0 only when
every check in every emitted report passed; usage errors exit 2 without
producing a report, and so does an --out path that cannot be written.

The argparse tree is built once per process.  A well-formed argv (the
command words of a leaf, then (option, value) pairs of its one-value
options, each once, every required one present, every value converting)
is matched against that leaf's option table, which is read from the
leaf's own argparse Actions, so argparse parses nothing.  Any other argv
(help, "--", --opt=value, an abbreviation, a negative number, a repeated
or missing option, a rejected value) is parsed by the root parser, so
every help text, usage error and exit code is argparse's.  A document is
written to stdout as text, or to --out as one bytes write.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import mmap
import platform
import sys
from typing import NamedTuple

from .domains import DEFAULT_N_MAX, summability_verdict
from .linalg import DEFAULT_TOL
from .report import render_domain, render_reports
from .sequences import parse_spec
from .suites import (
    projection_report,
    random_report,
    sweep_projection,
    sweep_three_level,
    three_level_report,
)


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: '{text}'") from None
    if not math.isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
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
_N_MAX = _int_in(64, 2**20)
_STEPS = _int_in(2, 1000)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL, help="residual tolerance (> 0)"
    )
    parser.add_argument(
        "--out", default=None, help="output path (default: standard output)"
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")


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
    leaves = {}

    def leaf(commands, *words: str, **kwargs) -> argparse.ArgumentParser:
        leaves[words] = commands.add_parser(words[-1], **kwargs)
        return leaves[words]

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

    three = leaf(suites, "verify", "three-level", help="3x3 one-parameter model")
    three.add_argument("--t", type=float, required=True, help="model parameter in [0, 2pi)")
    _add_common(three)

    proj = leaf(suites, "verify", "projection", help="rank-one projection model")
    proj.add_argument("--dim", type=_DIM, default=8, help="truncation level, 1..64")
    proj.add_argument("--n", type=int, default=3, help="support size of u")
    proj.add_argument("--alpha", default="poly:1", help="eigenvalue sequence spec")
    proj.add_argument("--gamma", default="sqrt-poly:1", help="ladder weight spec")
    _add_common(proj)

    rand = leaf(suites, "verify", "random", help="seeded random generator")
    rand.add_argument("--dim", type=_DIM, default=8, help="truncation level, 1..64")
    rand.add_argument("--alpha", default="poly:1", help="eigenvalue sequence spec")
    rand.add_argument("--gamma", default="sqrt-poly:1", help="ladder weight spec")
    _add_common(rand)

    sweep = commands.add_parser("sweep", help="run a suite over a parameter grid")
    grids = sweep.add_subparsers(dest="suite", required=True)

    sweep_three = leaf(grids, "sweep", "three-level", help="sweep the model parameter t")
    sweep_three.add_argument("--t-min", type=float, default=0.0)
    sweep_three.add_argument("--t-max", type=float, required=True)
    sweep_three.add_argument(
        "--steps", type=_STEPS, required=True, help="grid points, 2..1000"
    )
    _add_common(sweep_three)

    sweep_proj = leaf(grids, "sweep", "projection", help="sweep the support size")
    sweep_proj.add_argument(
        "--dim", type=_DIM, default=8, help="truncation level, 1..64"
    )
    sweep_proj.add_argument("--n-min", type=int, required=True)
    sweep_proj.add_argument("--n-max", type=int, required=True)
    sweep_proj.add_argument("--alpha", default="poly:1")
    _add_common(sweep_proj)

    domain = leaf(commands, "domain", help="summability verdict for a weight/coefficient pair")
    domain.add_argument("--alpha", required=True, help="weight sequence spec")
    domain.add_argument("--coeff", required=True, help="coefficient sequence spec")
    domain.add_argument(
        "--n-max", type=_N_MAX, default=DEFAULT_N_MAX, help="horizon, 64..2^20"
    )
    domain.add_argument("--out", default=None)
    return parser, {words: _OptionTable.of(leaf) for words, leaf in leaves.items()}


#: faulted-in free heap kept above the highest block a command has placed
_HEADROOM = 1 << 20
_MADV_POPULATE_WRITE = 23  # Linux 5.14 and later


class _MallInfo2(ctypes.Structure):
    """glibc's struct mallinfo2 (glibc 2.33 and later)."""

    _fields_ = [
        (name, ctypes.c_size_t)
        for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd",
            "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
        )
    ]


@functools.cache
def _keep_heap() -> ctypes.CDLL | None:
    """Keep freed heap memory in the process, once per process, on glibc;
    returns the C library, with the calls _reserve_headroom makes typed,
    or None off glibc.

    A report at dim 48 or 64, or a stack of sweep points, frees more than
    glibc's default 128 KiB trim threshold, so free() hands the top of the
    heap back to the kernel and the next operator page-faults it in again.
    Any mallopt call also freezes glibc's dynamic mmap threshold, so it is
    raised too: frozen at 128 KiB, every 16384-term domain array would be
    mmapped afresh.  Neither setting changes a computed value.
    """
    if platform.libc_ver()[0] != "glibc":
        return None
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # a refused setting (mallopt returns 0) only leaves glibc's default
    libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's maximum
    libc.sbrk.argtypes, libc.sbrk.restype = [ctypes.c_ssize_t], ctypes.c_void_p
    libc.malloc.argtypes, libc.malloc.restype = [ctypes.c_size_t], ctypes.c_void_p
    libc.free.argtypes, libc.free.restype = [ctypes.c_void_p], None
    libc.madvise.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    libc.madvise.restype = ctypes.c_int
    if hasattr(libc, "mallinfo2"):
        libc.mallinfo2.argtypes, libc.mallinfo2.restype = [], _MallInfo2
    return libc


#: the program break when _reserve_headroom last grew the heap
_heap_end: int | None = None


def _reserve_headroom(libc: ctypes.CDLL) -> None:
    """Keep _HEADROOM of faulted-in free heap above every block placed so
    far, whenever the heap has grown since the last call.

    The trim threshold keeps what a command freed, but two runs of one
    command do not place their blocks alike: what the commands between
    them keep (numpy's cache of small arrays, lazily built numpy tables)
    moves the free gaps, so a dim-64 operator can land above every block
    before it and page-fault fresh memory in.  So the heap is grown by
    _HEADROOM (one malloc larger than its top chunk, freed again), then
    every page of the heap is faulted in: a later block that lands up to
    _HEADROOM higher than any before it finds its pages resident.  Costs
    about _HEADROOM of resident memory; changes no computed value.  Needs
    mallinfo2; a kernel without MADV_POPULATE_WRITE only leaves the pages
    to fault in on first use.
    """
    global _heap_end
    if not hasattr(libc, "mallinfo2") or libc.sbrk(0) == _heap_end:
        return
    libc.free(libc.malloc(libc.mallinfo2().keepcost + _HEADROOM))
    _heap_end = libc.sbrk(0)
    start = _heap_end - libc.mallinfo2().arena
    start += -start % mmap.PAGESIZE
    libc.madvise(start, _heap_end - start, _MADV_POPULATE_WRITE)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        data = (text + "\n").encode("utf-8")  # before opening: a failed encode leaves no file
        with open(out, "wb") as fh:
            fh.write(data)


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
    libc = _keep_heap()
    if libc is not None:
        _reserve_headroom(libc)
    args = parse_args(argv)
    try:
        if args.command == "verify":
            common = {"seed": args.seed, "tol": args.tol}
            if args.suite == "three-level":
                report = three_level_report(args.t, **common)
            else:
                common.update(alpha=parse_spec(args.alpha), gamma=parse_spec(args.gamma))
                if args.suite == "projection":
                    report = projection_report(args.dim, args.n, **common)
                else:
                    report = random_report(args.dim, **common)
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
        verdict = summability_verdict(
            parse_spec(args.alpha), parse_spec(args.coeff), args.n_max
        )
        _emit(render_domain(args.alpha, args.coeff, args.n_max, verdict), args.out)
        return 0
    except (ValueError, OSError) as exc:
        build_parser().exit(2, f"rieszops: error: {exc}\n")
    return 2  # unreachable; parser.exit raises SystemExit


if __name__ == "__main__":
    sys.exit(main())
