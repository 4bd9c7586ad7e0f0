"""Digest every document of a fixed CLI corpus, to compare two source trees.

    python3 tools/report_digests.py [--failures] SRC_DIR

imports `rieszops.cli` from SRC_DIR (the directory that holds the
`rieszops` package), runs `cli.main(argv)` in this process for each argv
of the corpus below, and prints one line per argv:

    <sha256 of stdout> <sha256 of stderr> <exit code> <argv, shell-quoted>

Run it on two trees and `diff` the outputs: an unchanged line means the
same stdout bytes, the same stderr bytes and the same exit code (argparse
wraps usage lines at the terminal width, so the tool sets COLUMNS=80).
The corpus is fixed: verify random over dims 1..64, seeds, real/complex
and |.|-monotone/non-monotone alpha and gamma (closed forms and 64-term
lists); verify and sweep projection; verify and sweep three-level across
the admissible boundaries; domain over a spec grid; a few reports at
extreme --tol values; then the largest three-level sweep the CLI allows
(1000 steps, one stack); then two long projection sweeps, of 31 supports
at dim 32 (three stacks) and 15 at dim 16 (one); last, the usage-errors
family, argv that exit 2 with a message on stderr.  After the digest lines
it writes to stderr, so that stdout stays comparable, the argv count, how
many argv ended with each exit code (so a change that alters every digest
still shows at a glance whether a verdict flipped), the wall time since it
started and the part of it each command's argv took (verify, sweep,
domain, usage-errors), the process's minor page faults (ru_minflt) and
peak resident set size (ru_maxrss, in MB: the memory that stacking sweep
points trades for speed), and how many documents are not strict RFC 8259
JSON (they hold NaN, Infinity or -Infinity).  The 1309 argv take 3-5 s on
a 2-vCPU x86_64 host.

With --failures it prints instead one row per check and argv family (the
command and suite, with --dim where given; the extreme --tol argv form a
family of their own): how many of the family's reports failed the check,
out of how many ran it, and the largest residual any of them recorded, at
17 significant digits.  Two trees with the same table have the same
failure counts and the same worst residuals; other residuals may differ.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shlex
import sys
import time
from pathlib import Path


def _list(values) -> str:
    return "list:" + ",".join(values)


#: 64-term lists: complex with alternating imaginary parts, real and not
#: |.|-monotone, and a complex gamma with growing modulus
COMPLEX_LIST = _list(f"{k}{(-1) ** k * 0.5:+g}j" for k in range(64))
REAL_LIST = _list(f"{(7 * k) % 11:g}" for k in range(64))
COMPLEX_GAMMA_LIST = _list(f"{math.sqrt(k):.6g}{0.1 * k:+.6g}j" for k in range(64))

RANDOM_DIMS = (1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 32, 48, 64)
RANDOM_ALPHAS = ("poly:2", "geometric:0.9+0.2j", "affine:-1,3", COMPLEX_LIST, REAL_LIST)
RANDOM_GAMMAS = ("sqrt-poly:1", "geometric:1.1+0.3j", COMPLEX_GAMMA_LIST, "affine:-1,3")
PROJECTION_ALPHAS = ("poly:1", "poly:2", "geometric:0.9+0.2j", "affine:-1,3", REAL_LIST)
PROJECTION_GAMMAS = ("sqrt-poly:1", "affine:-1,3")
THIRD = math.pi / 3.0
THREE_LEVEL_T = (0.0, 0.3, 0.8, THIRD - 1e-12, THIRD, 1.2, 3.0, 5.0 * THIRD, 5.5)
THREE_LEVEL_RANGES = (
    (0.0, 6.2), (0.8, 1.3), (0.9, 1.2), (5.0, 6.28), (0.0, 1.0), (1.0, 2.0)
)
DOMAIN_SPECS = (
    "poly:0", "poly:1", "poly:2", "sqrt-poly:1",
    "harmonic", "geometric:0.5", "geometric:1.01", "affine:1,2",
)
#: --tol at both extremes: far below rounding, every report still builds and
#: fails as a document; far above it, nothing the models build may change
TOL_FAMILY = (
    ("verify", "three-level", "--t", "0.3", "--tol", "1e-16"),
    ("verify", "random", "--dim", "8", "--tol", "1e-17"),
    ("verify", "projection", "--dim", "8", "--tol", "1e-17"),
    ("sweep", "three-level", "--t-max", "1", "--steps", "3", "--tol", "1e-16"),
    ("verify", "random", "--dim", "8", "--tol", "5"),
    ("verify", "projection", "--dim", "8", "--n", "5", "--tol", "0.3"),
    ("verify", "three-level", "--t", "0.3", "--tol", "5"),
    ("sweep", "three-level", "--t-max", "1", "--steps", "3", "--tol", "5"),
)
#: argv that exit 2, each with its own message: unknown words, values out of
#: range or not parsed, a missing option, and errors the suites raise
USAGE_ERRORS = (
    ("nope",),
    ("verify", "nope"),
    ("sweep",),
    ("verify", "random", "--bogus", "1"),
    ("verify", "three-level", "--t", "0.3", "junk"),
    ("verify", "projection", "--dim", "0"),
    ("domain", "--alpha", "poly:1"),
    ("verify", "three-level", "--t", "0.3", "--tol", "nan"),
    ("verify", "random", "--alpha", "garbage"),
    ("verify", "random", "--dim"),
    ("domain", "--alpha", "poly:1", "--coeff", "poly:1", "--n-max", "63"),
    ("sweep", "three-level", "--t-max", "1", "--steps", "1001"),
    ("sweep", "projection", "--dim", "8", "--n-min", "5", "--n-max", "9"),
    ("verify", "three-level", "--t", "7.0"),
)


def corpus():
    """Every argv, in a fixed order."""
    for dim in RANDOM_DIMS:
        for seed in (1, 2, 3):
            for alpha in RANDOM_ALPHAS:
                for gamma in RANDOM_GAMMAS:
                    yield ("verify", "random", "--dim", str(dim), "--seed", str(seed),
                           "--alpha", alpha, "--gamma", gamma)
    # dims 1 and 2, where truncated weights can be real or |.|-monotone
    # although the sequence is not; and a list that is real to 1e-12
    for dim in (1, 2, 3):
        for alpha, gamma in (("geometric:0.9+0.2j", "harmonic"), ("poly:1", "harmonic")):
            yield ("verify", "random", "--dim", str(dim), "--seed", "1",
                   "--alpha", alpha, "--gamma", gamma)
    yield ("verify", "random", "--dim", "3", "--seed", "1",
           "--alpha", "list:0,1+1e-12j,2")
    for dim in (8, 32, 64):
        for n in (2, 3, 5):
            for seed in (1, 2):
                for alpha in PROJECTION_ALPHAS:
                    for gamma in PROJECTION_GAMMAS:
                        yield ("verify", "projection", "--dim", str(dim), "--n", str(n),
                               "--seed", str(seed), "--alpha", alpha, "--gamma", gamma)
    yield ("verify", "projection", "--dim", "4", "--n", "2", "--alpha", "list:0,1,2,3")
    for dim in (8, 32, 64):
        for n_min, n_max in ((2, 4), (3, 6), (5, 8)):
            for alpha in PROJECTION_ALPHAS[:4]:
                yield ("sweep", "projection", "--dim", str(dim), "--n-min", str(n_min),
                       "--n-max", str(n_max), "--alpha", alpha)
    for t in THREE_LEVEL_T:
        yield ("verify", "three-level", "--t", repr(t))
    for t_min, t_max in THREE_LEVEL_RANGES:
        for seed in (1, 2):
            yield ("sweep", "three-level", "--t-min", repr(t_min), "--t-max", repr(t_max),
                   "--steps", "27", "--seed", str(seed))
    for alpha in DOMAIN_SPECS:
        for coeff in DOMAIN_SPECS:
            for n_max in (4096, 8192, 16384, 32768):
                yield ("domain", "--alpha", alpha, "--coeff", coeff, "--n-max", str(n_max))
    yield ("domain", "--alpha", "geometric:0.9+0.2j", "--coeff", "poly:-2")
    yield ("domain", "--alpha", COMPLEX_LIST, "--coeff", "geometric:0.5", "--n-max", "64")
    yield ("domain", "--alpha", "affine:1j,1", "--coeff", "harmonic")
    yield from TOL_FAMILY
    # the largest grid the CLI allows, last so that earlier lines stay comparable
    yield ("sweep", "three-level", "--t-max", "6.28", "--steps", "1000", "--seed", "3")
    # long projection sweeps, three stacks and one: real alpha, and complex
    # alpha, which does not run the real-alpha check selfadjoint_h
    yield ("sweep", "projection", "--dim", "32", "--n-min", "2", "--n-max", "32",
           "--seed", "5", "--alpha", "poly:2")
    yield ("sweep", "projection", "--dim", "16", "--n-min", "2", "--n-max", "16",
           "--seed", "2", "--alpha", "geometric:0.9+0.2j")
    yield from USAGE_ERRORS


def run(main, argv) -> tuple[str, int, str]:
    """(stdout, exit code, stderr) of main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), int(code), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def strict(text: str) -> bool:
    """Whether text parses as RFC 8259 JSON, which has no NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    try:
        json.loads(text, parse_constant=reject)
    except ValueError:
        return False
    return True


def exit_counts(codes) -> str:
    """How many argv ended with each exit code, e.g. "1225 exit 0, 70 exit 1"."""
    counts = sorted(collections.Counter(codes).items())
    return ", ".join(f"{n} exit {code}" for code, n in counts)


def family(argv) -> str:
    """The argv's command and suite, with its --dim; the --tol extremes apart."""
    if argv in TOL_FAMILY:
        return "tol-extremes"
    words = list(argv[:1] if argv[0] == "domain" else argv[:2])
    if "--dim" in argv:
        words.append("--dim " + argv[argv.index("--dim") + 1])
    return " ".join(words)


def failure_table(main) -> list[str]:
    """check x argv family -> failed, reports, worst residual (NaN worst)."""
    rows: dict[tuple[str, str], list] = {}
    for argv in corpus():
        text, _, _ = run(main, argv)
        docs = json.loads(text) if text else []  # a usage error prints nothing
        for doc in docs if isinstance(docs, list) else [docs]:
            for check in doc.get("checks", ()):
                row = rows.setdefault((check["name"], family(argv)), [0, 0, 0.0])
                residual = check["residual"]
                residual = math.nan if residual is None else residual  # null: not finite
                row[0] += not check["passed"]
                row[1] += 1
                nan = math.isnan(row[2]) or math.isnan(residual)
                row[2] = math.nan if nan else max(row[2], residual)
    width = max(len(name) for name, _ in rows)
    lines = [f"{'check':<{width}}  {'family':<26} failed reports  worst residual"]
    for (name, fam), (failed, total, worst) in sorted(rows.items()):
        lines.append(f"{name:<{width}}  {fam:<26} {failed:>6} {total:>7}  {worst:.17g}")
    return lines


def main() -> int:
    start = time.perf_counter()
    args = sys.argv[1:]
    table = args[:1] == ["--failures"]
    if len(args) != 1 + table:
        sys.stderr.write(__doc__)
        return 2
    os.environ["COLUMNS"] = "80"  # the width argparse wraps usage lines at
    src = Path(args[-1]).resolve()
    sys.path.insert(0, str(src))
    from rieszops import cli

    if Path(cli.__file__).resolve().parents[1] != src:
        sys.stderr.write(f"rieszops imported from {cli.__file__}, not from {src}\n")
        return 2
    if table:
        print("\n".join(failure_table(cli.main)))
        return 0
    codes, loose, wall = [], 0, collections.Counter()
    for argv in corpus():
        tick = time.perf_counter()
        text, code, err = run(cli.main, argv)
        wall["usage-errors" if argv in USAGE_ERRORS else argv[0]] += time.perf_counter() - tick
        print(sha256(text), sha256(err), code, shlex.join(argv))
        codes.append(code)
        loose += bool(text) and not strict(text)  # a usage error prints nothing
    usage = resource.getrusage(resource.RUSAGE_SELF)
    sys.stdout.flush()
    commands = ", ".join(f"{command} {seconds:.2f} s" for command, seconds in wall.items())
    sys.stderr.write(
        f"{len(codes)} argv ({exit_counts(codes)}) in {time.perf_counter() - start:.2f} s wall "
        f"({commands}), {usage.ru_minflt} minor page faults, {usage.ru_maxrss / 1024:.1f} MB "
        f"peak RSS, {loose} documents not strict JSON\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
