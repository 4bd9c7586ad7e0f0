"""Smoke test of tools/report_digests.py, the corpus digest that every
byte-identical output claim is checked with."""

import hashlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from rieszops import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_is_1309_distinct_argv(digests):
    argvs = list(digests.corpus())
    assert len(argvs) == 1309
    assert len(set(argvs)) == len(argvs)
    assert argvs[-len(digests.USAGE_ERRORS):] == list(digests.USAGE_ERRORS)


def test_usage_errors_exit_2_with_distinct_messages(digests, monkeypatch):
    """Each usage error prints no document and its own message."""
    monkeypatch.setenv("COLUMNS", "80")
    messages = []
    for argv in digests.USAGE_ERRORS:
        text, code, err = digests.run(cli.main, argv)
        assert (text, code) == ("", 2), argv
        assert "error: " in err.splitlines()[-1], argv
        messages.append(err)
    assert len(set(messages)) == len(messages)


def test_run_returns_the_document_and_exit_code(digests):
    argvs = list(digests.corpus())
    verify = next(argv for argv in argvs if argv[0] == "verify")
    domain = next(argv for argv in argvs if argv[0] == "domain")
    for argv in (verify, domain):
        text, code, err = digests.run(cli.main, argv)
        assert code == 0 and err == "", argv
        assert json.loads(text), argv
    text, code, _ = digests.run(cli.main, digests.TOL_FAMILY[0])
    assert code == 1
    assert json.loads(text)["summary"]["failed"] > 0


def leaf_of(argv) -> tuple[str, ...]:
    """The command words of the leaf argv names: a row of cli.SUITES, or domain."""
    return tuple(argv[:2]) if tuple(argv[:2]) in cli.SUITES else tuple(argv[:1])


@pytest.mark.parametrize("leaf", [*cli.SUITES, ("domain",)], ids=" ".join)
def test_every_leaf_has_a_document_and_a_usage_error(digests, leaf):
    """The corpus keeps in step with the suite table: each leaf has an argv
    that writes a document (exit 0 or 1) and one in USAGE_ERRORS."""
    assert any(leaf_of(argv) == leaf for argv in digests.USAGE_ERRORS), leaf
    documents = (
        argv for argv in digests.corpus()
        if leaf_of(argv) == leaf and argv not in digests.USAGE_ERRORS
    )
    assert any(digests.run(cli.main, argv)[1] in (0, 1) for argv in documents), leaf


def test_tol_extremes_form_their_own_family(digests):
    assert {digests.family(argv) for argv in digests.TOL_FAMILY} == {"tol-extremes"}
    assert digests.family(("verify", "random", "--dim", "8")) == "verify random --dim 8"


def test_strict_counts_only_rfc_8259_documents(digests):
    overflow = ("domain", "--alpha", "geometric:1.01", "--coeff", "geometric:1.01",
                "--n-max", "32768")
    assert overflow in set(digests.corpus())
    text, code, _ = digests.run(cli.main, overflow)
    assert code == 0 and digests.strict(text)
    huge = ("verify", "random", "--dim", "4", "--alpha", "affine:1e300,0")
    text, code, _ = digests.run(cli.main, huge)
    assert code == 1 and digests.strict(text)
    assert digests.strict("[]") and not digests.strict("[NaN]")


def test_failure_table_counts_a_null_residual_as_nan(digests, monkeypatch):
    huge = ("verify", "random", "--dim", "4", "--alpha", "affine:1e300,0")
    monkeypatch.setattr(digests, "corpus", lambda: [huge])
    rows = {line.split()[0]: line.split()[-3:] for line in digests.failure_table(cli.main)[1:]}
    assert rows["intertwining"] == ["1", "1", "nan"]
    assert rows["biorthogonality"][:2] == ["0", "1"]


def test_exit_counts_name_each_code_in_order(digests):
    assert digests.exit_counts([1, 0, 0, 2, 0, 1]) == "3 exit 0, 2 exit 1, 1 exit 2"
    assert digests.exit_counts([]) == ""


def test_summary_counts_exit_codes_and_keeps_stdout(digests, monkeypatch, capsys):
    """stderr gains how many argv ended with each exit code, the wall time
    of each command's argv, the usage errors apart, and the process's peak
    RSS; stdout stays one line of digests per argv."""
    argvs = [("verify", "three-level", "--t", "0.3"), digests.TOL_FAMILY[0],
             digests.USAGE_ERRORS[5],
             ("domain", "--alpha", "poly:1", "--coeff", "harmonic", "--n-max", "64"),
             ("sweep", "three-level", "--t-max", "1", "--steps", "2")]
    monkeypatch.setattr(digests, "corpus", lambda: argvs)
    monkeypatch.setattr(sys, "argv", ["report_digests.py", str(Path(cli.__file__).parents[1])])
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("COLUMNS", "80")
    assert digests.main() == 0
    out, err = capsys.readouterr()
    assert [line.split()[2] for line in out.splitlines()] == ["0", "1", "2", "0", "0"]
    for line, argv in zip(out.splitlines(), argvs):
        text, _, stderr = digests.run(cli.main, argv)
        digest = [hashlib.sha256(s.encode("utf-8")).hexdigest() for s in (text, stderr)]
        assert line.split()[:2] == digest
    assert err.startswith("5 argv (3 exit 0, 1 exit 1, 1 exit 2) in ")
    wall = re.search(r" in ([0-9.]+) s wall \((.*)\), ", err)
    commands = [part.split() for part in wall.group(2).split(", ")]
    assert [(command, unit) for command, _, unit in commands] == [
        ("verify", "s"), ("usage-errors", "s"), ("domain", "s"), ("sweep", "s")
    ]
    parts = sum(float(seconds) for _, seconds, _ in commands)
    assert parts <= float(wall.group(1)) + 0.02  # each figure rounded to 0.01 s
    rss = re.search(r" faults, ([0-9.]+) MB peak RSS, 0 documents not strict JSON\n$", err)
    assert rss and float(rss.group(1)) > 0.0
