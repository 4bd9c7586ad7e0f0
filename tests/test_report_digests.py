"""Smoke test of tools/report_digests.py, the corpus digest that every
byte-identical output claim is checked with."""

import importlib.util
import json
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


def test_corpus_is_1295_distinct_argv(digests):
    argvs = list(digests.corpus())
    assert len(argvs) == 1295
    assert len(set(argvs)) == len(argvs)


def test_run_returns_the_document_and_exit_code(digests):
    argvs = list(digests.corpus())
    verify = next(argv for argv in argvs if argv[0] == "verify")
    domain = next(argv for argv in argvs if argv[0] == "domain")
    for argv in (verify, domain):
        text, code = digests.run(cli.main, argv)
        assert code == 0, argv
        assert json.loads(text), argv
    text, code = digests.run(cli.main, digests.TOL_FAMILY[0])
    assert code == 1
    assert json.loads(text)["summary"]["failed"] > 0


def test_tol_extremes_form_their_own_family(digests):
    assert {digests.family(argv) for argv in digests.TOL_FAMILY} == {"tol-extremes"}
    assert digests.family(("verify", "random", "--dim", "8")) == "verify random --dim 8"


def test_strict_counts_only_rfc_8259_documents(digests):
    overflow = ("domain", "--alpha", "geometric:1.01", "--coeff", "geometric:1.01",
                "--n-max", "32768")
    assert overflow in set(digests.corpus())
    text, code = digests.run(cli.main, overflow)
    assert code == 0 and not digests.strict(text)
    huge = ("verify", "random", "--dim", "4", "--alpha", "affine:1e300,0")
    text, code = digests.run(cli.main, huge)
    assert code == 1 and digests.strict(text)
    assert digests.strict("[]") and not digests.strict("[NaN]")


def test_failure_table_counts_a_null_residual_as_nan(digests, monkeypatch):
    huge = ("verify", "random", "--dim", "4", "--alpha", "affine:1e300,0")
    monkeypatch.setattr(digests, "corpus", lambda: [huge])
    rows = {line.split()[0]: line.split()[-3:] for line in digests.failure_table(cli.main)[1:]}
    assert rows["intertwining"] == ["1", "1", "nan"]
    assert rows["biorthogonality"][:2] == ["0", "1"]
