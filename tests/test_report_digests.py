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
