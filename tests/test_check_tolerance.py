"""The check tolerance sets verdicts and nothing else: no builder or kernel
guard reads it, so a report's residuals and notes do not depend on it, and a
residual above it is a failed check in a document, never a usage error."""

import json

import numpy as np
import pytest

from conftest import random_generator_matrix, result
from rieszops import build_bundle, build_ladder, from_generator
from rieszops.cli import main
from rieszops.report import ReportStack
from rieszops.sequences import poly, sqrt_poly
from rieszops.suites import (
    _ladder_checks,
    projection_report,
    random_report,
    three_level_report,
)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "three-level", "--t", "0.3", "--tol", "1e-16"], 1),
        (["verify", "random", "--dim", "8", "--tol", "1e-17"], 1),
        (["verify", "projection", "--dim", "8", "--tol", "1e-17"], 1),
        (["sweep", "three-level", "--t-max", "1", "--steps", "3", "--tol", "1e-16"], 1),
        (["verify", "random", "--dim", "8", "--tol", "5"], 0),
        (["verify", "three-level", "--t", "0.3", "--tol", "5"], 0),
    ],
)
def test_extreme_tol_gives_a_document(capsys, argv, code):
    assert main(argv) == code
    doc = json.loads(capsys.readouterr().out)
    reports = doc if isinstance(doc, list) else [doc]
    assert all(r["summary"]["failed"] == 0 for r in reports) == (code == 0)


def _residuals_and_notes(report):
    return [(c.name, c.residual, c.note) for c in report.checks]


@pytest.mark.parametrize(
    "make, tols",
    [
        (lambda tol: projection_report(8, 5, seed=0, tol=tol), (1e-10, 0.3)),
        (lambda tol: random_report(8, seed=1, alpha=poly(2.0), tol=tol), (1e-16, 1e-3)),
        (lambda tol: three_level_report(0.3, tol=tol), (1e-10, 5.0)),
        (lambda tol: random_report(8, seed=0, tol=tol), (1e-10, 5.0)),
        (lambda tol: projection_report(8, 3, seed=0, tol=tol), (1e-10, 5.0)),
    ],
)
def test_tol_moves_no_residual_or_note(make, tols):
    tight, loose = (make(tol) for tol in tols)
    assert _residuals_and_notes(tight) == _residuals_and_notes(loose)


def _factorization(report):
    (check,) = [c for c in report.checks if c.name == "factorization"]
    return check


def test_perturbed_H_fails_factorization():
    # a report is a batch of one point
    pair = from_generator(random_generator_matrix(np.random.default_rng(4), 8)[None])
    bundle = build_bundle(pair, poly(1.0).terms(8)[None])
    h = bundle.H_phi_psi.copy()
    h[0, 3, 5] += 1e-8
    stack = ReportStack("random", [{}])
    gamma = sqrt_poly(1.0).terms(8)[None]
    _ladder_checks(stack, pair, bundle.weights, bundle.is_real, h, gamma, 1e-10)
    check = _factorization(stack.reports()[0])
    assert not check.passed
    assert check.residual == pytest.approx(1e-8, rel=1e-3)


def test_factorization_residual_is_whole_space_max():
    rng = np.random.default_rng(2)
    pair = from_generator(random_generator_matrix(rng, 64))
    alpha = poly(2.0).terms(64)
    lp = build_ladder(pair, np.sqrt(alpha.real).astype(complex))
    expected = np.abs(lp.B_phi_psi @ lp.A_phi_psi - build_bundle(pair, alpha).H_phi_psi)
    check = _factorization(random_report(64, seed=2, alpha=poly(2.0)))
    assert check.residual == float(expected.max())
    assert check.note == (
        "H - alpha_0 I = BA entrywise for gamma_n = sqrt(alpha_n - alpha_0); "
        "alpha is real and strictly increasing: the paper's hypotheses hold"
    )


def test_dim_1_report_has_no_ladder_block():
    names = [c.name for c in random_report(1, seed=1, alpha=poly(2.0)).checks]
    assert not [n for n in names if n.startswith("ladder_") or n == "factorization"]
