"""Mutation table for the ladder block: which checks catch which mutants.

Each mutant is a semantic fault applied in-process by monkeypatching a
function the suites reach through its module, never by editing source.
Every mutant must fail at least one check on the fixed argv set below, and
CATCHES keeps the full mutant x check matrix, so a change that lets a check
go blind to a mutant shows up as a diff of this table.
"""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest

from rieszops import cli, ladder, models

ARGV = {
    "three-level t=0.3": ("verify", "three-level", "--t", "0.3"),
    "three-level t=1.2": ("verify", "three-level", "--t", "1.2"),
    "random real": ("verify", "random", "--dim", "8"),
    "random complex-gamma": ("verify", "random", "--dim", "8", "--gamma", "geometric:1.1+0.3j"),
}


def swap_a_and_b(monkeypatch):
    """build_ladder returns B as A and A as B."""
    build = ladder.build_ladder

    def swapped(pair, weights):
        lp = build(pair, weights)
        return dataclasses.replace(lp, A_phi_psi=lp.B_phi_psi, B_phi_psi=lp.A_phi_psi)

    monkeypatch.setattr(ladder, "build_ladder", swapped)


def adjoints_without_conjugate(monkeypatch):
    """check_ladder_adjoints compares against the ladder itself, not the
    ladder of the conjugated weights."""
    check = ladder.check_ladder_adjoints

    def unconjugated(lp):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(ladder, "build_ladder", lambda pair, weights: lp)
            return check(lp)

    monkeypatch.setattr(ladder, "check_ladder_adjoints", unconjugated)


def closed_forms_real_part(monkeypatch):
    """The closed-form A(t), B(t) with their imaginary parts dropped: the
    same matrices wherever gamma is real."""
    closed = models.three_level_ladder_closed_forms

    def real_part(model):
        a, b = closed(model)
        return a.real.astype(complex), b.real.astype(complex)

    monkeypatch.setattr(models, "three_level_ladder_closed_forms", real_part)


def factorize_from_alpha_1(monkeypatch):
    """factorize_from_alpha takes gamma_n = sqrt(alpha_n - alpha_1)."""
    factorize = ladder.factorize_from_alpha

    def shifted(bundle):
        _, failed, reasons = factorize(bundle)
        a = bundle.weights
        return np.sqrt((a - a[..., 1:2]).astype(complex)), failed, reasons

    monkeypatch.setattr(ladder, "factorize_from_alpha", shifted)


def ab_formed_as_ba(monkeypatch):
    """LadderPair.AB returns B A."""
    monkeypatch.setattr(ladder.LadderPair, "AB", property(lambda lp: lp.BA))


MUTANTS = {
    "swap A and B": swap_a_and_b,
    "adjoints without conjugate": adjoints_without_conjugate,
    "closed forms real part": closed_forms_real_part,
    "factorize from alpha_1": factorize_from_alpha_1,
    "AB formed as BA": ab_formed_as_ba,
}

_LADDER = ("ladder_actions", "ladder_adjoints", "ladder_products", "factorization")
_THREE_LEVEL_LADDER = ("ladder_adjoint_actions", "hat_spectrum", "printed_ladder_matrices")

#: mutant -> argv -> the checks that fail there, in report order; None is
#: the unmutated code.  Only t = 1.2 (gamma_1 imaginary) and the complex
#: gamma see the two conjugation mutants: no admissible three-level report
#: catches either.
CATCHES = {
    None: {"three-level t=1.2": ("admissible",)},
    "swap A and B": {
        "three-level t=0.3": _LADDER + _THREE_LEVEL_LADDER,
        "three-level t=1.2": ("admissible", *_LADDER, *_THREE_LEVEL_LADDER),
        "random real": _LADDER,
        "random complex-gamma": _LADDER,
    },
    "adjoints without conjugate": {
        "three-level t=1.2": ("admissible", "ladder_adjoints"),
        "random complex-gamma": ("ladder_adjoints",),
    },
    "closed forms real part": {
        "three-level t=1.2": ("admissible", "printed_ladder_matrices"),
    },
    "factorize from alpha_1": {
        "three-level t=0.3": ("factorization",),
        "three-level t=1.2": ("admissible", "factorization"),
        "random real": ("factorization",),
        "random complex-gamma": ("factorization",),
    },
    "AB formed as BA": {
        "three-level t=0.3": ("ladder_products", "hat_spectrum"),
        "three-level t=1.2": ("admissible", "ladder_products", "hat_spectrum"),
        "random real": ("ladder_products",),
        "random complex-gamma": ("ladder_products",),
    },
}


def failed_checks(argv) -> tuple[str, ...]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    failed = tuple(c["name"] for c in json.loads(out.getvalue())["checks"] if not c["passed"])
    assert code == (1 if failed else 0)
    return failed


def catch_row(monkeypatch, mutant) -> dict[str, tuple[str, ...]]:
    with monkeypatch.context() as patched:
        if mutant is not None:
            MUTANTS[mutant](patched)
        row = {name: failed_checks(argv) for name, argv in ARGV.items()}
    return {name: failed for name, failed in row.items() if failed}


@pytest.mark.parametrize("mutant", [None, *MUTANTS])
def test_catch_matrix(monkeypatch, mutant):
    assert catch_row(monkeypatch, mutant) == CATCHES[mutant]


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_every_mutant_is_caught(mutant):
    """Beyond the unmutated failures: some check fails at some argv."""
    caught = {
        (name, check)
        for name, checks in CATCHES[mutant].items()
        for check in checks
        if check not in CATCHES[None].get(name, ())
    }
    assert caught
