"""The leading batch axis: a stacked call gives, point for point, the bits a
call on that point alone gives; a three-level sweep is one stacked battery."""

import math

import numpy as np
import pytest

from conftest import random_generator_matrix
from rieszops import (
    LinalgError,
    build_bundle,
    build_ladder,
    check_commutator,
    check_ladder_actions,
    check_ladder_adjoints,
    check_products,
    check_selfadjoint_h,
    from_generator,
    three_level,
)
from rieszops.linalg import frobenius
from rieszops.report import render_reports
from rieszops.sequences import geometric, parse_spec, sqrt_poly
from rieszops.suites import sweep_three_level, three_level_report

THIRD = math.pi / 3.0


@pytest.mark.parametrize("steps", [2, 11, 40])
@pytest.mark.parametrize(
    "t_min, t_max",
    [(THIRD - 0.3, THIRD + 0.3), (5 * THIRD - 0.3, 5 * THIRD + 0.3), (0.0, 6.2)],
    ids=["pi/3", "5pi/3", "whole-domain"],
)
def test_sweep_renders_the_single_point_reports(t_min, t_max, steps):
    reports = sweep_three_level(t_min, t_max, steps, seed=7)
    singles = [three_level_report(t, seed=7) for t in np.linspace(t_min, t_max, steps)]
    assert render_reports(reports) == render_reports(singles)
    if steps > 2:  # admissible and inadmissible points share the stack
        admissible = {r.checks[0].passed for r in reports}
        assert admissible == {True, False}


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 31, 32, 64])
@pytest.mark.parametrize("scale", [1e-16, 1e-8, 1.0, 1e3])
def test_frobenius_is_numpy_norm_of_each_slice(dim, scale):
    rng = np.random.default_rng(dim)
    stack = scale * (rng.normal(size=(7, dim, dim)) + 1j * rng.normal(size=(7, dim, dim)))
    got = frobenius(stack)
    assert got.shape == (7,)
    for k in range(7):
        assert got[k] == np.linalg.norm(stack[k])
    # a product's residual, the form the checks take
    diff = stack @ stack - stack.conj().swapaxes(-1, -2)
    for k in range(7):
        assert frobenius(diff)[k] == np.linalg.norm(stack[k] @ stack[k] - stack[k].conj().T)


def test_stacked_pair_raises_the_first_singular_slice():
    gens = np.stack([random_generator_matrix(np.random.default_rng(s), 4) for s in range(4)])
    gens[2, :, 0] = gens[2, :, 1]  # slice 2 has two equal columns
    gens[3, :, 0] = 0.0  # so has a later slice, with its own message
    with pytest.raises(LinalgError) as alone:
        from_generator(gens[2])
    with pytest.raises(LinalgError) as stacked:
        from_generator(gens)
    assert "numerically singular" in str(alone.value)
    assert str(stacked.value) == str(alone.value)


def test_model_domain_guard_names_the_first_bad_point():
    with pytest.raises(ValueError, match=r"^t = 7\.0 outside"):
        three_level(np.array([0.5, 7.0, -1.0]))


@pytest.mark.parametrize("steps", [11, 40])
def test_sweep_makes_two_eigensolves(monkeypatch, steps):
    """The metric eigendecomposition of every TT* and every ||H||, each one
    stacked call, however long the sweep."""
    eigh = np.linalg.eigh
    shapes = []

    def counted(m):
        shapes.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    sweep_three_level(0.8, 1.3, steps)
    assert shapes == [(steps, 3, 3), (steps, 3, 3)]


def _notes(check):
    return [r.note for r in check.results(0.0)]


def _stack_of_ladders():
    """Three points whose gamma differ in kind: gamma_0 = 0 and |.|-monotone;
    gamma_0 != 0 and not monotone; gamma_0 != 0, monotone and complex."""
    dim = 6
    gens = np.stack([random_generator_matrix(np.random.default_rng(s), dim) for s in (1, 2, 3)])
    gammas = np.stack(
        [
            sqrt_poly(1.0).terms(dim),
            parse_spec("affine:-1,3").terms(dim),
            geometric(1.1 + 0.3j).terms(dim),
        ]
    )
    return gens, gammas


@pytest.mark.parametrize(
    "check", [check_ladder_actions, check_ladder_adjoints, check_products, check_commutator]
)
def test_per_point_branches_match_single_points(check):
    gens, gammas = _stack_of_ladders()
    stacked = check(build_ladder(from_generator(gens), gammas))
    singles = [check(build_ladder(from_generator(g), w)) for g, w in zip(gens, gammas)]
    assert stacked.residual.tolist() == [float(c.residual) for c in singles]
    assert _notes(stacked) == [_notes(c)[0] for c in singles]


def test_realness_is_decided_per_point():
    gens, _ = _stack_of_ladders()
    complex_alpha = geometric(0.9 + 0.2j).terms(6)
    alpha = np.stack([np.arange(6.0), complex_alpha.real, complex_alpha])
    bundle = build_bundle(from_generator(gens), alpha.astype(complex))
    assert bundle.is_real.tolist() == [True, True, False]
    stacked = check_selfadjoint_h(bundle)
    singles = [check_selfadjoint_h(build_bundle(from_generator(g), a)) for g, a in zip(gens, alpha)]
    assert _notes(stacked) == [_notes(c)[0] for c in singles]
    assert "skipped: complex alpha" in _notes(stacked)[2]
