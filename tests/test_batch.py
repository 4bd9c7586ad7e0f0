"""The leading batch axis: a stacked call gives, point for point, the bits a
call on that point alone gives; a sweep runs as stacked batteries of at most
three dim-64 reports' entries each."""

import math

import numpy as np
import pytest

from conftest import random_generator_matrix, results, solver_shapes
from rieszops import (
    DEFAULT_TOL,
    LinalgError,
    basis,
    build_bundle,
    build_ladder,
    check_ladder_actions,
    check_products,
    check_selfadjoint_h,
    frame_inequality_check,
    from_generator,
    three_level,
)
from rieszops.linalg import frobenius
from rieszops.report import render_reports
from rieszops.sequences import geometric, parse_spec, poly, sqrt_poly
from rieszops.suites import (
    _random_block,
    projection_report,
    sweep_projection,
    sweep_three_level,
    three_level_report,
)

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


@pytest.mark.parametrize("steps", [11, 40, 455, 1000])
def test_sweep_makes_two_svds(monkeypatch, steps):
    """The SVD of every generator T (frame bounds and metric roots) and the
    singular values alone of every H (for ||H||), each one stacked call, for
    any grid of at most 3 * 4096 // 3**2 = 1365 steps: the longest sweep the
    CLI allows, 1000 steps, is one stack."""
    shapes = solver_shapes(monkeypatch, lambda: sweep_three_level(0.8, 1.3, steps))
    assert shapes == [((steps, 3, 3), True), ((steps, 3, 3), False)]


def test_longer_sweep_runs_in_stacks_of_1365(monkeypatch):
    shapes = solver_shapes(monkeypatch, lambda: sweep_three_level(0.8, 1.3, 2000))
    stacks = [((k, 3, 3), uv) for k in (1365, 635) for uv in (True, False)]
    assert shapes == stacks


def _notes(check):
    return [r.note for r in results(check, 0.0)]


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


@pytest.mark.parametrize("check", [check_ladder_actions, check_products])
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
    assert stacked.residual.tolist() == [float(c.residual) for c in singles]
    # h is self-adjoint only where alpha is real
    assert [r.passed for r in results(stacked, DEFAULT_TOL)] == [True, True, False]


@pytest.mark.parametrize(
    "dim, n_min, n_max, alpha",
    [
        (2, 2, 2, "poly:2"),
        (8, 2, 8, "geometric:0.9+0.2j"),
        (16, 2, 16, "poly:1"),
        (32, 2, 10, "poly:2"),  # one stack of 9
        (32, 3, 7, "geometric:0.9+0.2j"),  # one stack of 5, complex alpha
        (32, 2, 20, "poly:2"),  # stacks of 12 and 7
        (32, 3, 16, "geometric:0.9+0.2j"),  # stacks of 12 and 2, complex alpha
        (48, 2, 3, "affine:-1,3"),
        (64, 5, 6, "poly:1"),  # one stack of 2
        (64, 4, 8, "poly:1"),  # stacks of 3 and 2
        (64, 2, 5, "geometric:0.9+0.2j"),  # stacks of 3 and 1, complex alpha
    ],
)
def test_projection_sweep_renders_the_single_point_reports(dim, n_min, n_max, alpha):
    spec = parse_spec(alpha)
    reports = sweep_projection(dim, n_min, n_max, seed=4, alpha=spec)
    singles = [
        projection_report(dim, n, seed=4, alpha=spec) for n in range(n_min, n_max + 1)
    ]
    assert render_reports(reports) == render_reports(singles)


@pytest.mark.parametrize(
    "dim, n_min, n_max, calls",
    [(32, 4, 6, 1), (64, 4, 6, 1), (64, 4, 8, 2), (32, 2, 32, 3), (16, 2, 16, 1)],
)
def test_projection_sweep_builds_one_pair_per_stack(monkeypatch, dim, n_min, n_max, calls):
    """At most 3 * 4096 // dim**2 points share a stack: 48 at dim 16, 12 at
    dim 32, 3 at dim 64, so a dim-64 sweep of three supports is one stack."""
    shapes = []
    build = basis.from_generator

    def counted(t):
        shapes.append(t.shape)
        return build(t)

    monkeypatch.setattr(basis, "from_generator", counted)
    sweep_projection(dim, n_min, n_max)
    assert len(shapes) == calls
    assert sum(shape[0] for shape in shapes) == n_max - n_min + 1
    assert max(shape[0] for shape in shapes) <= max(1, 3 * 4096 // dim**2)


@pytest.mark.parametrize("alpha", [poly(2.0), geometric(0.9 + 0.2j)])
def test_projection_points_keep_their_own_streams(alpha):
    """Each support size seeds its own rng: its report does not depend on
    which other points share its stack, or where in the stack it sits."""
    low = sweep_projection(32, 2, 9, seed=3, alpha=alpha)
    high = sweep_projection(32, 5, 12, seed=3, alpha=alpha)
    shared = range(5, 10)
    assert [low[n - 2].to_json() for n in shared] == [high[n - 5].to_json() for n in shared]


def test_frame_inequality_takes_one_block_per_point():
    dim = 6
    gens = np.stack([random_generator_matrix(np.random.default_rng(s), dim) for s in (1, 2, 3)])
    alpha = np.stack([np.arange(dim), np.arange(dim) ** 2, 3.0 - np.arange(dim)]).astype(complex)
    rng = np.random.default_rng(9)
    f = np.stack([_random_block(rng, dim, 10) for _ in range(3)])
    pair = from_generator(gens)
    stacked = frame_inequality_check(pair, alpha, f)
    singles = [frame_inequality_check(from_generator(gens[k]), alpha[k], f[k]) for k in range(3)]
    assert stacked.residual.tolist() == [float(c.residual) for c in singles]
    assert _notes(stacked) == [_notes(c)[0] for c in singles]
    # a block shared by every point, with or without its leading axis
    shared = frame_inequality_check(pair, alpha, f[1])
    broadcast = frame_inequality_check(pair, alpha, f[1:2])
    assert _notes(broadcast) == _notes(shared)
