"""The battery helpers that call a numpy primitive directly, in place of the
numpy routine that wraps it, give the routine's result bit for bit: on
random complex stacks whose entries include NaN and +-inf."""

import types

import numpy as np
import pytest

from rieszops import DEFAULT_TOL, basis, ladder
from rieszops.linalg import (
    LinalgError,
    adjoint,
    column_norms,
    max_entry,
    require_finite,
    worst_column_norm,
)

POISON = (np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(-np.inf, 1.0), 1j * np.inf)


def poisoned(rng, shape, share=0.15):
    """A random complex array of shape with about share of its entries NaN
    or infinite, in either part."""
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    spots = rng.random(shape) < share
    values[spots] = rng.choice(np.array(POISON), size=spots.sum())
    return values


def same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    return got.dtype == expected.dtype and got.shape == expected.shape and (
        got.tobytes() == expected.tobytes()
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260)


SHAPES = [(4, 5, 6), (2, 3, 7, 7), (6, 6), (3, 5, 1), (1, 1)]


@pytest.mark.parametrize("shape", SHAPES)
def test_max_entry_is_ndarray_max(rng, shape):
    for share in (0.0, 0.15, 1.0):
        m = poisoned(rng, shape, share)
        assert same_bits(max_entry(m), np.abs(m).max(axis=(-2, -1)))


@pytest.mark.parametrize("shape", SHAPES + [(3, 5, 0)])
def test_worst_column_norm_is_linalg_norm(rng, shape):
    """worst_column_norm and the column_norms it takes the largest of."""
    for share in (0.0, 0.15, 1.0):
        m = poisoned(rng, shape, share)
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(column_norms(m), np.linalg.norm(m, axis=-2))
            assert same_bits(column_norms(m.real), np.linalg.norm(m.real, axis=-2))
            expected = np.linalg.norm(m, axis=-2).max(axis=-1, initial=0.0)
            assert same_bits(worst_column_norm(m), expected)
            assert same_bits(worst_column_norm(m.real), np.linalg.norm(m.real, axis=-2).max(
                axis=-1, initial=0.0
            ))


@pytest.mark.parametrize("shape", SHAPES)
def test_require_finite_is_ndarray_all(rng, shape):
    for share in (0.0, 0.01, 0.15, 1.0):
        m = poisoned(rng, shape, share)
        if np.isfinite(m).all():
            require_finite(m)
        else:
            with pytest.raises(LinalgError, match="non-finite"):
                require_finite(m)


def frame_columns(pair, alpha, f):
    """lower, mid, upper and violation of every column of f, with the norm
    of mid taken by numpy.linalg.norm(..., axis=-2)."""
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = alpha[..., :, None] * (adjoint(pair.psi) @ f)
        coeff_mass = np.sum(np.abs(weighted) ** 2, axis=-2)
        mid = np.linalg.norm(pair.phi @ weighted, axis=-2) ** 2
        lower = pair.frame_lower[..., None] ** 2 * coeff_mass
        upper = pair.frame_upper[..., None] ** 2 * coeff_mass
        violation = np.maximum(lower - mid, mid - upper) / np.maximum(1.0, upper)
    return lower, mid, upper, violation


def taken(columns, at):
    """Each of the columns at index at of its last axis, by take_along_axis."""
    return [np.take_along_axis(x, at[..., None], -1)[..., 0] for x in columns]


def test_frame_inequality_worst_column_is_four_takes(rng):
    """frame_inequality_check takes its column norms by column_norms and
    each point's worst column by its flat index: bit for bit
    numpy.linalg.norm and four take_along_axis at the argmax."""
    dim, points = 5, 6
    generators = np.eye(dim) + 0.3 * rng.normal(size=(points, dim, dim))
    pair = basis.from_generator(generators)
    alpha = poisoned(rng, (points, dim), 0.0)
    alpha[1, 2], alpha[2, 0] = np.nan, -np.inf  # every column of the point
    f = poisoned(rng, (points, dim, 10), 0.03)
    f[0] = f[5] = 1.0 + 1j
    with np.errstate(over="ignore", invalid="ignore"):
        check = basis.frame_inequality_check(pair, alpha, f)
        # a single point, batch shape (): the same bits as its row of the stack
        single = basis.frame_inequality_check(
            basis.from_generator(generators[3]), alpha[3], f[3]
        )
    columns = frame_columns(pair, alpha, f)
    lower, mid, upper, violation = taken(columns, columns[3].argmax(axis=-1))
    assert np.isnan(check.residual).any() and np.isfinite(check.residual).any()
    assert same_bits(check.residual, np.maximum(violation, 0.0))
    assert all(map(same_bits, check.values, (lower, mid, upper)))
    assert same_bits(single.residual, check.residual[3])
    assert all(map(same_bits, single.values, (v[3] for v in check.values)))


def test_frame_inequality_picks_the_first_nan_column(rng):
    """Where several columns' violation is NaN, the first is the worst, and
    its lower, mid and upper are the ones reported; an infinite entry and a
    1e200 entry make NaN columns that differ (lower NaN, lower +inf)."""
    dim = 5
    pair = basis.from_generator(np.eye(dim) + 0.3 * rng.normal(size=(3, dim, dim)))
    alpha = np.ones((3, dim), dtype=complex)
    f = rng.normal(size=(3, dim, 8)) + 0j
    f[0, 1, 2], f[0, 3, 5], f[0, 0, 7] = np.inf, np.nan, -np.inf
    f[1, 4, 1], f[1, 2, 3] = 1e200, complex(np.inf, 1.0)
    f[2, 2, 3], f[2, 4, 6] = complex(np.inf, 1.0), 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        check = basis.frame_inequality_check(pair, alpha, f)
    columns = frame_columns(pair, alpha, f)
    first_nan = np.isnan(columns[3]).argmax(axis=-1)
    assert np.isnan(columns[3]).sum(axis=-1).min() >= 2
    assert first_nan.tolist() == [2, 1, 3]
    lower, mid, upper, violation = taken(columns, first_nan)
    assert np.isnan(check.residual).all()
    assert all(map(same_bits, check.values, (lower, mid, upper)))
    assert check.values[0][1] == np.inf and np.isnan(check.values[0][2])


def test_factorize_steps_are_np_diff(rng):
    """The slice difference marks the same steps as np.diff with -inf
    prepended: the same failed points, and each real one's reason names the
    first such step."""
    alpha = np.cumsum(rng.random((60, 6)) + 0.1, axis=-1) + 0j
    alpha[rng.random(alpha.shape) < 0.05] *= -1
    spots = rng.random(alpha.shape) < 0.1
    alpha[spots] = rng.choice(np.array(POISON + (np.inf, -np.inf)), size=spots.sum())
    is_real = (alpha.imag == 0).all(axis=-1)
    bundle = types.SimpleNamespace(weights=alpha, is_real=is_real)
    with np.errstate(all="ignore"):
        roots, failed, reasons = ladder.factorize_from_alpha(bundle.weights, bundle.is_real)
        steps = np.diff(alpha.real, axis=-1, prepend=-np.inf) <= DEFAULT_TOL
        expected_roots = np.sqrt((alpha - alpha[..., :1]).astype(complex))
    assert same_bits(roots, expected_roots)
    assert same_bits(failed, ~is_real | steps.any(axis=-1))
    assert 0 < failed.sum() < len(failed) and 0 < is_real.sum() < len(is_real)
    assert (failed & is_real & ~np.isfinite(alpha).all(axis=-1)).any()
    for step, real, reason in zip(steps[failed], is_real[failed], reasons):
        if real:
            assert f"violated at index {step.argmax()} " in reason
