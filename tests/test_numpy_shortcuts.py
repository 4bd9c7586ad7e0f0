"""The battery helpers that call a numpy primitive directly, in place of the
numpy routine that wraps it, give the routine's result bit for bit: on
random complex stacks whose entries include NaN and +-inf."""

import types

import numpy as np
import pytest

from rieszops import DEFAULT_TOL, basis, ladder
from rieszops.linalg import LinalgError, adjoint, max_entry, require_finite, worst_column_norm

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
    for share in (0.0, 0.15, 1.0):
        m = poisoned(rng, shape, share)
        with np.errstate(over="ignore", invalid="ignore"):
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


def test_frame_inequality_worst_column_is_four_takes(rng):
    """One take_along_axis on the stacked (lower, mid, upper, violation)
    picks each point's worst column as four takes do."""
    dim, points = 5, 6
    generators = np.eye(dim) + 0.3 * rng.normal(size=(points, dim, dim))
    pair = basis.from_generator(generators)
    alpha = poisoned(rng, (points, dim), 0.0)
    alpha[1, 2], alpha[2, 0] = np.nan, -np.inf  # every column of the point
    f = poisoned(rng, (points, dim, 10), 0.03)
    f[0] = f[5] = 1.0 + 1j
    with np.errstate(over="ignore", invalid="ignore"):
        check = basis.frame_inequality_check(pair, alpha, f)
        weighted = alpha[..., :, None] * (adjoint(pair.psi) @ f)
        coeff_mass = np.sum(np.abs(weighted) ** 2, axis=-2)
        mid = np.linalg.norm(pair.phi @ weighted, axis=-2) ** 2
        lower = pair.frame_lower[..., None] ** 2 * coeff_mass
        upper = pair.frame_upper[..., None] ** 2 * coeff_mass
        violation = np.maximum(lower - mid, mid - upper) / np.maximum(1.0, upper)
    worst = violation.argmax(axis=-1)[..., None]
    taken = [np.take_along_axis(x, worst, -1)[..., 0] for x in (lower, mid, upper, violation)]
    assert np.isnan(check.residual).any() and np.isfinite(check.residual).any()
    assert same_bits(check.residual, np.maximum(taken[3], 0.0))
    assert all(map(same_bits, check.values, taken[:3]))


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
        roots, failed, reasons = ladder.factorize_from_alpha(bundle)
        steps = np.diff(alpha.real, axis=-1, prepend=-np.inf) <= DEFAULT_TOL
        expected_roots = np.sqrt((alpha - alpha[..., :1]).astype(complex))
    assert same_bits(roots, expected_roots)
    assert same_bits(failed, ~is_real | steps.any(axis=-1))
    assert 0 < failed.sum() < len(failed) and 0 < is_real.sum() < len(is_real)
    assert (failed & is_real & ~np.isfinite(alpha).all(axis=-1)).any()
    for step, real, reason in zip(steps[failed], is_real[failed], reasons):
        if real:
            assert f"violated at index {step.argmax()} " in reason
