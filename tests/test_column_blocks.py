"""Sampled-vector checks on column blocks: one (dim, k) block of vectors
gives the worst of the k single-vector results, and the suites draw each
block from the same random stream as k successive vectors."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import random_pair, random_vector, result
from rieszops import (
    build_bundle,
    expand,
    frame_inequality_check,
    from_generator,
    poly,
    quasi_hermitian_symmetry,
    reconstruction_residual,
)
from rieszops.report import Check
from rieszops.suites import _entrywise, _random_block


def _columns(block):
    return [block[:, j : j + 1] for j in range(block.shape[1])]


@pytest.mark.parametrize("dim, k", [(1, 1), (3, 50), (8, 10), (64, 20)])
def test_block_draw_matches_sequential_vectors(dim, k):
    blocked, sequential = np.random.default_rng(5), np.random.default_rng(5)
    block = _random_block(blocked, dim, k)
    expected = np.column_stack([random_vector(sequential, dim) for _ in range(k)])
    assert block.shape == (dim, k)
    assert np.array_equal(block, expected)
    # the generator is left in the same state: the next draw is unchanged
    assert np.array_equal(blocked.normal(size=7), sequential.normal(size=7))


def test_quasi_pairs_interleave_f_before_g():
    blocked, sequential = np.random.default_rng(9), np.random.default_rng(9)
    fg = _random_block(blocked, 4, 6)
    for j in range(3):
        assert np.array_equal(fg[:, 2 * j], random_vector(sequential, 4))
        assert np.array_equal(fg[:, 2 * j + 1], random_vector(sequential, 4))


@pytest.mark.parametrize("check", ["expand", "reconstruction", "frame", "quasi"])
def test_vectors_need_a_column_axis(check):
    """One vector is passed as f[:, None]; a 1-D array is rejected."""
    pair = random_pair(4, 1)
    f = random_vector(np.random.default_rng(1), 4)
    calls = {
        "expand": lambda: expand(pair, f),
        "reconstruction": lambda: reconstruction_residual(pair, f),
        "frame": lambda: result(frame_inequality_check(pair, poly(1.0).terms(4), f)),
        "quasi": lambda: result(quasi_hermitian_symmetry(build_bundle(pair, np.arange(4.0)), f, f)),
    }
    with pytest.raises(ValueError, match=r"\(4, k\)|\(dim, k\)"):
        calls[check]()
    f = f[:, None]
    assert calls[check]() is not None


class TestWorstColumn:
    @pytest.fixture
    def pair(self):
        return random_pair(8, 4)

    @pytest.fixture
    def block(self):
        return _random_block(np.random.default_rng(2), 8, 10)

    def test_reconstruction_is_max_of_columns(self, pair, block):
        single = [reconstruction_residual(pair, f) for f in _columns(block)]
        assert reconstruction_residual(pair, block) == pytest.approx(
            max(single), rel=1e-12
        )
        assert reconstruction_residual(pair, block[:, :1]) == pytest.approx(
            single[0], rel=1e-12
        )

    def test_frame_is_max_of_columns_and_notes_the_worst(self, pair, block):
        # a lower bound raised to the upper one makes every column violate,
        # by different amounts; order the columns so the worst one is last
        tight = replace(pair, frame_lower=pair.frame_upper)
        alpha = poly(1.0).terms(8)
        residuals = [
            result(frame_inequality_check(tight, alpha, f)).residual for f in _columns(block)
        ]
        block = block[:, np.argsort(residuals)]
        worst = result(frame_inequality_check(tight, alpha, block[:, -1:]))
        assert min(residuals) > 0.0
        check = result(frame_inequality_check(tight, alpha, block))
        assert check.residual == pytest.approx(max(residuals), rel=1e-12)
        assert not check.passed
        assert check.note.startswith("worst of 10 samples: ")
        bounds = check.note.partition(": ")[2]
        assert bounds.split()[::3] == ["lower", "mid", "upper"]
        got = [float(v) for v in bounds.split()[1::3]]
        want = [float(v) for v in worst.note.partition(": ")[2].split()[1::3]]
        assert got == pytest.approx(want, rel=1e-5)

    def test_quasi_is_max_of_columns(self, pair, block):
        bundle = build_bundle(pair, poly(2.0).terms(pair.dim))
        f, g = block[:, 0::2], block[:, 1::2]
        single = [
            result(quasi_hermitian_symmetry(bundle, f[:, [j]], g[:, [j]])).residual
            for j in range(f.shape[1])
        ]
        check = result(quasi_hermitian_symmetry(bundle, f, g))
        assert check.residual == pytest.approx(max(single), rel=1e-12)
        with pytest.raises(ValueError, match="unpaired"):
            result(quasi_hermitian_symmetry(bundle, f, g[:, :1]))
        assert check.note == "worst over 5 random (f, g) pairs"


class TestNanColumn:
    @pytest.fixture
    def block(self):
        block = _random_block(np.random.default_rng(4), 6, 5)
        block[2, 3] = np.nan
        return block

    def test_reconstruction(self, block):
        residual = reconstruction_residual(random_pair(6, 1), block)
        assert np.isnan(residual)
        assert not result(Check("reconstruction", residual), 1e-10).passed
        # the same NaN as the middle part of a worst-of-parts check
        parts = (np.asarray(1e-12), residual, np.asarray(5e-12))
        check = result(Check.worst("reconstruction", "{:.1e}, {:.1e}, {:.1e}", *parts), 1e-10)
        assert np.isnan(check.residual) and not check.passed
        assert check.note == "1.0e-12, nan, 5.0e-12"

    def test_frame(self, block):
        check = result(frame_inequality_check(random_pair(6, 1), poly(1.0).terms(6), block))
        assert np.isnan(check.residual) and not check.passed

    def test_quasi(self, block):
        bundle = build_bundle(random_pair(6, 1), poly(1.0).terms(6))
        check = result(quasi_hermitian_symmetry(bundle, block, block[:, ::-1]))
        assert np.isnan(check.residual) and not check.passed

    def test_stacked_entrywise_reports_nan_pair(self):
        got = np.hstack([np.eye(3), np.eye(3)]).astype(complex)
        expected = got.copy()
        got[0, 5] = np.nan  # the second (got, expected) pair
        # one point of a batch: the pairs sit side by side
        check = result(_entrywise("x", got[None], expected[None]), 1e-10)
        assert np.isnan(check.residual) and not check.passed
        got[0, 5] = 1e-12
        got[1, 1] += 1e-11
        check = result(_entrywise("x", got[None], expected[None]), 1e-10)
        assert check.residual == pytest.approx(1e-11)


class TestSingleBadColumn:
    """Good columns have a zero last coordinate; only the bad one sees the
    perturbation placed on that coordinate."""

    @pytest.fixture
    def block(self):
        block = _random_block(np.random.default_rng(6), 5, 8)
        block[-1, :] = 0.0
        block[-1, 5] = 1.0
        return block

    def test_reconstruction(self, block):
        pair = from_generator(np.eye(5, dtype=complex))
        psi = np.eye(5, dtype=complex)
        psi[-1, -1] = 1.0 + 1e-6
        bad = replace(pair, psi=psi)
        assert reconstruction_residual(bad, np.delete(block, 5, axis=1)) <= 1e-15
        assert reconstruction_residual(bad, block) > 1e-8

    def test_frame(self, block):
        # phi stretched on the last coordinate: the mid term exceeds the
        # upper bound exactly for vectors with a last coordinate
        pair = from_generator(np.eye(5, dtype=complex))
        bent = replace(pair, phi=np.diag([1.0, 1.0, 1.0, 1.0, 1.5]).astype(complex))
        alpha = poly(1.0).terms(5)
        good = result(frame_inequality_check(bent, alpha, np.delete(block, 5, axis=1)))
        assert good.passed and good.residual <= 1e-14
        check = result(frame_inequality_check(bent, alpha, block))
        assert not check.passed and check.residual > 1e-3

    def test_quasi(self, block):
        pair = from_generator(np.eye(5, dtype=complex))
        bundle = build_bundle(pair, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        h = bundle.H_phi_psi.copy()
        h[0, -1] += 1e-6  # H no longer symmetric in the S-metric
        bad = replace(bundle, H_phi_psi=h)
        f, g = block, np.roll(block, 1, axis=1)
        g[-1, :] = 0.0
        good_cols = [j for j in range(8) if j != 5]
        assert result(quasi_hermitian_symmetry(bad, f[:, good_cols], g[:, good_cols])).passed
        check = result(quasi_hermitian_symmetry(bad, f, g))
        assert not check.passed and check.residual > 1e-8
