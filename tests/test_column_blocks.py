"""Sampled-vector checks on column blocks: one (dim, k) block of vectors
gives the worst of the k single-vector results, and the suites draw each
block from the same random stream as k successive vectors."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import random_generator_matrix, random_pair, random_vector
from rieszops import (
    build_bundle,
    build_ladder,
    check_commutator,
    explicit,
    frame_inequality_check,
    from_generator,
    geometric,
    poly,
    quasi_hermitian_symmetry,
    reconstruction_residual,
    sqrt_poly,
)
from rieszops.report import CheckResult
from rieszops.suites import _merge_worst, _random_block, random_report


def _columns(block):
    return [block[:, j] for j in range(block.shape[1])]


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


@pytest.mark.parametrize("alpha", [poly(1.0), geometric(0.9 + 0.2j)])
def test_commutator_coefficients_follow_sequential_draws(alpha):
    """The suite's commutator vector is the draw after the sampled-vector
    blocks, exactly as if every vector had been drawn on its own."""
    dim, seed, gamma = 8, 3, sqrt_poly(1.0)
    rng = np.random.default_rng(seed)
    pair = from_generator(random_generator_matrix(rng, dim))
    samples = 10 + 10 + (2 * 10 if alpha.is_real else 0)
    for _ in range(samples):
        random_vector(rng, dim)
    f = pair.phi[:, :-1] @ random_vector(rng, dim - 1)
    expected = check_commutator(build_ladder(pair, gamma), f)
    report = random_report(dim, seed=seed, alpha=alpha, gamma=gamma)
    (got,) = [c for c in report.checks if c.name == "ladder_commutator"]
    assert got.residual == expected.residual


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
        residuals = [
            frame_inequality_check(tight, poly(1.0), f).residual for f in _columns(block)
        ]
        block = block[:, np.argsort(residuals)]
        worst = frame_inequality_check(tight, poly(1.0), block[:, -1])
        assert min(residuals) > 0.0
        check = frame_inequality_check(tight, poly(1.0), block)
        assert check.residual == pytest.approx(max(residuals), rel=1e-12)
        assert not check.passed
        assert check.note.split()[::3] == ["lower", "mid", "upper"]
        got = [float(v) for v in check.note.split()[1::3]]
        want = [float(v) for v in worst.note.split()[1::3]]
        assert got == pytest.approx(want, rel=1e-5)

    def test_quasi_is_max_of_columns(self, pair, block):
        bundle = build_bundle(pair, poly(2.0))
        f, g = block[:, 0::2], block[:, 1::2]
        single = [
            quasi_hermitian_symmetry(bundle, f[:, j], g[:, j]).residual
            for j in range(f.shape[1])
        ]
        check = quasi_hermitian_symmetry(bundle, f, g)
        assert check.residual == pytest.approx(max(single), rel=1e-12)
        with pytest.raises(ValueError, match="unpaired"):
            quasi_hermitian_symmetry(bundle, f, g[:, :1])
        assert check.note == quasi_hermitian_symmetry(bundle, f[:, 0], g[:, 0]).note


class TestNanColumn:
    @pytest.fixture
    def block(self):
        block = _random_block(np.random.default_rng(4), 6, 5)
        block[2, 3] = np.nan
        return block

    def test_reconstruction(self, block):
        residual = reconstruction_residual(random_pair(6, 1), block)
        assert np.isnan(residual)
        assert not CheckResult.from_residual("reconstruction", residual, 1e-10).passed

    def test_frame(self, block):
        check = frame_inequality_check(random_pair(6, 1), poly(1.0), block)
        assert np.isnan(check.residual) and not check.passed

    def test_quasi(self, block):
        bundle = build_bundle(random_pair(6, 1), poly(1.0))
        check = quasi_hermitian_symmetry(bundle, block, block[:, ::-1])
        assert np.isnan(check.residual) and not check.passed

    def test_merge_reports_nan_sample(self):
        samples = [
            CheckResult.from_residual("x", 1e-14, 1e-10),
            CheckResult.from_residual("x", float("nan"), 1e-10),
            CheckResult.from_residual("x", 1e-12, 1e-10),
        ]
        merged = _merge_worst("x", samples)
        assert np.isnan(merged.residual) and not merged.passed


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
        good = frame_inequality_check(bent, poly(1.0), np.delete(block, 5, axis=1))
        assert good.passed and good.residual <= 1e-14
        check = frame_inequality_check(bent, poly(1.0), block)
        assert not check.passed and check.residual > 1e-3

    def test_quasi(self, block):
        pair = from_generator(np.eye(5, dtype=complex))
        bundle = build_bundle(pair, explicit([0.0, 1.0, 2.0, 3.0, 4.0]))
        h = bundle.H_phi_psi.copy()
        h[0, -1] += 1e-6  # H no longer symmetric in the S-metric
        bad = replace(bundle, H_phi_psi=h)
        f, g = block, np.roll(block, 1, axis=1)
        g[-1, :] = 0.0
        good_cols = [j for j in range(8) if j != 5]
        assert quasi_hermitian_symmetry(bad, f[:, good_cols], g[:, good_cols]).passed
        check = quasi_hermitian_symmetry(bad, f, g)
        assert not check.passed and check.residual > 1e-8
