"""Sampled-vector checks on column blocks: one (dim, k) block of vectors
gives the worst of the k single-vector results, and the suites draw each
block from the same random stream as k successive vectors."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import random_pair, random_vector, result
from rieszops import frame_inequality_check, from_generator, poly
from rieszops.linalg import max_entry
from rieszops.report import Check
from rieszops.suites import _random_block


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


def test_vectors_need_a_column_axis_of_dim_rows():
    """One vector is passed as f[:, None]; a 1-D array, or a block of the
    wrong dim, is rejected."""
    pair, alpha = random_pair(4, 1), poly(1.0).terms(4)
    f = random_vector(np.random.default_rng(1), 4)
    for bad in (f, np.zeros((5, 1))):
        with pytest.raises(ValueError, match=r"expected \(4, k\)"):
            frame_inequality_check(pair, alpha, bad)
    assert result(frame_inequality_check(pair, alpha, f[:, None])).passed


class TestWorstColumn:
    @pytest.fixture
    def pair(self):
        return random_pair(8, 4)

    @pytest.fixture
    def block(self):
        return _random_block(np.random.default_rng(2), 8, 10)

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


class TestNanColumn:
    @pytest.fixture
    def block(self):
        block = _random_block(np.random.default_rng(4), 6, 5)
        block[2, 3] = np.nan
        return block

    def test_worst_of_parts_keeps_a_nan_part(self):
        # a NaN as the middle part of a worst-of-parts check
        parts = (np.asarray(1e-12), np.asarray(np.nan), np.asarray(5e-12))
        check = result(Check.worst("worst", "{:.1e}, {:.1e}, {:.1e}", *parts), 1e-10)
        assert np.isnan(check.residual) and not check.passed
        assert check.note == "1.0e-12, nan, 5.0e-12"

    def test_frame(self, block):
        check = result(frame_inequality_check(random_pair(6, 1), poly(1.0).terms(6), block))
        assert np.isnan(check.residual) and not check.passed

    def test_stacked_entrywise_reports_nan_pair(self):
        got = np.hstack([np.eye(3), np.eye(3)]).astype(complex)
        expected = got.copy()
        got[0, 5] = np.nan  # the second (got, expected) pair
        # one point of a batch: the pairs sit side by side
        check = result(Check("x", max_entry(got[None] - expected[None])), 1e-10)
        assert np.isnan(check.residual) and not check.passed
        got[0, 5] = 1e-12
        got[1, 1] += 1e-11
        check = result(Check("x", max_entry(got[None] - expected[None])), 1e-10)
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
