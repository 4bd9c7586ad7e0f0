"""What the battery holds at once: tracemalloc peaks of whole reports, in
dim-64 complex matrices (64 KiB each), and the release of the bundle before
the ladder block.

tracemalloc counts numpy's array buffers exactly, so each peak below is the
same on every run; each bound leaves room for a few KiB of Python objects.
A dim-64 sweep of three supports runs as one stack of three points.  A
battery that kept the bundle through the ladder block would peak at 71.6
matrices on that stack and at 24.0 on random_report(64), and fail every
test here.
"""

import tracemalloc
import weakref

import pytest

from rieszops import factory, suites

#: bytes of one dim-64 complex matrix
MATRIX = 64 * 64 * 16


def traced_peak(call) -> float:
    """How far the tracemalloc peak of call() rises above the memory traced
    when it starts, in dim-64 matrices, after one untraced call that fills
    every cache (report templates, the shared index table)."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - start) / MATRIX
    finally:
        if not tracing:
            tracemalloc.stop()


def test_random_report_at_dim_64_peaks_below_21_matrices():
    # 18.9 here
    assert traced_peak(lambda: suites.random_report(64)) < 21.0


def test_a_stack_of_three_dim_64_points_peaks_below_60_matrices():
    """Three supports share one stack at dim 64, and hold at most what three
    single-point sweeps would (55.8 matrices here, against 19.4 for one)."""
    three = traced_peak(lambda: suites.sweep_projection(64, 5, 7))
    one = traced_peak(lambda: suites.sweep_projection(64, 5, 5))
    assert three < 60.0
    assert three <= 3.0 * one


@pytest.mark.parametrize(
    "make",
    [
        lambda: suites.random_report(8),
        lambda: suites.sweep_projection(8, 2, 4),
        lambda: suites.sweep_three_level(0.8, 1.3, 5),
    ],
    ids=["random", "projection", "three-level"],
)
def test_the_bundle_is_released_before_the_ladder_block(monkeypatch, make):
    """No reference to the bundle survives the common block: the ladder
    block runs while the bundle's operators are already freed."""
    bundles, alive = [], []
    build, ladder_checks = factory.build_bundle, suites._ladder_checks

    def built(pair, weights):
        bundle = build(pair, weights)
        bundles.append(weakref.ref(bundle))
        return bundle

    def checked(*args):
        alive.append(bundles[-1]() is not None)
        return ladder_checks(*args)

    monkeypatch.setattr(factory, "build_bundle", built)
    monkeypatch.setattr(suites, "_ladder_checks", checked)
    make()
    assert alive == [False]
