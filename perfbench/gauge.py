"""Machine-speed gauge: a small fixed kernel timed while items run.

On a shared host each CPU a run gets switches between a fast and a slow
state (up to 2x apart) about once a second, as other tenants load its
sibling, and the share of slow time differs from one run to the next.
Wall-clock figures of a whole run then move by 20% or more with no change
to the program.

While the gauge is running, a timer signal interrupts the run every
PERIOD_S and the handler times a small kernel: numpy on small complex
matrices driven from a Python loop, the kind of work the program does.  An
item's latency, less the time its handlers took, is scaled by
REF_KERNEL_MS / k, where k is the mean kernel time of the ticks during the
item and of WINDOW ticks on either side.
A scaled figure is the latency the item would have on a machine where the
kernel takes REF_KERNEL_MS.  The kernel uses no rieszops code, so a change
to the program cannot move the gauge.  Raw wall-clock figures are reported
beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: kernel time, in ms, on the reference machine that scaled figures describe
REF_KERNEL_MS = 0.2
PERIOD_S = 0.025
WINDOW = 2  # samples taken before and after an item that also count for it

_MATRIX = (np.arange(64).reshape(8, 8) / 64.0) * (1.0 + 1.0j)
_ROTATION = np.array([[0.8, 0.6], [-0.6, 0.8]], dtype=complex)
_VECTOR = np.linspace(0.0, 1.0, 1024)


def kernel_ms() -> float:
    start = time.perf_counter()
    a = _MATRIX.copy()
    for i in range(12):
        cols = [i % 7, 7]
        a[:, cols] = a[:, cols] @ _ROTATION
        a[cols, :] = _ROTATION.conj().T @ a[cols, :]
    float(np.exp(-_VECTOR).sum())
    return (time.perf_counter() - start) * 1e3


def speed_ms() -> float:
    """Median of a few kernel runs: the machine's speed right now."""
    return statistics.median(kernel_ms() for _ in range(5))


def at_reference(value: float, kernel: float) -> float:
    """A time measured while the kernel took `kernel` ms, at the reference speed."""
    return value * REF_KERNEL_MS / kernel


class Gauge:
    """Kernel samples taken by a timer signal while the context is open.

    Around an item, note len(samples) and handler_s before and after; see
    scale()."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0  # total time spent in the signal handler
        self._previous = None

    def __enter__(self) -> "Gauge":
        self.samples.append(kernel_ms())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_ms())

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_ms())
        self.handler_s += time.perf_counter() - start

    def scale(self, ms: float, i0: int, i1: int) -> float:
        """Latency ms, without handler time, of an item that ran while
        samples i0..i1-1 were taken, at the reference speed.  The speed is
        the mean of those samples and WINDOW more on either side, which
        smooths the noise of single samples far below the ~1 s a CPU state
        lasts."""
        around = self.samples[max(i0 - WINDOW, 0) : i1 + WINDOW]
        return at_reference(ms, statistics.fmean(around))

    def summary(self) -> dict:
        return {
            "samples": len(self.samples),
            "kernel_ms_median": statistics.median(self.samples),
            "kernel_ms_p10": sorted(self.samples)[len(self.samples) // 10],
            "kernel_ms_p90": sorted(self.samples)[9 * len(self.samples) // 10],
            "handler_s": self.handler_s,
        }
