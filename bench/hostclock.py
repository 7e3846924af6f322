"""Host-speed sampling, so timings on a shared machine can be put on one scale.

On a shared host the speed of a core drifts by 20-30% over tens of seconds,
with much the same drift in interpreter-bound, small-matrix and array code.
That drift, not the program, made most of the run-to-run spread of raw sweep
times.
`HostClock` measures it while the program runs: a timer signal interrupts the
process every PERIOD_S seconds and the handler times one fixed calibration
slice (a Python loop and complex array passes, about 7 ms, touching nothing
the program uses).  A timed region then reports

  wall     its wall time minus the time spent in the handler, and
  scaled   wall * REFERENCE_SLICE_S / (median slice time inside the region),

the second being the region's time at the reference host speed: the speed at
which one slice takes REFERENCE_SLICE_S.  A change to the program moves
`scaled` as it moves `wall`, since the slice runs no program code; a change
of host speed moves `wall` and, as far as the slice tracks it, not `scaled`.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
# Median slice time on the machine the benchmark's bounds were set on
# (2 vCPUs, OpenBLAS, one BLAS thread), so scaled times read as seconds there.
REFERENCE_SLICE_S = 0.008


class HostClock:
    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.slices: list[float] = []
        self.spent = 0.0  # handler time, slice and bookkeeping
        self._array = np.exp(1j * np.linspace(0.0, 1.0, 1 << 15))
        self._running = False

    def _slice(self) -> None:
        # About a quarter interpreter loop and three quarters complex array
        # passes that allocate their results, as numpy temporaries do.  On the
        # three workloads this mix tracked sweep time closer than the loop
        # alone or small matrix products did.
        total = 0
        for i in range(24_000):
            total += i * i
        for _ in range(60):
            y = self._array * self._array.conj()
            y += self._array
        self._sink = (total, y[0])

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._slice()
        t1 = time.perf_counter()
        self.slices.append(t1 - t0)
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, self.period)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        """Time one slice now and then one every period until `stop`."""
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return time.perf_counter(), self.spent, len(self.slices)

    def since(self, mark: tuple) -> dict:
        """Wall, scaled and slice statistics of the region since `mark`.

        A region too short to hold a slice is scaled by the last three."""
        t0, spent0, n0 = mark
        wall = time.perf_counter() - t0 - (self.spent - spent0)
        inside = self.slices[n0:] or self.slices[-3:]
        slice_s = statistics.median(inside)
        return {
            "wall": wall,
            "scaled": wall * REFERENCE_SLICE_S / slice_s,
            "slice_s": slice_s,
            "slices": len(self.slices) - n0,
        }
