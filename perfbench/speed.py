"""Item times corrected for the shared host's changing core speed.

On a host shared with other tenants the speed of a core swings by up to
1.6x, within a second and for minutes at a time, as neighbours load it.
Best-of or median timings cannot remove a slow period that covers a whole
run. So while the workload runs, a SIGALRM handler times a fixed reference
kernel every ``PERIOD_S``. The kernel is a growth-diagram sweep over
NamedTuple-keyed dicts, the same kind of interpreter work as rookbij. An
item's time is then expressed in kernel runs timed around it, and converted
back to seconds at a fixed reference speed, ``KERNEL_S`` per kernel run.
That is about the kernel's uncontended time on the 2.0 GHz Xeon VM where
this benchmark was made.

Across runs spanning quiet and loaded periods, raw item times moved by up to
45% while corrected times moved by under 4%.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter
from typing import NamedTuple

PERIOD_S = 0.005
KERNEL_S = 140e-6
_SIDE = 9
_MARKERS = frozenset((c, (c * 5) % _SIDE + 1) for c in range(1, _SIDE + 1))


class _Vertex(NamedTuple):
    x: int
    y: int


def kernel() -> int:
    """Longest increasing chain of a fixed 9x9 placement by the growth rule."""
    values = {}
    for i in range(_SIDE + 1):
        values[_Vertex(i, 0)] = values[_Vertex(0, i)] = 0
    for c in range(1, _SIDE + 1):
        for r in range(1, _SIDE + 1):
            if (c, r) in _MARKERS:
                v = values[_Vertex(c - 1, r - 1)] + 1
            else:
                v = max(values[_Vertex(c - 1, r)], values[_Vertex(c, r - 1)])
            values[_Vertex(c, r)] = v
    return values[_Vertex(_SIDE, _SIDE)]


class SpeedProbe:
    """Context manager that samples the kernel's time while it is active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, signum, frame) -> None:
        # No collection may run inside the kernel: its time would be taken
        # out of the item and would also stretch the speed estimate.
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter() - start))
        if collecting:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would take at the reference speed.

        The kernel runs inside the interval are taken out of its time, and
        their mean (or, for an interval shorter than the period, the runs
        just before and after it) gives the speed.  The mean, not the
        median: a run stretched by a neighbour's time slice stands for the
        same stretch of the interval around it.
        """
        samples = self.samples
        lo = bisect.bisect_left(samples, t0, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, t1, key=lambda s: s[0])
        inside = [d for _, d in samples[lo:hi]]
        busy = (t1 - t0) - sum(inside)
        speed = inside or [samples[i][1] for i in (lo - 1, lo) if 0 <= i < len(samples)]
        if not speed:
            raise RuntimeError("no kernel samples around the interval")
        return busy * KERNEL_S / statistics.fmean(speed)
