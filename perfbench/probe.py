"""A speed gauge for the CPU the benchmark runs on.

The benchmark's host is shared. Other tenants slow a call down by up to
1.8x, in phases from a fraction of a second to minutes, so a wall time
taken now and one taken a minute later can differ by more than any change
worth measuring. The probe measures how fast this CPU runs right now: a
thread of the benchmark's process times a fixed reference loop every
PERIOD seconds, on the same CPU as the calls under test (the process is
pinned to one CPU before the thread starts), while they run. A call's
wall time divided by the mean reference-loop time measured during it is
its cost in reference loops: slow phases stretch both alike, so the cost
stays nearly the same when the wall time does not.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
from time import perf_counter

PERIOD = 0.05     # seconds between two reference loops; each takes about 0.5 ms
MIN_SAMPLES = 3   # a call shorter than this many periods uses its nearest samples
# Fixed scale from reference loops to seconds, for metrics that must read in
# seconds: about the loop's time on an idle core of the 2-core Xeon VM
# (Python 3.11) the benchmark was tuned on. It is a constant, not measured.
REFLOOP_S = 0.0004

_A = tuple(range(64))
_B = tuple(range(1000, 1064))


def reference_loop() -> int:
    """Fixed pure-Python work of the kind codedpir's inner loops do."""
    acc = 0
    for i in range(120):
        t = tuple([x ^ y for x, y in zip(_A, _B)])
        acc ^= t[i & 63]
    return acc


def pin_to_one_cpu() -> int:
    """Pin this process, and the threads it starts later, to one of its CPUs."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Times reference_loop() every PERIOD seconds from a thread, while open."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, duration) of each loop
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD):
            t0 = perf_counter()
            reference_loop()
            t1 = perf_counter()
            self.samples.append((t1, t1 - t0))

    def loop_seconds(self, start: float, end: float) -> float:
        """Mean reference-loop time measured between start and end.

        Fewer than MIN_SAMPLES samples in the window widen it to the
        MIN_SAMPLES samples nearest its middle.
        """
        samples = list(self.samples)
        ends = [e for e, _ in samples]
        lo, hi = bisect.bisect_left(ends, start), bisect.bisect_right(ends, end)
        if hi - lo < MIN_SAMPLES and len(ends) >= MIN_SAMPLES:
            middle = bisect.bisect_left(ends, (start + end) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(ends) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        if hi <= lo:  # the probe has not measured yet: measure now
            return statistics.fmean(_timed_loop() for _ in range(MIN_SAMPLES))
        return statistics.fmean(d for _, d in samples[lo:hi])

    def cost(self, start: float, end: float) -> float:
        """Cost in reference loops of a call that ran from start to end."""
        return (end - start) / self.loop_seconds(start, end)


def _timed_loop() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0
