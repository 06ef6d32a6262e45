"""Host speed, measured by a fixed pure-Python probe loop.

On a shared host the same code runs up to ~2x slower in phases that last
from one second to over a minute, often longer than a run.  The probe is
interleaved with the ops (about every PROBE_EVERY seconds) and each wall
time is rescaled by REF_PROBE_S over the median probe time around it, so
the timings read as at a fixed reference host speed.  The probe and the
workloads do not slow in exact step, so part of a slow phase remains.
Raw wall times stay in the run record.
"""

import bisect
import statistics
import time

PROBE_LOOPS = 20_000
REF_PROBE_S = 0.0013  # the probe's time in a quiet phase of a 2-core VM
PROBE_EVERY = 0.1     # seconds of ops between probes
NEIGHBOURS = 20       # probes on each side that set the speed of a moment


def probe_s() -> float:
    """Wall time of the fixed probe loop."""
    a = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - a


def calib_ms() -> float:
    """Median time of a longer fixed loop: the host's speed phase, kept as
    a diagnostic beside the metrics."""
    times = []
    for _ in range(5):
        a = time.perf_counter()
        s = 0
        for i in range(200_000):
            s += i * i % 7
        times.append(time.perf_counter() - a)
    return statistics.median(times) * 1000


class SpeedLog:
    """Probe times along a run, keyed by perf_counter time."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            took = probe_s()
            self.at.append(time.perf_counter())
            self.took.append(took)

    def scale(self, t: float) -> float:
        """Factor that takes a wall time around moment ``t`` to the
        reference host speed."""
        j = bisect.bisect_left(self.at, t)
        near = self.took[max(0, j - NEIGHBOURS):j + NEIGHBOURS]
        return REF_PROBE_S / statistics.median(near)

    def overall(self) -> float:
        """Factor from the median of every probe."""
        return REF_PROBE_S / statistics.median(self.took)
