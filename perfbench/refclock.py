"""A clock that reads time in units of a fixed piece of reference work.

The speed of a shared virtual machine drifts with its neighbours' load: on
the 2-vCPU machine the benchmark was defined on, 10 ms samples of the same
pure-Python loop alternated between about 13 and 23 ms, and the median pass
of a workload moved by a third from one minute to the next.  Seconds then
say as much about the host as about lodeg.

``ReferenceClock`` runs a fixed *reference unit* (about 3 ms of dict and
modular-integer work shaped like the Groebner inner loop) every
``INTERVAL_S`` from a timer signal, in the benchmark's own thread, so the
samples land inside the calls being timed.  ``work_seconds`` is a span's
length minus the samples taken inside it; ``in_units`` divides that by the
mean sample near the span, which cancels the host's speed at that time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.1
# Samples that start this close to a span count towards its speed.
WINDOW_S = 0.25


def reference_unit() -> None:
    """Fixed pure-Python work: a dict of exponent tuples with residues mod
    p, scanned for its leading term."""
    p = 2147483647
    poly: dict[tuple[int, ...], int] = {}
    for i in range(300):
        mono = (i % 7, i % 5, i % 3, i % 11)
        poly[mono] = (poly.get(mono, 0) + i * 48271) % p
    for _ in range(12):
        lead = max(poly, key=lambda m: (sum(m), m))
        c = poly[lead]
        poly = {m: (v * c + 1) % p for m, v in poly.items()}


class ReferenceClock:
    """Context manager that samples the reference unit from ``SIGALRM``."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            reference_unit()
            self.durations.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            self._busy = False

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _near(self, start: float, end: float) -> tuple[int, int]:
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:
            if not self.starts:
                raise RuntimeError("the reference clock took no samples")
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return lo, hi

    def work_seconds(self, start: float, end: float) -> float:
        """Seconds between ``start`` and ``end`` not spent on samples."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.durations[lo:hi])

    def in_units(self, start: float, end: float) -> float:
        """``work_seconds`` in reference units at the speed of the time."""
        lo, hi = self._near(start, end)
        return self.work_seconds(start, end) / statistics.mean(self.durations[lo:hi])

    def mean_unit_s(self) -> float:
        return statistics.mean(self.durations)
