"""Shared pieces of the workloads: the measured window and its stats."""

from __future__ import annotations

import math
import resource
import statistics
from array import array
from dataclasses import dataclass, field

#: Sub-window width for the throughput median, in nanoseconds.
RATE_SLICE_NS = 1_000_000_000
#: Check failures kept verbatim per run (the rest are only counted).
MAX_PROBLEMS = 5


@dataclass
class Window:
    """What one run of operations did, in order of completion.

    ``lookup_end`` holds each lookup's completion time, so throughput
    can be taken per one-second slice of ``[start_ns, end_ns]``.  Times
    are kept in ``array('q')`` (8 bytes each), so the benchmark's own
    records add little to the process's peak memory.
    """

    start_ns: int = 0
    end_ns: int = 0
    lookup_lat: array = field(default_factory=lambda: array("q"))
    lookup_end: array = field(default_factory=lambda: array("q"))
    rebind_lat: array = field(default_factory=lambda: array("q"))
    rebind_end: array = field(default_factory=lambda: array("q"))
    hops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def lookups(self) -> int:
        return len(self.lookup_lat)

    @property
    def rebinds(self) -> int:
        return len(self.rebind_lat)

    @property
    def ops(self) -> int:
        return self.lookups + self.rebinds

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def _slices(self, ends: array, values: array,
                ) -> tuple[float, list[list[int]]]:
        """Split *values* by the one-second slice of the window their
        operation ended in; returns the slice width and the slices."""
        span = self.end_ns - self.start_ns
        count = max(1, round(span / RATE_SLICE_NS))
        width = span / count
        slices: list[list[int]] = [[] for _ in range(count)]
        for end, value in zip(ends, values):
            index = int((end - self.start_ns) / width)
            if 0 <= index < count:
                slices[index].append(value)
        return width, slices

    def lookups_per_s(self) -> float:
        """Median lookup rate over the window's one-second slices."""
        width, slices = self._slices(self.lookup_end, self.lookup_end)
        return statistics.median(len(s) for s in slices) * 1e9 / width

    def sliced_percentile(self, kind: str, q: float) -> float:
        """Median over one-second slices of each slice's latency
        percentile *q* of *kind* (``lookup``/``rebind``), in ns: a burst
        of interference from outside the program moves one slice, not
        the figure."""
        _, slices = self._slices(getattr(self, kind + "_end"),
                                 getattr(self, kind + "_lat"))
        return statistics.median(percentile(s, q) for s in slices if s)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of *values* (q in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return float(ordered[rank])


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark, in MiB (Linux
    reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
