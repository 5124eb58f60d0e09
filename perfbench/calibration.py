"""Host speed, measured by a fixed pure-Python kernel between episodes.

On a shared VM the same work runs up to 40% slower in phases that last
seconds to minutes, which moves every host time by more than any bound a
benchmark could use. The kernel below is interpreter-bound like the
simulator, so in a slow phase it slows down by about the same factor. The
benchmark samples it between episodes, outside every timed interval, and
divides host times by the speed factor it finds: end-to-end times are host
seconds at the speed where one kernel call takes KERNEL_REF_S. The raw host
times stay in the report.
"""

from __future__ import annotations

import heapq
import statistics
import time

KERNEL_REF_S = 0.001


def kernel() -> None:
    """About 1 ms of heap, dict and integer work on a 2-vCPU x86 host."""
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    for i in range(1200):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        counts[i % 97] = counts.get(i % 97, 0) + 1
    while heap:
        heapq.heappop(heap)


class Calibrator:
    """Kernel samples in the order taken."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def slowdown(self, first: int = 0, stop: int | None = None) -> float:
        """Median kernel time of samples[first:stop] over KERNEL_REF_S."""
        return statistics.median(self.samples[first:stop]) / KERNEL_REF_S

    def local_slowdown(self, index: int, half_width: int = 2) -> float:
        """Slowdown over the samples within half_width of samples[index]."""
        return self.slowdown(max(0, index - half_width), index + half_width + 1)
