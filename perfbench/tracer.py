"""In-memory span tracer with per-name counts, totals and self time.

Spans nest on one stack (the benchmark runs kisim in one thread). A span's
self time is its duration minus the time its direct child spans cover. The
tracer aggregates as it goes instead of keeping every span, because an
evaluate pass opens about 600,000 of them.
"""

from __future__ import annotations

import math
import time


class SpanStat:
    """Aggregate of every closed span with one name."""

    __slots__ = ("count", "total", "self_total", "samples")

    def __init__(self, keep_samples: bool) -> None:
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.samples: list[float] | None = [] if keep_samples else None


class Tracer:
    """Records nested spans opened with begin() and closed with end()."""

    def __init__(self, clock=time.perf_counter, keep_samples=()) -> None:
        self.clock = clock
        self.keep_samples = frozenset(keep_samples)
        self.stats: dict[str, SpanStat] = {}
        # (parent name, child name) -> seconds of child spans directly under parent
        self.edges: dict[tuple[str, str], float] = {}
        self._stack: list[list] = []   # [name, start, seconds covered by children]

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def end(self) -> float:
        """Close the innermost open span and return its duration."""
        stop = self.clock()
        name, start, children = self._stack.pop()
        duration = stop - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStat(name in self.keep_samples)
        stat.count += 1
        stat.total += duration
        stat.self_total += duration - children
        if stat.samples is not None:
            stat.samples.append(duration)
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            key = (parent[0], name)
            self.edges[key] = self.edges.get(key, 0.0) + duration
        return duration

    def open_spans(self) -> int:
        return len(self._stack)

    def stat(self, name: str) -> SpanStat:
        """The aggregate for name; an empty one if no such span closed."""
        return self.stats.get(name) or SpanStat(False)

    def mean(self, name: str) -> float:
        """Mean duration in seconds; 0.0 when no span of that name closed."""
        stat = self.stat(name)
        return stat.total / stat.count if stat.count else 0.0


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the sample count it rests on."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def tail_is_supported(count: int, q: float) -> bool:
    """True when at least ten samples lie beyond the q-th percentile."""
    return count * (100.0 - q) / 100.0 >= 10.0 - 1e-9
