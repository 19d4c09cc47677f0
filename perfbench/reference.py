"""The reference clock: op latencies in units of a fixed piece of work.

The machine the benchmark was made on is shared, and its speed moves by up to
a factor of two, in bursts of a fraction of a second and in phases of tens of
seconds to minutes, which shift every wall-clock figure of a run together.
So the worker of an untraced run times reference_work, a fixed piece of
pure-Python work that uses nothing of funcon, between ops (outside the timed
region, when REF_INTERVAL seconds have passed since the last timing), and
divides each op's latency by the median reference time measured within
REF_WINDOW seconds of the op: one ``ref`` is the time the reference work
took around the op.  A change to funcon moves an op's latency and leaves the
reference work alone, so it moves the figure in refs by the same factor.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

REF_INTERVAL = 0.25
REF_WINDOW = 1.0
REF_STEPS = 4000
BIG_SIZE = 1 << 16


def big_table(size: int = BIG_SIZE) -> tuple[list[int], set[int]]:
    """The large operand of reference_work, as many ints as funcon's largest
    classes (the 65536 arity-4 Boolean functions) have members."""
    values = list(range(0, 7 * size, 7))
    return values, set(values)


def reference_work(big: tuple[list[int], set[int]], steps: int = REF_STEPS) -> int:
    """About 4 ms of the interpreter work funcon's pure-Python code does:
    integer arithmetic, dict updates, tuples and a sort on a small working
    set, then scattered reads of a list and a set as large as funcon's
    largest classes, which slow down with the cache and memory contention
    the first half misses."""
    table: dict[int, int] = {}
    items = []
    acc = 0
    for i in range(steps):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + 1
        if i & 7 == 0:
            items.append((key, i))
        acc ^= hash((key, i & 31))
    items.sort()
    values, members = big
    for i in range(steps):
        v = values[(i * 2654435761) % len(values)]
        acc += (3 * v + i) in members
    return acc + len(items) + len(table)


class RefClock:
    """Reference timings of one run: (start, end) pairs in time order."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._big = big_table()

    def tick(self, force: bool = False) -> None:
        """Time the reference work when REF_INTERVAL has passed since the
        last timing, or when forced."""
        if force or not self.samples or perf_counter() - self.samples[-1][1] >= REF_INTERVAL:
            start = perf_counter()
            reference_work(self._big)
            self.samples.append((start, perf_counter()))

    def in_refs(self, start: float, end: float) -> float:
        """Refs of an op that ran from start to end."""
        return (end - start) / seconds_per_ref(self.samples, start, end)

    def ref_seconds(self) -> float:
        return statistics.median(e - s for s, e in self.samples)


def seconds_per_ref(samples, start, end, window=REF_WINDOW):
    """Median length of the samples within ``window`` seconds of the span
    start..end, always counting the nearest sample before and after it."""
    starts = [s for s, _ in samples]
    first = bisect.bisect_left(starts, start)
    last = bisect.bisect_left(starts, end)
    lo = min(bisect.bisect_left(starts, start - window), max(0, first - 1))
    hi = max(bisect.bisect_right(starts, end + window), min(len(samples), last + 1))
    if lo >= hi:
        raise ValueError("no reference timing near the span")
    return statistics.median(e - s for s, e in samples[lo:hi])
