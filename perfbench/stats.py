"""Percentiles used by the benchmark report.

A percentile counts as measured only when at least ``MIN_TAIL`` samples lie
beyond it: a run of n ops supports percentile p when n * (100 - p) / 100 >= 10.
"""

from __future__ import annotations

MIN_TAIL = 10
CANDIDATE_PERCENTILES = (50, 90, 99)


def supported_percentiles(n: int) -> list[int]:
    """The candidate percentiles with at least MIN_TAIL samples beyond them."""
    return [p for p in CANDIDATE_PERCENTILES if n * (100 - p) >= MIN_TAIL * 100]


def highest_supported_percentile(n: int) -> int | None:
    supported = supported_percentiles(n)
    return supported[-1] if supported else None


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (the 'inclusive' method), 0 <= p <= 100."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} out of range 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
