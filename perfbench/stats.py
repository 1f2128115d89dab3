"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math

#: a reported tail percentile must have at least this many samples
#: beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, q: int) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1]


def tail_percentile(values) -> tuple[int, float] | None:
    """``(q, value)`` for the highest whole percentile ``q`` that has at
    least :data:`MIN_BEYOND` samples beyond it, or ``None`` when there
    are too few samples for any."""
    n = len(values)
    if n <= MIN_BEYOND:
        return None
    q = (100 * (n - MIN_BEYOND)) // n
    while q > 0 and n - math.ceil(q * n / 100) < MIN_BEYOND:
        q -= 1
    if q <= 0:
        return None
    return q, percentile(values, q)


def p90(values) -> float | None:
    """The 90th percentile, when at least :data:`MIN_BEYOND` samples lie
    beyond it (100 samples or more)."""
    hit = tail_percentile(values)
    if hit is None or hit[0] < 90:
        return None
    return percentile(values, 90)
