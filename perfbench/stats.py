"""Order statistics and interval arithmetic behind the benchmark's figures."""
from __future__ import annotations

import math
import statistics

TAIL_LADDER = (50, 75, 90, 95, 99)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: float) -> float:
    """Linearly interpolated percentile; the 50th is the median."""
    ordered = sorted(values)
    h = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def beyond(n: int, pct: float) -> int:
    """Samples that lie strictly past the pct-th percentile of n samples."""
    return n - 1 - math.floor((n - 1) * pct / 100.0)


def tail(values) -> tuple:
    """(percentile, value, samples beyond it) for the tail of a timing.

    The tail is the highest percentile of TAIL_LADDER with at least
    TAIL_MIN_BEYOND samples beyond it. Below 20 samples none qualifies and
    the median stands in for the tail.
    """
    n = len(values)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= TAIL_MIN_BEYOND:
            chosen = pct
    return chosen, percentile(values, chosen), beyond(n, chosen)


def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it that its child spans cover.

    Children may nest, overlap one another (spans from parallel worker
    processes) or reach past the parent's ends; only their union inside
    [start, end] is subtracted.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length(clipped)
