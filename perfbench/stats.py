"""Order statistics used by the benchmark report.

Percentiles use the nearest-rank rule: the p-th percentile of n sorted
samples is the sample at rank ceil(p/100 * n).  A tail percentile is only
reported when at least MIN_BEYOND samples lie strictly beyond its rank, so
that it describes more than one or two outliers.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    return max(1, math.ceil(p / 100 * n))


def beyond(n: int, p: float) -> int:
    """How many of n samples lie beyond the rank of the p-th percentile."""
    return n - rank(n, p)


def tail_percentile(samples, p: float) -> float | None:
    """The p-th percentile, or None when fewer than MIN_BEYOND samples lie
    beyond it."""
    ordered = sorted(samples)
    if not ordered or beyond(len(ordered), p) < MIN_BEYOND:
        return None
    return ordered[rank(len(ordered), p) - 1]

