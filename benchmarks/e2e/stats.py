"""Order statistics over latency samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Candidate tail percentiles, ascending.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(samples, 50.0)


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with at least ten samples beyond it.

    Falls back to the median when even p75 has fewer than ten samples above
    it — a tail figure from a handful of samples is noise.
    """
    supported = [q for q in TAIL_PERCENTILES if count * (100.0 - q) / 100.0 >= 10.0]
    return supported[-1] if supported else TAIL_PERCENTILES[0]


def interquartile_share(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median of ``values``, quartiles as ``statistics.quantiles``."""
    first, middle, third = statistics.quantiles(values, n=4)
    if third == first:
        return 0.0  # also when every value is 0, as failed_share should be
    return (third - first) / middle if middle else math.inf
