"""Order statistics used by the benchmark and by compare.py."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank q-th percentile of `samples`.

    A percentile is only reported when at least MIN_BEYOND samples lie
    beyond it, so p90 needs 100 samples and p50 needs 20; fewer raise
    ValueError.
    """
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    n = len(samples)
    rank = math.ceil(q / 100 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{q} needs at least {MIN_BEYOND} samples beyond it, got {n} samples")
    return sorted(samples)[rank - 1]


def quartile_spread(values):
    """(median, (Q3 - Q1) / median) with quartiles as statistics.quantiles gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else math.inf)
