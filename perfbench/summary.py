"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math

# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


def tail_count(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q``-th percentile of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; refuses when fewer than MIN_TAIL samples lie beyond it."""
    n = len(samples)
    if n == 0 or tail_count(n, q) < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {tail_count(n, q) if n else 0} beyond it; "
            f"need {MIN_TAIL}"
        )
    return sorted(samples)[max(1, math.ceil(q / 100.0 * n)) - 1]


def min_samples(q: float) -> int:
    """Smallest sample count for which the ``q``-th percentile may be reported."""
    n = 1
    while tail_count(n, q) < MIN_TAIL:
        n += 1
    return n
