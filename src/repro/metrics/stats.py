"""Summary statistics used across the experiment suite.

Pure functions over number sequences: throughput series helpers, the
coefficient of variation (the paper's smoothness metric for TFRC vs
TCP), the Jain fairness index (TCP-friendliness experiments) and plain
percentiles.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple


def throughput_series(
    events: Sequence[Tuple[float, int]],
    bin_width: float,
    end: float,
) -> List[float]:
    """Bucket delivery events into a bytes/s time series.

    Parameters
    ----------
    events: iterable of ``(time, size_bytes)``.
    bin_width: bucket width in seconds.
    end: series horizon; buckets cover ``[0, end)``.
    """
    if bin_width <= 0 or end <= 0:
        raise ValueError("bin_width and end must be positive")
    n_bins = int(math.ceil(end / bin_width))
    bins = [0.0] * n_bins
    for t, size in events:
        if 0 <= t < end:
            # t / bin_width can round up to n_bins for t just below end
            # (e.g. t=11.399999999999999, bin_width=0.3, end=11.4)
            bins[min(int(t / bin_width), n_bins - 1)] += size
    return [b / bin_width for b in bins]


def fold_sum(values: Iterable[float]) -> float:
    """``sum(values)`` as a left fold: the same bits on every Python.

    From 3.12 on, ``sum()`` compensates the rounding of float additions,
    so it can differ from 3.10/3.11 in the last ulp, and the scenario
    goldens and the benchmark's pinned results hold the left fold's
    bits.  ``math.fsum`` would move them too.  Every reduction under
    ``src/repro`` outside ``obs/`` (whose sums are wall-clock times)
    goes through here; ``tests/test_metrics.py`` names a bare ``sum(``.
    """
    total = 0
    for value in values:
        total += value
    return total


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    return fold_sum(values) / len(values) if values else 0.0


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation; 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(fold_sum((v - mu) ** 2 for v in values) / len(values))


def coefficient_of_variation(values: Sequence[float]) -> float:
    """``stddev / mean`` — the smoothness metric (lower = smoother).

    Returns 0.0 when the mean is zero (an all-idle series is "smooth").
    """
    mu = mean(values)
    if mu == 0:
        return 0.0
    return stddev(values) / mu


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n · Σx²)`` in ``(0, 1]``.

    1.0 means perfectly equal allocations; ``1/n`` means one flow takes
    everything.
    """
    if not values:
        raise ValueError("need at least one allocation")
    total = fold_sum(values)
    squares = fold_sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    if not values:
        raise ValueError("need at least one value")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    interpolated = ordered[lo] * (1 - frac) + ordered[hi] * frac
    # the interpolation can land 1 ULP outside [ordered[lo], ordered[hi]]
    # (e.g. values=[7.135396919844353e-221]*2, q=4.5); clamp it back
    return min(max(interpolated, ordered[lo]), ordered[hi])

