"""Order statistics used by the benchmark: median, quartiles, percentiles.

Everything here is plain Python so the self-tests can check it against
hand-computed values.  Quartiles use :func:`statistics.quantiles` with
its default (exclusive) method, which is how run-to-run spreads of this
benchmark are judged.
"""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise the tail is a handful of outliers, not a
#: measurement.
MIN_TAIL_SAMPLES = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def iqr(values) -> float:
    q1, _, q3 = quartiles(values)
    return q3 - q1


def percentile(values, p: float) -> float:
    """The ``p``-th percentile with linear interpolation between ranks.

    Matches NumPy's default (``method="linear"``): rank ``p/100 * (n-1)``
    in the sorted sample.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = p / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the ``p``-th percentile rank."""
    return n - 1 - math.floor(p / 100.0 * (n - 1)) if n else 0


def percentile_supported(n: int, p: float) -> bool:
    """True when at least :data:`MIN_TAIL_SAMPLES` samples lie beyond ``p``."""
    return samples_beyond(n, p) >= MIN_TAIL_SAMPLES

