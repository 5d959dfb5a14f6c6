"""Summary statistics and span arithmetic for the benchmark.

Timings are reported as a median and as the latency at the highest
percentile that still has at least ten samples beyond it, together with
the number of samples behind each.
"""

import math
import statistics

# Candidate tail percentiles, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def quartiles(values):
    """First and third quartile, by the same method as
    statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def _rank(p, n):
    # Rounded first so that 95.0 * 200 / 100 cannot become 190.00000001.
    return max(1, math.ceil(round(p * n / 100, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    return s[_rank(p, len(s)) - 1]


def tail(values, beyond=TAIL_BEYOND):
    """(p, latency) at the highest of PERCENTILES whose nearest rank
    leaves at least `beyond` samples above it; None when no candidate
    does, i.e. when there are too few samples for a tail."""
    n = len(values)
    for p in PERCENTILES:
        if n - _rank(p, n) >= beyond:
            return p, percentile(values, p)
    return None


def self_times(spans):
    """Map span id -> self time in seconds: the span's duration minus
    the part its children cover.  Children of one span run one after
    another, so the covered part is the sum of their durations."""
    own = {s["id"]: (s["stop_ns"] - s["start_ns"]) / 1e9 for s in spans}
    result = dict(own)
    for s in spans:
        if s["parent"] >= 0:
            result[s["parent"]] -= own[s["id"]]
    return result
