"""Summary statistics and name checks for the benchmark report."""

import math
import re

# Percentiles the report may quote, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

# At least this many samples must lie beyond a quoted percentile.
MIN_BEYOND = 10

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    if not values:
        raise ValueError("median of an empty sample")
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def highest_percentile(values):
    """The highest ladder percentile with at least MIN_BEYOND samples above it.

    Returns (percentile, value) using the nearest-rank definition, or None
    when the sample is too small for any percentile on the ladder.
    """
    n = len(values)
    s = sorted(values)
    best = None
    for p in PERCENTILE_LADDER:
        rank = math.ceil(p / 100.0 * n)  # 1-based nearest rank
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (p, s[rank - 1])
    return best


def valid_metric_name(name):
    """A metric name: starts with a letter or digit; at most 64 letters,
    digits, '_', '.' and '-'."""
    return isinstance(name, str) and _NAME.match(name) is not None
