"""Statistics and naming rules shared by the benchmark runner and its tools.

Kept free of I/O so that perfbench/test_stats.py can pin every rule.
"""

import math
import re
import statistics
from fractions import Fraction

# A metric or workload name: starts with a letter or digit, then letters,
# digits, '_', '.' and '-', at most 64 characters in all.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# A percentile is reported only if at least this many samples lie beyond it.
MIN_BEYOND = 10


def valid_name(name):
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


class PercentileError(ValueError):
    """A percentile was asked of too few samples to have MIN_BEYOND above it."""


def percentile(samples, p, min_beyond=MIN_BEYOND):
    """Nearest-rank p-th percentile of `samples`, with its sample count.

    Returns (value, n). The value is the k-th smallest sample, k =
    ceil(p / 100 * n), computed exactly so that 99 of 1000 gives rank 990.
    Raises PercentileError when fewer than `min_beyond` samples lie above
    rank k, because such a percentile says more than the data can.
    """
    n = len(samples)
    p = Fraction(str(p))
    if not 0 < p < 100:
        raise ValueError(f"percentile {p} is not inside (0, 100)")
    if n == 0:
        raise PercentileError(f"p{p}: no samples")
    rank = max(1, math.ceil(p * n / 100))
    beyond = n - rank
    if beyond < min_beyond:
        raise PercentileError(
            f"p{p} of {n} samples leaves {beyond} beyond it; "
            f"needs >= {min_beyond} (>= {min_samples(p, min_beyond)} samples)")
    return sorted(samples)[rank - 1], n


def min_samples(p, min_beyond=MIN_BEYOND):
    """Smallest sample count for which percentile(p) is allowed."""
    p = Fraction(str(p))
    n = 1
    while n - max(1, math.ceil(p * n / 100)) < min_beyond:
        n += 1
    return n


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 when all equal)."""
    q1, _, q3 = quartiles(values)
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)
