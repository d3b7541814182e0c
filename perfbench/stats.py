"""The benchmark's own statistics: medians, quartiles, tail percentiles, metric-name
validation, the regression rule and the same-box A/B win rule.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the "exclusive" method), the
same definition the steadiness check uses.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def median(values):
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median (0 for a zero median)."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / abs(m) if m else 0.0


def tail_percentile(values):
    """The highest whole percentile with at least ``TAIL_SAMPLES`` samples beyond it.

    Returns ``(percentile, value)`` by the nearest-rank rule, or ``None`` when the sample
    is too small to have any such percentile (``TAIL_SAMPLES`` samples or fewer).
    """
    n = len(values)
    if n <= TAIL_SAMPLES:
        return None
    p = (100 * (n - TAIL_SAMPLES)) // n
    if p == 0:
        return None
    rank = math.ceil(p * n / 100)
    return p, sorted(values)[rank - 1]


def valid_name(name):
    """A metric or workload name: a letter or digit, then at most 63 of
    ``[A-Za-z0-9_.-]``."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    """A unit: 1 to 16 of ``[A-Za-z0-9_/%.-]``."""
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def regressed(parent, change, bound, better):
    """Whether ``change`` is worse than ``parent`` by more than ``bound`` (a share of the
    parent's value) in the direction ``better`` (``"lower"`` or ``"higher"``)."""
    if better == "lower":
        return change > parent * (1 + bound)
    if better == "higher":
        return change < parent * (1 - bound)
    raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")


def win_share(pairs, better):
    """Share of ``(parent, change)`` pairs the change wins; ties count for neither."""
    if not pairs:
        return 0.0
    if better == "lower":
        wins = sum(1 for p, c in pairs if c < p)
    else:
        wins = sum(1 for p, c in pairs if c > p)
    return wins / len(pairs)


def gain_shown(pairs, better, min_share=0.9):
    """The same-box rule for claiming a gain: the change wins at least ``min_share`` of
    the pairs, and the medians differ by more than the parent's own quartile distance
    in the better direction."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    q1, q3 = quartiles(parent)
    delta = median(parent) - median(change)
    if better == "higher":
        delta = -delta
    return win_share(pairs, better) >= min_share and delta > q3 - q1
