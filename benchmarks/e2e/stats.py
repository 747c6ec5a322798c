"""Order statistics and the A/B verdict of the end-to-end benchmark."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def median(xs: Sequence[float]) -> float:
    return statistics.median(xs)


def quartiles(xs: Sequence[float]) -> Tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(xs, n=4)`` gives them; a single
    sample is its own quartiles."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def spread(xs: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(xs)
    m = median(xs)
    return (q3 - q1) / m if m else 0.0


def percentile(xs: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, linearly interpolated between the closest
    ranks of the sorted samples."""
    s = sorted(xs)
    k = (len(s) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def geomean(xs: Sequence[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def verdict(base: Sequence[float], cand: Sequence[float], bound: float,
            better: str) -> str:
    """Judge candidate samples against base samples of one metric.

    - ``better``: every candidate sample beats every base sample, and
      the medians differ by more than the base's own spread;
    - ``unresolved``: the wider of the two spreads exceeds ``bound`` and
      the samples are not fully separated;
    - ``worse``: the median got worse by more than ``bound``;
    - ``within-bound`` otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median(cand) - median(base)) / median(base)
    if (all(sign * (c - b) < 0 for c in cand for b in base)
            and -worse_by > spread(base)):
        return "better"
    separated_worse = all(sign * (c - b) > 0 for c in cand for b in base)
    if max(spread(base), spread(cand)) > bound and not separated_worse:
        return "unresolved"
    return "worse" if worse_by > bound else "within-bound"
