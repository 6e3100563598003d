"""Small numeric helpers shared by predicates and the benchmark tooling."""

from __future__ import annotations

import math
import operator
from typing import Sequence


class UndefinedCorrelationError(ValueError):
    """Raised when a correlation is undefined (zero variance in an input)."""


def centre(x: Sequence[float]) -> tuple:
    """Deviations of ``x`` from its mean and their sum of squares."""
    mean = math.fsum(x) / len(x)
    dev = [a - mean for a in x]
    return dev, math.fsum([d ** 2 for d in dev])


# One (series, deviations, sum of squares) entry per argument side of
# pearson. A join passes the history of the role bound before the search as
# the same tuple object for every candidate, so its side is centred once per
# search. Only tuples are kept: they cannot change, and the entry holds a
# strong reference, so the identity cannot be reused while it is stored.
_last = [None, None]


def _centred(x: Sequence[float], side: int) -> tuple:
    hit = _last[side]
    if hit is not None and hit[0] is x:
        return hit[1], hit[2]
    dev, ss = centre(x)
    if type(x) is tuple:
        _last[side] = (x, dev, ss)
    return dev, ss


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient of two equal-length series.

    Raises ``ValueError`` on length mismatch or fewer than 2 points, and
    ``UndefinedCorrelationError`` when either series has zero variance.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    dx, sxx = _centred(x, 0)
    dy, syy = _centred(y, 1)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("zero variance input")
    return math.fsum(map(operator.mul, dx, dy)) / math.sqrt(sxx * syy)
