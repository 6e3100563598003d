"""Small numeric helpers shared by predicates and the benchmark tooling."""

from __future__ import annotations

import math
import operator
from typing import Sequence


class UndefinedCorrelationError(ValueError):
    """Raised when a correlation is undefined (fewer than 2 points, zero
    variance in an input, or a non-finite sum)."""


# One (series, deviations, sum of squares) entry per argument side of
# pearson. A join passes the history of the role bound before the search as
# the same tuple object for every candidate, so its side is centred once per
# search. Only tuples are kept: they cannot change, and the entry holds a
# strong reference, so the identity cannot be reused while it is stored.
_last = [None, None]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient of two equal-length series.

    Raises ``ValueError`` on length mismatch, and
    ``UndefinedCorrelationError`` when the series have fewer than 2 points,
    either series has zero variance, the product of the two variances
    underflows to zero, or a sum is not a finite number (a series holds
    infinities of both signs, or a square or sum overflows).
    """
    n = len(x)
    if n != len(y):
        raise ValueError(f"length mismatch: {n} vs {len(y)}")
    if n < 2:
        raise UndefinedCorrelationError("need at least 2 points")
    # Each side's deviations from its mean and their sum of squares.
    try:
        hit = _last[0]
        if hit is not None and hit[0] is x:
            dx, sxx = hit[1], hit[2]
        else:
            mean = math.fsum(x) / n
            dx = [a - mean for a in x]
            sxx = math.fsum([d ** 2 for d in dx])
            if type(x) is tuple:
                _last[0] = (x, dx, sxx)
        hit = _last[1]
        if hit is not None and hit[0] is y:
            dy, syy = hit[1], hit[2]
        else:
            mean = math.fsum(y) / n
            dy = [a - mean for a in y]
            syy = math.fsum([d ** 2 for d in dy])
            if type(y) is tuple:
                _last[1] = (y, dy, syy)
    except (ValueError, OverflowError) as exc:
        raise UndefinedCorrelationError(f"non-finite input: {exc}") from None
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("zero variance input")
    product = sxx * syy
    if product == 0.0:
        raise UndefinedCorrelationError("variance product underflows")
    return math.fsum(map(operator.mul, dx, dy)) / math.sqrt(product)
