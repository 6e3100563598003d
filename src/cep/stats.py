"""Small numeric helpers shared by predicates and the benchmark tooling.

The module holds no state: a caller that evaluates one correlation again
and again passes its own memo to :func:`pearson`.
"""

from __future__ import annotations

import math
import operator
from typing import Optional, Sequence


class UndefinedCorrelationError(ValueError):
    """Raised when a correlation is undefined (fewer than 2 points, zero
    variance in an input, or a non-finite sum)."""


def pearson(x: Sequence[float], y: Sequence[float], memo=None,
            sign: int = 0) -> Optional[float]:
    """Sample Pearson correlation coefficient of two equal-length series.

    Raises ``ValueError`` on length mismatch, and
    ``UndefinedCorrelationError`` when the series have fewer than 2 points,
    either series has zero variance, the product of the two variances
    underflows to zero, or a sum is not a finite number (a series holds an
    infinity, or a square or sum overflows). A product of the variances
    that overflows is avoided by taking each square root first.

    ``memo`` is the caller's two-slot list, one slot per side, each None or
    an entry ``(series, deviations, sum of squares or None)``. A side that
    is the series its entry holds is not centred again, and its sum of
    squares is computed once. Only tuples are kept: they cannot change, and
    the entry holds a strong reference, so the identity cannot be reused
    while it is stored. An entry is replaced, never changed, so callers on
    several threads may share a memo.

    With ``sign`` 1 (-1), the covariance sum comes first: unless it is
    positive (negative), the sums of squares are skipped and None is
    returned, since the coefficient is then zero, of the other sign or
    undefined. Any value returned is the same with or without ``sign``.
    """
    n = len(x)
    if n != len(y):
        raise ValueError(f"length mismatch: {n} vs {len(y)}")
    if n < 2:
        raise UndefinedCorrelationError("need at least 2 points")
    if memo is None:
        memo = [None, None]
    hx, hy = memo
    try:
        # Each side's deviations from its mean, then their covariance sum.
        if hx is not None and hx[0] is x:
            dx, sxx = hx[1], hx[2]
        else:
            mean = math.fsum(x) / n
            dx = [a - mean for a in x]
            sxx = hx = None
            if type(x) is tuple:
                memo[0] = hx = (x, dx, None)
        if hy is not None and hy[0] is y:
            dy, syy = hy[1], hy[2]
        else:
            mean = math.fsum(y) / n
            dy = [a - mean for a in y]
            syy = hy = None
            if type(y) is tuple:
                memo[1] = hy = (y, dy, None)
        sxy = math.fsum(map(operator.mul, dx, dy))
        if sign and not sxy * sign > 0:
            return None
        if sxx is None:
            sxx = math.fsum([d ** 2 for d in dx])
            if hx is not None:
                memo[0] = (x, dx, sxx)
        if syy is None:
            syy = math.fsum([d ** 2 for d in dy])
            if hy is not None:
                memo[1] = (y, dy, syy)
    except (ValueError, OverflowError) as exc:
        raise UndefinedCorrelationError(f"non-finite input: {exc}") from None
    if not (sxx < math.inf and syy < math.inf):  # an infinity, or a nan
        raise UndefinedCorrelationError("non-finite input")
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("zero variance input")
    product = sxx * syy
    if product == 0.0:
        raise UndefinedCorrelationError("variance product underflows")
    if product == math.inf:  # each variance is finite; their product is not
        return sxy / (math.sqrt(sxx) * math.sqrt(syy))
    return sxy / math.sqrt(product)
