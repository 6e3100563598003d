"""Shared time-ordered input buffer with type (and group) indexing.

One buffer serves the whole automaton run: contents depend only on the
stream and the union of storable types, so instances can share it and carry
only their ordering bounds. Events expire once they fall a full window
behind the latest processed timestamp.
"""

from __future__ import annotations

import bisect
from itertools import combinations
from typing import Optional, Sequence

from .events import Event, EventType, StreamDataError
from .predicates import eval_atoms


class _TypeLane:
    """Append-only, arrival-ordered event lane with an expiry offset."""

    __slots__ = ("events", "keys", "start")

    def __init__(self):
        self.events: list = []
        self.keys: list = []
        self.start = 0

    def append(self, e: Event) -> None:
        self.events.append(e)
        self.keys.append(e.key)

    def live(self) -> Sequence[Event]:
        return self.events[self.start :]

    def expire(self, watermark_ts: int) -> int:
        lo = self.start
        hi = bisect.bisect_left(self.keys, (watermark_ts, -1), lo=lo)
        removed = hi - lo
        self.start = hi
        if self.start > 512 and self.start * 2 > len(self.events):
            del self.events[: self.start]
            del self.keys[: self.start]
            self.start = 0
        return removed

    def slice(self, lower, upper) -> list:
        lo = self.start
        if lower is not None:
            lo = max(lo, bisect.bisect_right(self.keys, lower, lo=self.start))
        hi = len(self.keys)
        if upper is not None:
            hi = bisect.bisect_left(self.keys, upper, lo=self.start)
        return self.events[lo:hi]


class InputBuffer:
    """Per-type lanes plus optional per-attribute group buckets."""

    def __init__(self, group_attrs: Optional[dict] = None):
        # group_attrs: event type -> attribute name to bucket by
        self._lanes: dict = {}
        self._group_attrs = dict(group_attrs or {})
        self._buckets: dict = {}  # (etype, value) -> _TypeLane
        self._values: dict = {}  # etype -> set of seen bucket values
        self._last_key = None
        self._oldest_ts = None  # ts of the oldest live event; None if empty

    def store(self, e: Event) -> None:
        if self._last_key is not None and e.key <= self._last_key:
            raise StreamDataError(f"buffer store out of order: {e}")
        self._last_key = e.key
        if self._oldest_ts is None:
            self._oldest_ts = e.ts
        lane = self._lanes.get(e.etype)
        if lane is None:
            lane = self._lanes[e.etype] = _TypeLane()
        lane.append(e)
        attr = self._group_attrs.get(e.etype)
        if attr is not None:
            value = e.attr(attr)
            bucket = self._buckets.get((e.etype, value))
            if bucket is None:
                bucket = self._buckets[(e.etype, value)] = _TypeLane()
                self._values.setdefault(e.etype, set()).add(value)
            bucket.append(e)

    def expire(self, watermark_ts: int) -> int:
        """Drop every event older than ``watermark_ts``; returns how many.

        Nothing is touched until the watermark passes the oldest live
        event. Buckets hold a subset of the lane events, so that check
        covers them too.
        """
        if self._oldest_ts is None or watermark_ts <= self._oldest_ts:
            return 0
        removed = 0
        oldest = None
        for lane in self._lanes.values():
            removed += lane.expire(watermark_ts)
            if lane.start < len(lane.keys):
                front = lane.keys[lane.start][0]
                if oldest is None or front < oldest:
                    oldest = front
        for bucket in self._buckets.values():
            bucket.expire(watermark_ts)
        self._oldest_ts = oldest
        return removed

    def query(
        self,
        etype: EventType,
        lower: Optional[tuple] = None,
        upper: Optional[tuple] = None,
        group=None,
    ) -> list:
        """Buffered events of ``etype`` strictly inside ``(lower, upper)``.

        Bounds are (ts, seq) keys and are exclusive on both sides; ``group``
        restricts to one bucket of the type's configured group attribute.
        """
        if lower is not None and upper is not None and lower > upper:
            raise ValueError(f"lower bound {lower} above upper bound {upper}")
        if group is not None:
            lane = self._buckets.get((etype, group))
        else:
            lane = self._lanes.get(etype)
        if lane is None:
            return []
        return lane.slice(lower, upper)

    def group_values(self, etype: EventType) -> list:
        vals = self._values.get(etype, ())
        return sorted(vals, key=lambda v: (type(v).__name__, v))

    def group_attr(self, etype: EventType) -> Optional[str]:
        return self._group_attrs.get(etype)


def iterate_fetch(
    buf: InputBuffer,
    etype: EventType,
    lower: Optional[tuple],
    upper: Optional[tuple],
    bounds: tuple,
    group_attr: Optional[str] = None,
    new_event: Optional[Event] = None,
    condition: tuple = (),
    bound_roles: Optional[dict] = None,
    role: str = "",
    member_ok=None,
    subset_ok=None,
    counter=None,
    generated=None,
) -> list:
    """Enumerate qualifying subsets of buffered events of one type.

    Subsets have sizes within ``bounds``, satisfy ``condition`` joined with
    the already-bound roles, contain ``new_event`` when one is given, and are
    group-homogeneous when ``group_attr`` is set. Output order is by size,
    then lexicographically by member (ts, seq). ``generated`` (a one-element
    list) receives the number of candidate subsets built before the
    condition filter, which is what the grouping optimization reduces.
    """
    lo, hi = bounds
    if lo < 1 or (hi is not None and lo > hi):
        raise ValueError(f"invalid iteration bounds {bounds}")
    binding = dict(bound_roles or {})

    def pool_for(group_value):
        pool = buf.query(etype, lower, upper, group=group_value)
        if member_ok is not None:
            pool = [x for x in pool if member_ok(x)]
        return pool

    pools = []
    if new_event is not None:
        gv = new_event.attr(group_attr) if group_attr is not None else None
        pools.append((pool_for(gv), new_event))
    elif group_attr is not None:
        for gv in buf.group_values(etype):
            pools.append((pool_for(gv), None))
    else:
        pools.append((pool_for(None), None))

    subsets = []
    count_generated = 0
    for pool, must_include in pools:
        if must_include is not None:
            # The arriving event is the newest, so it closes every subset.
            rest = [x for x in pool if x.key != must_include.key]
            top = len(rest) + 1 if hi is None else min(hi, len(rest) + 1)
            for size in range(lo, top + 1):
                for combo in combinations(rest, size - 1):
                    count_generated += 1
                    subsets.append(combo + (must_include,))
        else:
            top = len(pool) if hi is None else min(hi, len(pool))
            for size in range(lo, top + 1):
                for combo in combinations(pool, size):
                    count_generated += 1
                    subsets.append(combo)
    if generated is not None:
        generated[0] = count_generated
    if len(pools) > 1:
        subsets.sort(key=lambda s: (len(s), tuple(e.key for e in s)))
    if subset_ok is not None:
        subsets = [s for s in subsets if subset_ok(s)]
    if not condition:
        return subsets
    out = []
    for combo in subsets:
        binding[role] = combo
        if eval_atoms(condition, binding, counter):
            out.append(combo)
    return out
