"""Shared time-ordered input buffer with type indexing, and subset enumeration.

One buffer serves the whole automaton run. It holds every arrival of the
types that some search in the automaton's plan reads (``Nfa.storable``),
whatever state the searching instance is in, so instances share it and
carry only their ordering bounds. The runtime expires it (see
:mod:`cep.runtime`), so that every search sees exactly one window.
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from typing import Optional

from .events import Event, EventType
from .predicates import KleeneAtoms, eval_atoms


# A lane keeps its expired prefix until that holds more than this many
# events and more than half of the lane.
LANE_SLACK = 512

_KEY = attrgetter("key")  # lanes are bisected by each event's (ts, seq)
_TS = attrgetter("ts")  # and expired by its ts alone


class _TypeLane:
    """Append-only, arrival-ordered event lane with an expiry offset."""

    __slots__ = ("events", "start")

    def __init__(self):
        self.events: list = []
        self.start = 0

    def expire(self, watermark_ts: int) -> int:
        # The window is inclusive: an event on the watermark stays.
        lo = self.start
        hi = bisect.bisect_left(self.events, watermark_ts, lo=lo, key=_TS)
        removed = hi - lo
        self.start = hi
        if self.start > LANE_SLACK and self.start * 2 > len(self.events):
            del self.events[: self.start]
            self.start = 0
        return removed

    def slice(self, lower, upper) -> list:
        events, lo = self.events, self.start
        if lower is not None:
            lo = bisect.bisect_right(events, lower, lo=lo, key=_KEY)
        hi = len(events)
        if upper is not None:
            hi = bisect.bisect_left(events, upper, lo=self.start, key=_KEY)
        return events[lo:hi]


class InputBuffer:
    """One arrival-ordered lane per event type.

    Events are stored in arrival order: ``Runtime.step`` rejects any other.
    ``oldest_ts`` (read-only) is the timestamp of the oldest live event, or
    None when the buffer is empty: ``expire`` removes nothing unless its
    watermark is above it.
    """

    def __init__(self):
        self._lanes: dict = {}
        self.oldest_ts = None

    def store(self, e: Event) -> None:
        if self.oldest_ts is None:
            self.oldest_ts = e.ts
        etype = e.etype
        lane = self._lanes.get(etype)
        if lane is None:
            lane = self._lanes[etype] = _TypeLane()
        lane.events.append(e)

    def expire(self, watermark_ts: int) -> int:
        """Drop every event older than ``watermark_ts``; returns how many.

        Nothing is touched until the watermark passes the oldest live event.
        """
        if self.oldest_ts is None or watermark_ts <= self.oldest_ts:
            return 0
        removed = 0
        oldest = None
        for lane in self._lanes.values():
            removed += lane.expire(watermark_ts)
            if lane.start < len(lane.events):
                front = lane.events[lane.start].ts
                if oldest is None or front < oldest:
                    oldest = front
        self.oldest_ts = oldest
        return removed

    def query(
        self,
        etype: EventType,
        lower: Optional[tuple] = None,
        upper: Optional[tuple] = None,
    ) -> list:
        """Buffered events of ``etype`` strictly inside ``(lower, upper)``.

        Bounds are (ts, seq) keys and are exclusive on both sides.
        """
        if lower is not None and upper is not None and lower > upper:
            raise ValueError(f"lower bound {lower} above upper bound {upper}")
        lane = self._lanes.get(etype)
        if lane is None:
            return []
        return lane.slice(lower, upper)


def iterate_fetch(
    pool: list,
    bounds: tuple,
    group_attr: Optional[str] = None,
    new_event: Optional[Event] = None,
    condition: KleeneAtoms = KleeneAtoms((), (), ()),
    bound_roles: Optional[dict] = None,
    role: str = "",
    counter=None,
    generated=None,
) -> list:
    """Enumerate qualifying subsets of ``pool``, the key-ordered events of
    one type that a buffer search returned.

    Subsets have sizes within ``bounds``, satisfy ``condition`` joined with
    the already-bound roles, contain ``new_event`` when one is given, and are
    group-homogeneous when ``group_attr`` is set. Output order is by member
    keys: lexicographic on the members' (ts, seq), a subset before its
    extensions. A subset closed by ``new_event`` therefore comes after its
    extensions, and ``(new_event,)`` comes last.

    ``condition`` is the :class:`KleeneAtoms` split of the take's atoms.
    Each candidate member is tested once, against the member-wise atoms,
    before anything is enumerated; those atoms are in their one-member
    form, so ``role`` is bound to the candidate event itself, not to a
    one-member tuple. Subsets then grow depth-first, in output order, from
    the members that survived, and only the member a step appends is
    checked, against the pair atoms: a pair atom's error is raised on the
    first subset this order reaches. The whole-subset atoms run last, on the
    subsets of an admissible size; ``generated`` (a one-element list)
    receives how many those were.

    No window test is made here: the runtime keeps only the current window
    in the buffer and in its live instances (see :mod:`cep.runtime`), so
    every subset fits.
    """
    lo, hi = bounds
    if lo < 1 or (hi is not None and lo > hi):
        raise ValueError(f"invalid iteration bounds {bounds}")
    member_atoms, pair_atoms, whole_atoms = condition
    binding = dict(bound_roles or {})
    found = []
    alone = False  # whether (new_event,) itself qualifies
    if new_event is not None:
        # The arriving event is the newest, so it closes every subset; the
        # others come from its own group.
        binding[role] = new_event
        if member_atoms and not eval_atoms(member_atoms, binding, counter):
            pool = []
        else:
            key = new_event.key
            if group_attr is None:
                pool = [x for x in pool if x.key != key]
            else:
                value = new_event.attr(group_attr)
                pool = [x for x in pool
                        if x.key != key and x.attr(group_attr) == value]
            group_attr = None
            alone = lo == 1
    # The admitted members in key order, each with its group (a list in key
    # order) and its position there. A subset only ever grows by a later
    # member of its first member's group; ungrouped, every admitted member
    # is in one group.
    firsts = []
    groups: dict = {}
    for x in pool:
        if member_atoms:
            binding[role] = x
            if not eval_atoms(member_atoms, binding, counter):
                continue
        value = None if group_attr is None else x.attr(group_attr)
        group = groups.get(value)
        if group is None:
            group = groups[value] = []
        firsts.append((x, group, len(group)))
        group.append(x)
    closing = new_event is not None
    top = None if hi is None else hi - closing  # the largest prefix needed
    if top == 0:
        firsts = []  # only the arriving event fits
    # Depth-first from each one-member prefix: ``s`` is the current prefix,
    # ``k`` the position of its last member, and ``stack`` holds the
    # prefixes above it, each with the position to resume after.
    stack = []
    for first, group, k in firsts:
        end = len(group) - 1
        s = (first,)
        if not closing and lo == 1:
            found.append(s)
        while True:
            while k < end and len(s) != top:
                k += 1
                x = group[k]
                if pair_atoms:
                    binding[role] = (s[-1], x)
                    if not eval_atoms(pair_atoms, binding, counter):
                        continue
                stack.append((s, k))
                s += (x,)
                if not closing and len(s) >= lo:
                    found.append(s)
            # Every extension of s came first; the subset s closes follows.
            if closing and len(s) + 1 >= lo:
                if pair_atoms:
                    binding[role] = (s[-1], new_event)
                if not pair_atoms or eval_atoms(pair_atoms, binding, counter):
                    found.append(s + (new_event,))
            if not stack:
                break
            s, k = stack.pop()
    if alone:
        found.append((new_event,))
    if generated is not None:
        generated[0] = len(found)
    if not whole_atoms:
        return found
    out = []
    for s in found:
        binding[role] = s
        if eval_atoms(whole_atoms, binding, counter):
            out.append(s)
    return out
