"""Core event primitives: typed, timestamped events and the time window."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

# Attribute values carried by events: scalars or numeric histories.
AttrValue = Union[float, str, tuple]

# Event types are plain case-sensitive names; uniqueness within a pattern
# is enforced during pattern validation.
EventType = str

# Synthetic types used internally by the runtime. They never appear on a
# stream and cannot collide with user types (lowercase names are allowed
# for user types, but these are reserved and rejected by the parser).
TIMEOUT: EventType = "@timeout"
SEARCH_FAILED: EventType = "@search_failed"


class StreamDataError(Exception):
    """Malformed stream input: missing attribute, out-of-order event, bad CSV."""


@dataclass(frozen=True)
class Event:
    """A single stream event.

    ``seq`` is the arrival sequence number and is strictly increasing over a
    stream; ``ts`` (integer milliseconds) is non-decreasing with ``seq``.
    """

    etype: EventType
    ts: int
    seq: int
    attrs: Mapping[str, AttrValue] = field(default_factory=dict)

    @property
    def key(self) -> tuple:
        """Total-order key: lexicographic on (ts, seq)."""
        return (self.ts, self.seq)

    def attr(self, name: str) -> AttrValue:
        try:
            return self.attrs[name]
        except KeyError:
            raise StreamDataError(
                f"event {self.etype}@{self.ts}#{self.seq} has no attribute {name!r}"
            ) from None

    def __str__(self) -> str:
        return f"{self.etype}@{self.ts}#{self.seq}"


def within_window(earliest_ts: int, latest_ts: int, window: int) -> bool:
    """True iff the two timestamps are at most ``window`` ms apart (inclusive)."""
    if earliest_ts > latest_ts:
        raise ValueError(f"earliest_ts {earliest_ts} > latest_ts {latest_ts}")
    return latest_ts - earliest_ts <= window


def check_stream_order(events) -> None:
    """Validate the stream contract: seq strictly increasing, ts non-decreasing."""
    prev = None
    for e in events:
        if prev is not None and (e.seq <= prev.seq or e.ts < prev.ts):
            raise StreamDataError(
                f"stream out of order: {prev} followed by {e}"
            )
        prev = e
