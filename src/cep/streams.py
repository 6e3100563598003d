"""Synthetic stream generation and the CSV event format.

Events carry the stock-feed schema used by the benchmark: a stock
identifier, a region (the event type), a price following a per-type random
walk, and a history list of recent prices. Arrivals are exponential per
type at configured rates and merged in timestamp order; everything is
deterministic for a fixed seed.

CSV format (one event per line, LF, UTF-8)::

    seq,ts,type,stock,region,price,history

where ``history`` is a semicolon-joined list of decimal floats. The price
and every history value must be finite (no ``nan`` or ``inf``).
"""

from __future__ import annotations

import heapq
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .events import Event, StreamDataError, check_stream_order

CSV_HEADER = "seq,ts,type,stock,region,price,history"


@dataclass(frozen=True)
class StreamSpec:
    rates: Mapping[str, float]  # events per second of simulated time
    count: int
    seed: int = 0
    price_start: float = 100.0
    price_step_std: float = 1.0
    history_len: int = 5
    stocks_per_type: int = 25

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count must be at least 0, got {self.count}")
        if self.history_len < 1:
            raise ValueError(f"history_len must be at least 1, "
                             f"got {self.history_len}")
        if self.stocks_per_type < 1:
            raise ValueError(f"stocks_per_type must be at least 1, "
                             f"got {self.stocks_per_type}")

    @staticmethod
    def from_json(text: str) -> "StreamSpec":
        raw = json.loads(text)
        return StreamSpec(
            rates={str(k): float(v) for k, v in raw["rates"].items()},
            count=int(raw["count"]),
            seed=int(raw.get("seed", 0)),
            price_start=float(raw.get("price_start", 100.0)),
            price_step_std=float(raw.get("price_step_std", 1.0)),
            history_len=int(raw.get("history_len", 5)),
            stocks_per_type=int(raw.get("stocks_per_type", 25)),
        )


class _TypeSource:
    """Deterministic per-type arrival and price process."""

    def __init__(self, etype: str, rate: float, spec: StreamSpec):
        if rate <= 0:
            raise ValueError(f"rate for {etype!r} must be positive")
        self.etype = etype
        self.rate = rate
        self.rng = random.Random((spec.seed, etype).__repr__())
        self.clock = 0.0
        self.spec = spec
        self.counter = 0
        # Pre-roll the walk so the first event already has a full history.
        self.prices = [spec.price_start]
        for _ in range(spec.history_len - 1):
            self.prices.append(self.prices[-1]
                               + self.rng.gauss(0.0, spec.price_step_std))

    def next_event(self) -> tuple:
        self.clock += self.rng.expovariate(self.rate) * 1000.0
        self.prices.append(self.prices[-1]
                           + self.rng.gauss(0.0, self.spec.price_step_std))
        history = tuple(self.prices[-self.spec.history_len:])
        stock = f"{self.etype}{self.counter % self.spec.stocks_per_type}"
        self.counter += 1
        attrs = {
            "stock": stock,
            "region": self.etype,
            "price": history[-1],
            "history": history,
        }
        return self.clock, attrs


def generate_stream(spec: StreamSpec) -> list:
    """Merge per-type arrival processes into one ordered stream."""
    sources = {t: _TypeSource(t, r, spec) for t, r in sorted(spec.rates.items())}
    heap = []
    for t, src in sources.items():
        clock, attrs = src.next_event()
        heapq.heappush(heap, (clock, t, 0, attrs))
    events = []
    pushes = len(heap)
    for seq in range(spec.count):
        clock, t, _, attrs = heapq.heappop(heap)
        events.append(Event(t, int(round(clock)), seq, attrs))
        nxt_clock, nxt_attrs = sources[t].next_event()
        heapq.heappush(heap, (nxt_clock, t, pushes, nxt_attrs))
        pushes += 1
    # Rounding can locally disorder equal-millisecond arrivals; clamp.
    for i in range(1, len(events)):
        if events[i].ts < events[i - 1].ts:
            events[i] = Event(events[i].etype, events[i - 1].ts,
                              events[i].seq, events[i].attrs)
    return events


def write_csv(events: Iterable[Event], fh: io.TextIOBase) -> None:
    fh.write(CSV_HEADER + "\n")
    for e in events:
        history = ";".join(repr(v) for v in e.attrs["history"])
        fh.write(f"{e.seq},{e.ts},{e.etype},{e.attrs['stock']},"
                 f"{e.attrs['region']},{e.attrs['price']!r},{history}\n")


def save_csv(events: Iterable[Event], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_csv(events, fh)


def read_csv(fh: io.TextIOBase) -> list:
    header = fh.readline().rstrip("\n")
    if header != CSV_HEADER:
        raise StreamDataError(f"bad CSV header {header!r}")
    events = []
    for lineno, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise StreamDataError(f"line {lineno}: expected 7 fields")
        try:
            seq, ts = int(parts[0]), int(parts[1])
            price = float(parts[5])
            history = tuple(float(v) for v in parts[6].split(";") if v)
        except ValueError as exc:
            raise StreamDataError(f"line {lineno}: {exc}") from None
        if not math.isfinite(price):
            raise StreamDataError(f"line {lineno}: price {parts[5]!r} is "
                                  "not a finite number")
        if not all(map(math.isfinite, history)):
            raise StreamDataError(f"line {lineno}: history {parts[6]!r} "
                                  "holds a value that is not finite")
        events.append(Event(parts[2], ts, seq, {
            "stock": parts[3], "region": parts[4],
            "price": price, "history": history,
        }))
    check_stream_order(events)
    return events


def load_csv(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return read_csv(fh)


def measure_rates(events: Sequence[Event], first_n: int) -> dict:
    """Estimate per-type rates (events/sec) over a stream prefix."""
    prefix = list(events[: max(first_n, 2)])
    if len(prefix) < 2:
        raise StreamDataError("need at least 2 events to measure rates")
    span_sec = max(prefix[-1].ts - prefix[0].ts, 1) / 1000.0
    counts: dict = {}
    for e in prefix:
        counts[e.etype] = counts.get(e.etype, 0) + 1
    return {t: n / span_sec for t, n in counts.items()}
