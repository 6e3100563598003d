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
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .events import Event, StreamDataError, check_stream_order

CSV_HEADER = "seq,ts,type,stock,region,price,history"


def _finite(value, what: str, positive: bool = False) -> float:
    """``value`` as a float: a JSON number (not a boolean) that is finite
    and, when ``positive``, above 0. Raises ValueError naming ``what``."""
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an int too large for a float
        number = math.inf
    if not math.isfinite(number) or positive and number <= 0:
        raise ValueError(f"{what} must be a finite number"
                         f"{' above 0' if positive else ''}, got {value!r}")
    return number


def read_rates(raw) -> dict:
    """``raw`` as arrival rates: an object of type -> events/sec, each a
    finite number above 0. Raises ValueError otherwise."""
    if not isinstance(raw, Mapping):
        raise ValueError("rates must be a JSON object of type -> events/sec")
    return {str(etype): _finite(rate, f"rate for {etype!r}", positive=True)
            for etype, rate in raw.items()}


@dataclass(frozen=True)
class StreamSpec:
    """Synthetic stream parameters; the constructor checks every field."""

    rates: Mapping[str, float]  # events per second of simulated time
    count: int
    seed: int = 0
    price_start: float = 100.0
    price_step_std: float = 1.0
    history_len: int = 5
    stocks_per_type: int = 25

    def __post_init__(self):
        object.__setattr__(self, "rates", read_rates(self.rates))
        if not self.rates:
            raise ValueError("rates must name at least one event type")
        for name, least in (("count", 0), ("seed", -math.inf),
                            ("history_len", 1), ("stocks_per_type", 1)):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, "
                                 f"got {value}")
        for name in ("price_start", "price_step_std"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))

    @staticmethod
    def from_json(text: str) -> "StreamSpec":
        """The spec in the JSON object ``text``, which names each field."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("a stream spec must be a JSON object")
        try:
            return StreamSpec(**raw)
        except TypeError as exc:  # an unknown or a missing field
            raise ValueError(f"bad stream spec: {exc}") from None


class _TypeSource:
    """Deterministic per-type arrival and price process."""

    def __init__(self, etype: str, rate: float, spec: StreamSpec):
        self.etype = etype
        self.rate = rate
        self.rng = random.Random((spec.seed, etype).__repr__())
        self.clock = 0.0
        self.spec = spec
        self.counter = 0
        # Pre-roll the walk so the first event already has a full history.
        self.prices = [spec.price_start]
        for _ in range(spec.history_len - 1):
            self.walk()

    def walk(self) -> None:
        price = self.prices[-1] + self.rng.gauss(0.0, self.spec.price_step_std)
        if not math.isfinite(price):  # a CSV file holds finite prices only
            raise ValueError(f"the price walk of type {self.etype!r} left the "
                             f"finite numbers; price_step_std "
                             f"{self.spec.price_step_std!r} is too large")
        self.prices.append(price)

    def next_event(self) -> tuple:
        self.clock += self.rng.expovariate(self.rate) * 1000.0
        if self.clock == math.inf:
            raise ValueError(f"the arrival time of type {self.etype!r} "
                             f"overflowed; its rate {self.rate!r} is too "
                             "small")
        self.walk()
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
    """Merge per-type arrival processes into one ordered stream; a
    ValueError when an arrival time or a price leaves the finite numbers."""
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
