"""The benchmark's workloads and the streams they replay.

A workload is a pattern, the mode it is timed in and the stream it replays.
Its reference match set is the one that every mode in ``REFERENCE_MODES``
agrees on. Streams come from ``cep.streams.generate_stream`` and depend
only on the seed. Why each workload is here is written in BENCHMARK.json
and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from cep.events import Event
from cep.streams import StreamSpec, generate_stream

CORR_PATTERN = """
PATTERN SEQ(A a, B b, C c)
WHERE skip_till_any_match {
    corr(a.history, b.history) > 0.9
    and corr(b.history, c.history) > 0.9
    and corr(c.history, a.history) > 0.9
}
WITHIN 1800 msec
"""

KLEENE_PATTERN = """
PATTERN SEQ(A a, B+ b[], C c)
WHERE skip_till_any_match { b[i].stock = b[i-1].stock and b[i].price > a.price }
WITHIN 400 msec
"""

# Sessions are separated by more stream time than any workload's window, so
# no match or instance spans two of them.
SESSION_GAP_MS = 10_000

# Modes whose match sets must agree on a workload's stream.
REFERENCE_MODES = ("eager", "lazy")


@dataclass(frozen=True)
class Workload:
    name: str
    pattern: str
    rates: dict
    mode: str
    default_seed: int
    sessions: int
    session_events: int
    group_by: Optional[tuple] = None  # (iterated role, attribute)
    stocks_per_type: int = 25


WORKLOADS = {w.name: w for w in (
    Workload(
        name="corr-skew-lazy",
        pattern=CORR_PATTERN, rates={"A": 100.0, "B": 10.0, "C": 1.0},
        mode="lazy", default_seed=404,
        sessions=200, session_events=400,
    ),
    Workload(
        name="kleene-group-lazy",
        pattern=KLEENE_PATTERN, rates={"A": 5.0, "B": 40.0, "C": 2.0},
        mode="lazy", default_seed=707,
        sessions=100, session_events=400,
        group_by=("b", "stock"),
        stocks_per_type=8,
    ),
)}


def build_stream(w: Workload, seed: int) -> list:
    """Concatenate ``w.sessions`` generated sessions into one ordered stream.

    Each session restarts every type's price walk. One long walk drifts, so
    whether B prices sit above A prices (which decides the kleene
    predicate) would be fixed by the seed for the whole stream, and the
    match rate would vary several-fold between seeds.
    """
    out: list = []
    offset = 0
    for k in range(w.sessions):
        spec = StreamSpec(rates=w.rates, count=w.session_events,
                          seed=seed * 10_000 + k,
                          stocks_per_type=w.stocks_per_type)
        for e in generate_stream(spec):
            out.append(Event(e.etype, e.ts + offset, len(out), e.attrs))
        offset = out[-1].ts + SESSION_GAP_MS
    return out
