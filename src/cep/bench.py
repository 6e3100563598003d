"""Benchmark driver: timed engine runs with exact counters.

Timing covers the step/flush loop only (stream parsing and output writing
are excluded). The median wall time over the repeats is reported; counters
are required to be identical across runs. With ``warmup`` one untimed run
is discarded first.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Sequence

from .engine import compile_pattern, make_runtime
from .metrics import Metrics
from .patterns import ChainPattern
from .runtime import match_line


@dataclass
class RunResult:
    lines: list  # formatted match lines, deduplicated when requested
    metrics: Metrics
    report: dict


def run_benchmark(
    chains: Sequence[ChainPattern],
    events: Sequence,
    mode: str,
    rates=None,
    repeats: int = 1,
    warmup: bool = False,
    dedup: bool = False,
) -> RunResult:
    nfas = compile_pattern(chains, mode, rates=rates)

    def one_run(keep: bool):
        runtime = make_runtime(nfas)
        kept = [] if keep else None
        start = time.perf_counter()
        for e in events:
            out = runtime.step(e)
            if kept is not None and out:
                kept.extend(out)
        out = runtime.flush()
        if kept is not None and out:
            kept.extend(out)
        elapsed = time.perf_counter() - start
        return kept, runtime.metrics, elapsed

    if warmup:
        one_run(keep=False)
    walls = []
    for i in range(max(repeats, 1)):
        kept, m, elapsed = one_run(keep=i == 0)
        walls.append(elapsed)
        if i == 0:
            matches, metrics = kept, m
        elif m.counters() != metrics.counters():
            raise AssertionError("non-deterministic counters across repeats")
    metrics.wall_time = statistics.median(walls)
    lines = [match_line(m) for m in matches]
    if dedup:  # keep each line's first occurrence, in order
        lines = list(dict.fromkeys(lines))
    return RunResult(lines=lines, metrics=metrics, report=metrics.report())
