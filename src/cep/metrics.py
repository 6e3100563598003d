"""Run counters and the benchmark report shape."""

from __future__ import annotations

import resource
from dataclasses import dataclass, fields


@dataclass
class Metrics:
    events_processed: int = 0
    matches: int = 0
    predicate_evaluations: int = 0
    instance_create: int = 0
    instance_retire: int = 0
    buffer_insert: int = 0
    buffer_search: int = 0
    buffer_remove: int = 0
    peak_live_instances: int = 0
    wall_time: float = 0.0

    def counters(self) -> dict:
        """The deterministic part of the report: every field but the
        timing."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "wall_time"}

    def report(self) -> dict:
        ev = self.events_processed or 1
        per_match = (lambda v: v / self.matches) if self.matches else (lambda v: None)
        mem_ops = {
            name: getattr(self, name)
            for name in ("instance_create", "instance_retire", "buffer_insert",
                         "buffer_search", "buffer_remove")
        }
        return {
            "events_processed": self.events_processed,
            "matches": self.matches,
            "wall_time_sec": self.wall_time,
            "throughput_eps": (self.events_processed / self.wall_time
                               if self.wall_time > 0 else None),
            "peak_live_instances": self.peak_live_instances,
            "process_peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "predicate_evaluations": {
                "total": self.predicate_evaluations,
                "per_event": self.predicate_evaluations / ev,
                "per_match": per_match(self.predicate_evaluations),
            },
            "memory_ops": {
                name: {
                    "total": total,
                    "per_event": total / ev,
                    "per_match": per_match(total),
                }
                for name, total in mem_ops.items()
            },
        }
