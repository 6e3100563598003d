"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces each layer entry point where its caller looks
it up (module globals imported by name, or methods on the class) with a
wrapper that records a span; ``uninstall`` puts the originals back. Spans
nest on one stack, so each span name gets its total time and its self time
(total minus the time of the spans directly inside it).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import cep.buffer
import cep.predicates
import cep.runtime

# (owner, attribute, span name). eval_atoms is imported by name into both
# runtime and buffer, so it is patched at both lookup points.
PATCH_POINTS = (
    (cep.runtime.Runtime, "step", "runtime.step"),
    (cep.runtime.Runtime, "flush", "runtime.flush"),
    (cep.buffer.InputBuffer, "store", "buffer.store"),
    (cep.buffer.InputBuffer, "expire", "buffer.expire"),
    (cep.buffer.InputBuffer, "query", "buffer.query"),
    (cep.runtime, "iterate_fetch", "buffer.iterate_fetch"),
    (cep.runtime, "eval_atoms", "predicates.eval_atoms"),
    (cep.buffer, "eval_atoms", "predicates.eval_atoms"),
    (cep.predicates, "pearson", "stats.pearson"),
)

ORIGINALS = {(owner, attr): getattr(owner, attr)
             for owner, attr, _ in PATCH_POINTS}


def assert_untraced() -> None:
    """Raise if any wrapper is still installed."""
    for owner, attr, _ in PATCH_POINTS:
        if getattr(owner, attr) is not ORIGINALS[(owner, attr)]:
            raise RuntimeError(f"trace wrapper left on {owner.__name__}.{attr}")


class Tracer:
    def __init__(self):
        self.total: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack = [0.0]  # time of child spans, one slot per open span

    def install(self) -> None:
        assert_untraced()
        for owner, attr, name in PATCH_POINTS:
            setattr(owner, attr, self._wrap(name, ORIGINALS[(owner, attr)]))

    def uninstall(self) -> None:
        for owner, attr, _ in PATCH_POINTS:
            setattr(owner, attr, ORIGINALS[(owner, attr)])

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._stack
        total, self_time, calls = self.total, self.self_time, self.calls
        before, after = _HOOKS.get(name, (None, None))
        counts = self.counts

        def span(*args, **kwargs):
            state = before(args, kwargs) if before else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                total[name] += elapsed
                self_time[name] += elapsed - children
                calls[name] += 1
            if after:
                after(counts, result, args, kwargs, state)
            return result

        return span


def _counter_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("counter")


def _eval_before(args, kwargs):
    counter = _counter_arg(args, kwargs)
    return counter.predicate_evaluations if counter is not None else None


def _eval_after(counts, result, args, kwargs, state):
    counts["predicates.passed"] += bool(result)
    if state is not None:
        counts["predicates.evaluations"] += (
            _counter_arg(args, kwargs).predicate_evaluations - state)


def _fetch_before(args, kwargs):
    # Ask iterate_fetch to report how many subsets it built before filtering.
    kwargs.setdefault("generated", [0])
    return kwargs["generated"]


def _fetch_after(counts, result, args, kwargs, generated):
    counts["buffer.subsets_generated"] += generated[0]
    counts["buffer.subsets_kept"] += len(result)


def _expire_after(counts, removed, args, kwargs, state):
    counts["buffer.removed"] += removed


def _query_after(counts, rows, args, kwargs, state):
    counts["buffer.query_rows"] += len(rows)


# span name -> (called before the span, returns state; called after it)
_HOOKS = {
    "predicates.eval_atoms": (_eval_before, _eval_after),
    "buffer.iterate_fetch": (_fetch_before, _fetch_after),
    "buffer.expire": (None, _expire_after),
    "buffer.query": (None, _query_after),
}
