"""Benchmark of the cep engine: seeded stream replays through Runtime.step/flush.

    python3 cepbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the engine is imported from ``src/``. Each
workload replays one pre-generated stream in a single-threaded closed loop:
the next event is stepped only after the previous step returned. The stream
is built from the seed before anything is timed. Every timed replay is
checked against the workload's reference match set.

With ``--trace 0`` the end-to-end metrics are measured with no wrapper
installed. With ``--trace 1`` untraced and traced replays alternate, and the
per-layer spans and counts come from the traced ones. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "cep" / "__init__.py").is_file():
    sys.exit(f"cepbench: no cep engine under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))
try:
    from cep.engine import apply_group_by, compile_pattern, make_runtime
    from cep.patterns import parse_pattern, to_dnf
    from cep.streams import read_csv, write_csv

    import tracing
    from workloads import REFERENCE_MODES, WORKLOADS, Workload, build_stream
except ImportError as exc:
    sys.exit(f"cepbench: cannot import the cep engine from {SRC}: {exc}")

REFERENCES = HERE / "references.json"
SETUPS_PER_REPLAY = 5
INGESTS_PER_REPLAY = 3
# read_csv is timed on the CSV text of the stream's first sessions.
INGEST_SESSIONS = 10


@dataclass
class Replay:
    wall_s: float  # sum of the step and flush call times
    session_ns: list  # each session's step and flush call times, summed
    call_ns: list  # duration of every step() and flush() call, in order
    emitted: list  # (call index, matches it returned) for calls that did
    digest: tuple  # (matches, sha256 of the sorted match keys)
    counters: dict  # Metrics.counters() summed over sessions
    session_peaks: list  # peak_live_instances of each session's runtime


def match_digest(matches) -> tuple:
    keys = sorted(m.key() for m in matches)
    return len(keys), hashlib.sha256(repr(keys).encode()).hexdigest()


def sessions(w: Workload, events: list):
    for k in range(w.sessions):
        yield events[k * w.session_events:(k + 1) * w.session_events]


def setup(w: Workload, mode: str):
    """Compile the workload's pattern; returns the automata and phase times."""
    clock = time.perf_counter
    t0 = clock()
    ast = parse_pattern(w.pattern)
    t1 = clock()
    chains = to_dnf(ast)
    t2 = clock()
    if w.group_by is not None:
        chains = apply_group_by(chains, *w.group_by)
    nfas = compile_pattern(chains, mode, rates=w.rates)
    make_runtime(nfas)
    t3 = clock()
    return nfas, {"parse": t1 - t0, "to_dnf": t2 - t1, "compile": t3 - t2}


def replay(w: Workload, nfas, events: list) -> Replay:
    """Step every session through a fresh runtime, then flush it.

    Sessions are further apart than the window, so one runtime over the
    whole stream would emit the same matches; a runtime per session gives
    each session its own exact peak_live_instances. Building the runtime is
    set-up and is not timed.

    The collector is run first, so that every replay starts from the same
    heap and its collections fall on the same calls in every replay.
    """
    gc.collect()
    clock = time.perf_counter_ns
    session_ns: list = []
    call_ns: list = []
    emitted: list = []
    matches: list = []
    counters: dict = {}
    peaks = []
    for chunk in sessions(w, events):
        rt = make_runtime(nfas)
        step = rt.step
        start = prev = clock()
        for e in chunk:
            got = step(e)
            now = clock()
            call_ns.append(now - prev)
            if got:
                matches += got
                emitted.append((len(call_ns) - 1, len(got)))
            prev = now
        got = rt.flush()
        end = clock()
        call_ns.append(end - prev)
        session_ns.append(end - start)
        if got:
            matches += got
            emitted.append((len(call_ns) - 1, len(got)))
        for name, value in rt.metrics.counters().items():
            if name == "peak_live_instances":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        peaks.append(rt.metrics.peak_live_instances)
    return Replay(sum(session_ns) / 1e9, session_ns, call_ns, emitted,
                  match_digest(matches), counters, peaks)


def fastest(replays: list, field: str) -> list:
    """Each session's or call's duration as its minimum over the replays.

    A session does the same work in every replay, collections included, and
    on a shared host the same work runs up to 1.7x slower in phases lasting
    from milliseconds to minutes. The minimum is the time of a replay of
    that session that no such phase slowed.
    """
    return [min(ds) for ds in zip(*(getattr(r, field) for r in replays))]


def mode_digests(w: Workload, events: list, modes) -> dict:
    return {mode: replay(w, setup(w, mode)[0], events).digest for mode in modes}


def reference(w: Workload, seed: int, events: list):
    """The reference (matches, sha256) for this stream.

    For a workload's default seed it is the committed one, which every mode
    in ``REFERENCE_MODES`` agreed on when it was recorded. For any other seed
    it is derived now from the reference modes other than the timed one,
    which must agree; a timed replay then passes only if its own mode agrees
    as well. Returns None when the modes disagree, so that every replay fails.
    """
    if seed == w.default_seed and REFERENCES.exists():
        committed = json.loads(REFERENCES.read_text()).get(w.name)
        if committed is not None and committed["events"] == len(events):
            return committed["matches"], committed["sha256"]
    digests = mode_digests(w, events, [m for m in REFERENCE_MODES if m != w.mode])
    if len(set(digests.values())) != 1:
        print(f"cepbench: {w.name}: reference modes disagree: {digests}",
              file=sys.stderr)
        return None
    return next(iter(digests.values()))


def record_references() -> None:
    """Rewrite references.json from every reference mode at the default seeds."""
    out = {}
    for w in WORKLOADS.values():
        events = build_stream(w, w.default_seed)
        digests = mode_digests(w, events, REFERENCE_MODES)
        if len(set(digests.values())) != 1:
            sys.exit(f"cepbench: {w.name}: modes disagree: {digests}")
        matches, sha = next(iter(digests.values()))
        out[w.name] = {"seed": w.default_seed, "events": len(events),
                       "matches": matches, "sha256": sha}
    REFERENCES.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of an unsorted list (NaN when it is empty)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def footprint(w: Workload, nfas, events: list) -> list:
    """tracemalloc peak (KiB) of each session of the workload.

    Each session's peak is taken above the memory allocated when it starts,
    so it covers its runtime's instances, buffer and emitted matches.
    """
    peaks = []
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for chunk in sessions(w, events):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rt = make_runtime(nfas)
            for e in chunk:
                rt.step(e)
            rt.flush()
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1024)
            del rt
    finally:
        tracemalloc.stop()
        gc.enable()
    return peaks


def csv_text(events: list) -> str:
    buf = io.StringIO()
    write_csv(events, buf)
    return buf.getvalue()


def ingest(text: str, events: list) -> float:
    """read_csv throughput (events/s) over the stream's CSV text in memory."""
    start = time.perf_counter()
    parsed = read_csv(io.StringIO(text))
    rate = len(parsed) / (time.perf_counter() - start)
    if parsed != events:
        raise AssertionError("read_csv did not round-trip the stream")
    return rate


def git_commit() -> str:
    head = HERE.parent / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (head.parent / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


@dataclass
class Samples:
    plain: list  # untraced replays
    traced: list  # traced replays (trace runs only)
    failed: int  # replays whose match set differs from the reference
    setups: list  # (automata, phase times) of every set-up
    ingest_eps: list  # read_csv rates (--trace 0)


def timed_loop(w, events, ref, seconds, tracer) -> Samples:
    """Replay until ``seconds`` have passed.

    Set-ups and (untraced runs) read_csv passes are spread between the
    replays rather than made back to back, so that every kind of sample
    sees the same mix of fast and slow periods of a shared host.
    """
    out = Samples([], [], 0, [], [])
    prefix = events[:INGEST_SESSIONS * w.session_events]
    text = csv_text(prefix)
    deadline = time.perf_counter() + seconds
    while True:
        out.setups += [setup(w, w.mode) for _ in range(SETUPS_PER_REPLAY)]
        nfas = out.setups[0][0]
        tracing.assert_untraced()
        r = replay(w, nfas, events)
        out.plain.append(r)
        out.failed += r.digest != ref
        if tracer is None:
            out.ingest_eps += [ingest(text, prefix)
                               for _ in range(INGESTS_PER_REPLAY)]
        else:
            tracer.install()
            try:
                r = replay(w, nfas, events)
            finally:
                tracer.uninstall()
            out.traced.append(r)
            out.failed += r.digest != ref
        if time.perf_counter() >= deadline:
            return out


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload."""
    events = build_stream(w, seed)
    ref = reference(w, seed, events)
    tracer = tracing.Tracer() if trace else None
    s = timed_loop(w, events, ref, seconds, tracer)
    plain, failed = s.plain, s.failed
    attempted = len(plain) + len(s.traced)
    first = plain[0]
    record = {
        "workload": w.name, "mode": w.mode, "seed": seed,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "events": len(events),
        "sessions": w.sessions, "replays": len(plain),
        "setups": len(s.setups),
        "step_samples": len(events),
        "detect_samples": sum(k for _, k in first.emitted),
        "detect_calls": len(first.emitted),
        "reference_matches": None if ref is None else ref[0],
    }
    if any((r.counters, r.emitted) != (first.counters, first.emitted)
           for r in plain + s.traced):
        failed = attempted  # counters must repeat exactly
        record["counters_repeat"] = False

    if not trace:
        mem_peaks = footprint(w, s.setups[0][0], events)
        best = fastest(plain, "call_ns")
        flush_every = w.session_events + 1
        steps = [d for i, d in enumerate(best) if (i + 1) % flush_every]
        detect = [best[i] for i, k in first.emitted for _ in range(k)]
        # Times are the fastest of the run's repetitions of a whole unit of
        # work: a session from a fresh runtime to its flush, or a set-up.
        metrics = {
            "throughput_eps": (len(events) / (sum(fastest(plain, "session_ns")) / 1e9),
                               "1/s"),
            "peak_live_instances": (statistics.fmean(first.session_peaks), "count"),
            "peak_mem_kb": (statistics.fmean(mem_peaks), "KiB"),
            "setup_s": (min(sum(t.values()) for _, t in s.setups), "s"),
        }
        # Printed but not gated. Match-weighted detection latency follows the
        # size of match bursts, which is heavy-tailed: between seeds its p50
        # and p99 spread by a third to two thirds of their median. The median
        # step and read_csv swing with the host's speed more than the
        # throughput does: on a shared 2-vCPU host, with the same seed and
        # code, by up to 1.6x between runs minutes apart.
        diagnostics = {
            "step_p50_us": (percentile(steps, 0.5) / 1e3, "us"),
            "detect_p50_us": (percentile(detect, 0.5) / 1e3, "us"),
            "detect_p99_us": (percentile(detect, 0.99) / 1e3, "us"),
            "ingest_eps": (max(s.ingest_eps), "1/s"),
        }
    else:
        metrics = layer_metrics(tracer, s.traced, plain, s.setups, s.setups[0][0])
        diagnostics = {}
        for layer, counter in (("buffer.store_calls", "buffer_insert"),
                               ("buffer.removed", "buffer_remove")):
            if metrics[layer][0] != s.traced[0].counters[counter]:
                failed = attempted  # the trace disagrees with the program
                record["trace_consistent"] = False
    record["failed_frac"] = failed / attempted
    return {"record": record, "correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "diagnostics": {k: {"value": v, "unit": u}
                            for k, (v, u) in diagnostics.items()}}


def layer_metrics(tracer, traced, plain, setups, nfas) -> dict:
    n = len(traced)
    calls, total, self_s = tracer.calls, tracer.total, tracer.self_time
    counts = tracer.counts
    counters = traced[0].counters

    def per(value):
        return value / n

    def ratio(a, b):
        return a / b if b else 0.0

    phase = {p: min(s[1][p] for s in setups)
             for p in ("parse", "to_dnf", "compile")}
    out = {
        "patterns.parse_s": (phase["parse"], "s"),
        "patterns.to_dnf_s": (phase["to_dnf"], "s"),
        "engine.compile_s": (phase["compile"], "s"),
        "nfa.states": (sum(len(a.states) for a in nfas), "count"),
        "nfa.edges": (sum(len(a.edges) for a in nfas), "count"),
        "runtime.step_self_s": (per(self_s["runtime.step"]), "s"),
        "runtime.flush_s": (per(total["runtime.flush"]), "s"),
        "runtime.instance_create": (counters["instance_create"], "count"),
        "runtime.instance_retire": (counters["instance_retire"], "count"),
        "runtime.match_yield": (ratio(counters["matches"],
                                      counters["instance_create"]), "ratio"),
        "buffer.store_calls": (per(calls["buffer.store"]), "count"),
        "buffer.store_s": (per(total["buffer.store"]), "s"),
        "buffer.expire_s": (per(total["buffer.expire"]), "s"),
        "buffer.removed": (per(counts["buffer.removed"]), "count"),
        "buffer.query_calls": (per(calls["buffer.query"]), "count"),
        "buffer.query_s": (per(total["buffer.query"]), "s"),
        "buffer.query_rows": (per(counts["buffer.query_rows"]), "count"),
        "buffer.iterate_fetch_calls": (per(calls["buffer.iterate_fetch"]), "count"),
        "buffer.iterate_fetch_self_s": (per(self_s["buffer.iterate_fetch"]), "s"),
        "buffer.subsets_generated": (per(counts["buffer.subsets_generated"]), "count"),
        "buffer.subsets_kept": (per(counts["buffer.subsets_kept"]), "count"),
        "buffer.subset_yield": (ratio(counts["buffer.subsets_kept"],
                                      counts["buffer.subsets_generated"]), "ratio"),
        "predicates.eval_atoms_calls": (per(calls["predicates.eval_atoms"]), "count"),
        "predicates.eval_atoms_self_s": (per(self_s["predicates.eval_atoms"]), "s"),
        "predicates.pass_ratio": (ratio(counts["predicates.passed"],
                                        calls["predicates.eval_atoms"]), "ratio"),
        "predicates.evaluations": (per(counts["predicates.evaluations"]), "count"),
        "stats.pearson_calls": (per(calls["stats.pearson"]), "count"),
        "stats.pearson_s": (per(total["stats.pearson"]), "s"),
    }
    for name, value in counters.items():
        out[f"counters.{name}"] = (value, "count")
    out["trace.overhead_x"] = (statistics.median(r.wall_s for r in traced)
                               / statistics.median(r.wall_s for r in plain), "x")
    return out


def print_result(result: dict) -> None:
    print("# " + json.dumps(result["record"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    for name, m in result["diagnostics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']} (not gated)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cepbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int,
                        help="stream seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long the timed replays run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite references.json at the default seeds")
    args = parser.parse_args(argv)
    if args.record_references:
        record_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        w = WORKLOADS[name]
        seed = w.default_seed if args.seed is None else args.seed
        results[name] = measure(w, seed, args.seconds, bool(args.trace))
        print_result(results[name])
    if len(results) == 1:
        final = next(iter(results.values()))
        final = {k: final[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
