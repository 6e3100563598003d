import gc
import random
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cep import nfa as N
from cep import difftest, runtime
from cep.buffer import LANE_SLACK, InputBuffer
from cep.difftest import random_pattern, random_stream
from cep.engine import apply_group_by, compile_pattern, make_runtime
from cep.events import Event, StreamDataError
from cep.lazy import build_lazy
from cep.nfa import BuildError
from cep.oracle import enumerate_matches_chains
from cep.patterns import parse_pattern, to_dnf
from cep.runtime import (Match, PairedRuntime, Runtime, ShadowMismatch,
                         match_key, match_line, run_stream)
from cep.streams import StreamSpec, generate_stream

from conftest import mkstream


def chains_of(text):
    return to_dnf(parse_pattern(text))


def registered(rt):
    """``rt``'s registered instances, by state."""
    return [inst for insts in rt.by_state.values() for inst in insts.values()]


FIG3_STREAM = mkstream(("A", 1), ("A", 2), ("B", 3), ("B", 4), ("C", 5))
EXPECTED_FIG3 = {
    "a=A@1#0; b=B@3#2; c=C@5#4",
    "a=A@2#1; b=B@3#2; c=C@5#4",
    "a=A@1#0; b=B@4#3; c=C@5#4",
    "a=A@2#1; b=B@4#3; c=C@5#4",
}


class TestStep:
    def test_lazy_chain_detects_all_four(self):
        chains = chains_of("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour")
        rt = make_runtime(compile_pattern(chains, "lazy", orders=[["C", "B", "A"]]))
        lines = {match_line(m) for m in run_stream(rt, FIG3_STREAM)}
        assert lines == EXPECTED_FIG3

    def test_eager_detects_the_same_four(self):
        chains = chains_of("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour")
        rt = make_runtime(compile_pattern(chains, "eager"))
        lines = {match_line(m) for m in run_stream(rt, FIG3_STREAM)}
        assert lines == EXPECTED_FIG3

    def test_empty_stream(self):
        chains = chains_of("PATTERN SEQ(A a, B b) WITHIN 1 hour")
        rt = make_runtime(compile_pattern(chains, "lazy", orders=[["B", "A"]]))
        assert run_stream(rt, []) == []

    def test_out_of_order_stream_rejected(self):
        chains = chains_of("PATTERN SEQ(A a) WITHIN 1 hour")
        rt = make_runtime(compile_pattern(chains, "eager"))
        rt.step(Event("A", 5, 1))
        with pytest.raises(StreamDataError):
            rt.step(Event("A", 4, 2))

    def test_window_prunes_matches(self):
        chains = chains_of("PATTERN SEQ(A a, B b) WITHIN 10 msec")
        rt = make_runtime(compile_pattern(chains, "lazy", orders=[["B", "A"]]))
        matches = run_stream(rt, mkstream(("A", 0), ("A", 5), ("B", 12)))
        assert [match_line(m) for m in matches] == ["a=A@5#1; b=B@12#2"]

    def test_seed_is_never_retired(self):
        chains = chains_of("PATTERN SEQ(A a, B b) WITHIN 5 msec")
        rt = make_runtime(compile_pattern(chains, "lazy", orders=[["A", "B"]]))
        out = []
        out += rt.step(Event("A", 0, 0))
        out += rt.step(Event("B", 100, 1))  # far past the first window
        out += rt.step(Event("A", 101, 2))
        out += rt.step(Event("B", 103, 3))
        out += rt.flush()
        assert [match_line(m) for m in out] == ["a=A@101#2; b=B@103#3"]


class TestFlush:
    def test_pending_negation_completes_on_flush(self):
        chains = chains_of("PATTERN AND(A a, NOT(B b)) WITHIN 50 msec")
        rt = make_runtime(compile_pattern(chains, "lazy-pp", orders=[["A"]]))
        assert rt.step(Event("A", 10, 0)) == []
        matches = rt.flush()
        assert [match_line(m) for m in matches] == ["a=A@10#0"]
        assert matches[0].detection_ts == 60  # anchor + window

    def test_partial_positive_chain_dies_silently(self):
        chains = chains_of("PATTERN SEQ(A a, B b) WITHIN 50 msec")
        rt = make_runtime(compile_pattern(chains, "lazy", orders=[["A", "B"]]))
        rt.step(Event("A", 10, 0))
        assert rt.flush() == []

    def test_flush_with_no_instances(self):
        chains = chains_of("PATTERN SEQ(A a, B b) WITHIN 50 msec")
        rt = make_runtime(compile_pattern(chains, "eager"))
        assert rt.flush() == []


class TestTimeoutOnUnwatchedType:
    """A window that closes on an arrival no state listens to is settled by
    that arrival's own step, not held until a later step or flush."""

    def test_pending_negation_match_returned_by_that_step(self):
        chains = chains_of("PATTERN SEQ(A a, C c, NOT(B b)) WITHIN 50 msec")
        for orders in ([["C", "A"]], [["A", "C"]]):
            rt = make_runtime(compile_pattern(chains, "lazy-pp", orders=orders))
            assert "Z" not in rt.type_interest
            assert rt.step(Event("A", 10, 0)) == []
            assert rt.step(Event("C", 20, 1)) == []
            assert rt.step(Event("Z", 59, 2)) == []
            out = rt.step(Event("Z", 61, 3))
            assert [(match_line(m), m.detection_ts) for m in out] == [
                ("a=A@10#0; c=C@20#1", 60)], orders
            assert rt.flush() == []

    def test_first_chance_instance_retired_by_that_step(self):
        # First-chance negation needs a positive after the negated event, so
        # its matches are emitted on that positive's arrival; what the window
        # close settles is the retirement of the instances left waiting.
        chains = chains_of("PATTERN SEQ(A a, NOT(B b), C c) WITHIN 50 msec")
        rt = make_runtime(compile_pattern(chains, "lazy-fc", orders=[["A", "C"]]))
        assert "Z" not in rt.type_interest
        assert rt.step(Event("A", 10, 0)) == []
        out = rt.step(Event("C", 20, 1))
        assert [(match_line(m), m.detection_ts) for m in out] == [
            ("a=A@10#0; c=C@20#1", 20)]
        assert rt.step(Event("Z", 59, 2)) == []
        assert len(registered(rt)) == 2
        retired = rt.metrics.instance_retire
        assert rt.step(Event("Z", 61, 3)) == []
        assert registered(rt) == [rt.seed]
        assert rt.metrics.instance_retire == retired + 1
        assert rt.flush() == []


class TestNegationTiming:
    """Window-edge semantics of absent events across buffer expiry."""

    def test_stale_negative_event_cannot_invalidate(self):
        # B@5 is outside the window envelope of {a@10, c@60}: valid match.
        chains = chains_of(
            "PATTERN SEQ(NOT(B h), A a, C c) WITHIN 50 msec")
        stream = mkstream(("B", 5), ("A", 10), ("C", 60))
        for mode, orders in [("eager", None), ("lazy-pp", [["C", "A"]]),
                             ("lazy-fc", [["C", "A"]]),
                             ("lazy-pp", [["A", "C"]]),
                             ("lazy-fc", [["A", "C"]])]:
            rt = make_runtime(compile_pattern(chains, mode, orders=orders))
            assert len(run_stream(rt, stream)) == 1, mode

    def test_in_envelope_negative_event_invalidates(self):
        chains = chains_of(
            "PATTERN SEQ(NOT(B h), A a, C c) WITHIN 50 msec")
        stream = mkstream(("B", 5), ("A", 10), ("C", 55))
        for mode, orders in [("eager", None), ("lazy-pp", [["C", "A"]]),
                             ("lazy-fc", [["C", "A"]])]:
            rt = make_runtime(compile_pattern(chains, mode, orders=orders))
            assert run_stream(rt, stream) == [], mode

    def test_conjunction_negative_seen_before_late_timeout(self):
        # c@20 invalidates {a@10} even though the next event arrives long
        # after both expire from the buffer.
        chains = chains_of(
            "PATTERN AND(A a, NOT(B b), NOT(C c)) WITHIN 50 msec")
        stream = mkstream(("C", 5), ("A", 10), ("Z", 59), ("Z", 100))
        for mode, orders in [("eager", None), ("lazy-pp", [["A"]])]:
            rt = make_runtime(compile_pattern(chains, mode, orders=orders))
            assert run_stream(rt, stream) == [], mode

    def test_negative_arrival_while_waiting(self):
        chains = chains_of(
            "PATTERN AND(A a, NOT(B b), NOT(C c)) WITHIN 50 msec")
        stream = mkstream(("A", 10), ("C", 20), ("Z", 59), ("Z", 100))
        for mode, orders in [("eager", None), ("lazy-pp", [["A"]])]:
            rt = make_runtime(compile_pattern(chains, mode, orders=orders))
            assert run_stream(rt, stream) == [], mode

    def test_negative_arrival_after_window_is_ignored(self):
        chains = chains_of("PATTERN AND(A a, NOT(B b)) WITHIN 50 msec")
        stream = mkstream(("A", 10), ("B", 61))
        for mode, orders in [("eager", None), ("lazy-pp", [["A"]])]:
            rt = make_runtime(compile_pattern(chains, mode, orders=orders))
            assert len(run_stream(rt, stream)) == 1, mode


class TestDeterminism:
    def test_identical_runs_identical_output(self):
        rng = random.Random(9)
        from cep.difftest import random_pattern, random_stream

        for _ in range(20):
            chains = chains_of(random_pattern(rng))
            types = sorted({t for c in chains for t in c.types.values()})
            stream = random_stream(rng, types, 20)
            orders = [sorted(t for _, t in c.positives) for c in chains]
            first = second = None
            for attempt in range(2):
                rt = make_runtime(compile_pattern(chains, "lazy-pp", orders=orders))
                lines = [match_line(m) for m in run_stream(rt, stream)]
                counters = rt.metrics.counters() if hasattr(rt, "metrics") else None
                if attempt == 0:
                    first = (lines, counters)
                else:
                    second = (lines, counters)
            assert first == second

    def test_matches_emitted_in_detection_order(self):
        chains = chains_of("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour")
        rt = make_runtime(compile_pattern(chains, "lazy", orders=[["C", "B", "A"]]))
        out = run_stream(rt, FIG3_STREAM)
        keys = [(m.detection_ts, match_key(m.binding)) for m in out]
        assert keys == sorted(keys)

    def test_matches_emitted_in_detection_order_unsorted(self):
        # Bound C, A, B: the plan emits each step's matches in order, and
        # the runtime does not sort them.
        chains = chains_of("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour")
        (nfa,) = compile_pattern(chains, "lazy", orders=[["C", "A", "B"]])
        assert nfa.drain_key is None
        out = run_stream(Runtime(nfa), FIG3_STREAM)
        keys = [(m.detection_ts, match_key(m.binding)) for m in out]
        assert len(keys) == 4 and keys == sorted(keys)

    def test_merged_matches_emitted_in_detection_order(self):
        # The second chain's flush match is the earlier one.
        chains = chains_of(
            "PATTERN OR(SEQ(A a, NOT(X x)), SEQ(B b, NOT(X x))) WITHIN 50 msec")
        rt = make_runtime(compile_pattern(chains, "eager"))
        assert rt.step(Event("B", 5, 0)) == []
        assert rt.step(Event("A", 10, 1)) == []
        out = rt.flush()
        assert [(m.detection_ts, match_line(m)) for m in out] == [
            (55, "b=B@5#0"), (60, "a=A@10#1")]


class TestNegationInsideDisjunction:
    """Merged chains with their own negations share F and R; checks must not
    leak across branches."""

    PATTERNS = [
        # The shared condition forces the absence check of each branch to
        # its own accepting-state entry in the merged automaton.
        "PATTERN OR(SEQ(A a, NOT(X h), B b), SEQ(B b, NOT(X h), C c))\n"
        "WHERE skip_till_any_match { h.x < b.x }\nWITHIN 12 msec",
        "PATTERN OR(SEQ(A a, NOT(X h), B b), SEQ(C c, NOT(Y g), D d))\n"
        "WITHIN 10 msec",
        # One branch negates the type that the other binds: the buffer
        # stores it for the absence check, and the eager take must still
        # bind it on arrival only.
        "PATTERN OR(SEQ(A a, NOT(D x), C c), SEQ(B b, D d)) WITHIN 10 msec",
        "PATTERN OR(SEQ(C c, NOT(B x), D d), AND(A a, B b)) WITHIN 10 msec",
    ]

    def test_all_modes_match_oracle(self):
        from cep.oracle import enumerate_matches_chains

        rng = random.Random(31)
        for text in self.PATTERNS:
            chains = chains_of(text)
            types = sorted({t for c in chains for t in c.types.values()})
            orders = [sorted(t for _, t in c.positives) for c in chains]
            for _ in range(150):
                events = []
                ts = 0
                for seq in range(rng.randint(0, 16)):
                    ts += rng.choice([0, 1, 2, 4])
                    events.append(Event(rng.choice(types), ts, seq,
                                        {"x": float(rng.randint(0, 2))}))
                expected = sorted(
                    match_key(b)
                    for b in enumerate_matches_chains(chains, events))
                for mode in ("eager", "lazy-pp", "lazy-fc", "multi"):
                    rt = make_runtime(
                        compile_pattern(chains, mode, orders=orders))
                    got = sorted(match_key(m.binding)
                                 for m in run_stream(rt, events))
                    assert got == expected, (text, mode, events)


class TestSharedBufferEquivalence:
    def test_paired_mode_on_random_sequences(self):
        rng = random.Random(17)
        letters = ["A", "B", "C", "D"]
        compared = 0
        for _ in range(100):
            n = rng.randint(2, 4)
            roles = [f"{t} {t.lower()}" for t in letters[:n]]
            text = f"PATTERN SEQ({', '.join(roles)}) WITHIN {rng.choice([5, 10, 20])} msec"
            (chain,) = chains_of(text)
            order = [t for t in letters[:n]]
            rng.shuffle(order)
            nfa = build_lazy(chain, order)
            rt = PairedRuntime(nfa)
            events = []
            ts = 0
            for seq in range(rng.randint(0, 22)):
                ts += rng.choice([0, 1, 1, 2, 4])
                events.append(Event(rng.choice(letters[:n]), ts, seq))
            run_stream(rt, events)  # raises ShadowMismatch on divergence
            compared += rt.metrics.buffer_search
        assert compared > 100

    def test_paired_mode_checks_the_window_on_every_spawn(self, monkeypatch):
        # The subset search takes the stale Bs into F, whose match the take
        # emits without building an instance. With the search check off,
        # the spawn check alone sees the subset reaching past the window.
        chains = apply_group_by(chains_of(
            "PATTERN SEQ(B+ b[], C c) WHERE skip_till_any_match"
            " { b[i].stock = b[i-1].stock } WITHIN 10 msec"), "b", "stock")
        (nfa,) = compile_pattern(chains, "lazy", orders=[["C", "B"]])
        assert [tp.emits for p in nfa.plans for tp in p.entry_takes] == [True]
        stream = mkstream(("B", 0, {"stock": 1}), ("B", 1, {"stock": 1}),
                          ("B", 25, {"stock": 1}), ("C", 30))
        got = run_stream(PairedRuntime(nfa), stream)
        assert [match_line(m) for m in got] == ["b=B@25#2; c=C@30#3"]
        monkeypatch.setattr(InputBuffer, "expire", lambda self, ts: 0)
        with pytest.raises(ShadowMismatch, match="type B"):
            run_stream(PairedRuntime(nfa), stream)
        monkeypatch.setattr(PairedRuntime, "_query", Runtime._query)
        with pytest.raises(ShadowMismatch, match="window"):
            run_stream(PairedRuntime(nfa), stream)

    def test_paired_mode_steps_on_after_an_out_of_order_event(self):
        # A@3 is rejected, so it is no arrival: the later search for As
        # before B@8 must expect A@5 alone.
        chains = chains_of("PATTERN SEQ(A a, B b) WITHIN 10 msec")
        (nfa,) = compile_pattern(chains, "lazy", orders=[["B", "A"]])
        stream = mkstream(("A", 5), ("A", 3), ("B", 8))

        def lines(rt):
            out = []
            for e in stream:
                try:
                    out += rt.step(e)
                except StreamDataError:
                    pass
            return [match_line(m) for m in out + rt.flush()]

        assert lines(PairedRuntime(nfa)) == lines(Runtime(nfa)) == [
            "a=A@5#0; b=B@8#2"]

    def test_paired_mode_checks_the_batch_stamp(self, monkeypatch):
        # Every b is searched below c, so the take stamps its whole batch
        # at the instance's newest event, c. A subset reaching past c would
        # be stamped too early: the paired check refuses it.
        chains = chains_of("PATTERN SEQ(A a, B+ b[], C c) WITHIN 10 msec")
        (nfa,) = compile_pattern(chains, "lazy", orders=[["C", "A", "B"]])
        (tp,) = [tp for p in nfa.plans for tp in p.entry_takes if tp.emits]
        assert tp.succ_roles == {"c"}
        stream = mkstream(("A", 1), ("B", 2), ("C", 5))
        got = run_stream(PairedRuntime(nfa), stream)
        assert [(m.detection_ts, match_line(m)) for m in got] == [
            (5, "a=A@1#0; b=B@2#1; c=C@5#2")]
        fetch = runtime.iterate_fetch
        late = Event("B", 6, 3)
        monkeypatch.setattr(runtime, "iterate_fetch",
                            lambda *a, **k: fetch(*a, **k) + [(late,)])
        with pytest.raises(ShadowMismatch, match="successor roles"):
            run_stream(PairedRuntime(nfa), stream)

    @pytest.mark.parametrize("order", [["C", "B"], ["B", "C"]])
    def test_paired_mode_checks_kleene_pools(self, monkeypatch, order):
        # With expiry off, B@0 stays in the shared buffer after it left the
        # window. The member atom keeps it out of every subset, so no spawn
        # reaches past the window: only the pool check can notice.
        chains = chains_of("PATTERN SEQ(B+ b[], C c) WHERE skip_till_any_match"
                           " { b[i].x > 0 } WITHIN 10 msec")
        (nfa,) = compile_pattern(chains, "lazy", orders=[order])
        stream = mkstream(("B", 0, {"x": 0}), ("B", 15, {"x": 1}), ("C", 20))
        got = run_stream(PairedRuntime(nfa), stream)
        assert [match_line(m) for m in got] == ["b=B@15#1; c=C@20#2"]
        monkeypatch.setattr(InputBuffer, "expire", lambda self, ts: 0)
        with pytest.raises(ShadowMismatch, match="type B"):
            run_stream(PairedRuntime(nfa), stream)

    @pytest.mark.parametrize("mode, orders", [
        ("eager", None), ("lazy", [["A", "C"]]), ("lazy", [["C", "A"]]),
        ("lazy-fc", [["A", "C"]]), ("lazy-fc", [["C", "A"]])])
    def test_paired_mode_checks_absence_scans(self, monkeypatch, mode,
                                              orders):
        # With expiry off, B@0 stays in the shared buffer after it left the
        # window: the absence scan must notice.
        chains = chains_of("PATTERN SEQ(NOT(B b), A a, C c) WITHIN 10 msec")
        (nfa,) = compile_pattern(chains, mode, orders=orders)
        stream = mkstream(("B", 0), ("A", 20), ("C", 25))
        got = run_stream(PairedRuntime(nfa), stream)
        assert [match_line(m) for m in got] == ["a=A@20#1; c=C@25#2"]
        monkeypatch.setattr(InputBuffer, "expire", lambda self, ts: 0)
        with pytest.raises(ShadowMismatch, match="type B"):
            run_stream(PairedRuntime(nfa), stream)


class TestMetricsCounters:
    def test_counts_are_tracked(self):
        chains = chains_of("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour")
        rt = make_runtime(compile_pattern(chains, "lazy", orders=[["C", "B", "A"]]))
        run_stream(rt, FIG3_STREAM)
        c = rt.metrics.counters()
        assert c["events_processed"] == 5
        assert c["matches"] == 4
        assert c["buffer_insert"] == 4  # the two As and two Bs are stored
        assert c["instance_create"] > 4
        # The seed, plus the C, CB and CBA clones while they are entered:
        # none of them is left for an arrival to act on.
        assert c["peak_live_instances"] == 4

    def test_expiry_is_counted(self):
        chains = chains_of("PATTERN SEQ(A a, B b) WITHIN 5 msec")
        rt = make_runtime(compile_pattern(chains, "lazy", orders=[["B", "A"]]))
        rt.step(Event("A", 0, 0))
        rt.step(Event("A", 100, 1))
        assert rt.metrics.buffer_remove == 1


def _held_events(root) -> set:
    """Ids of the events reachable from ``root`` through cep objects and
    containers (types, functions and modules are not followed)."""
    seen, found, todo = set(), set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Event):
            found.add(id(obj))
        elif isinstance(obj, (dict, list, tuple, set)):
            todo.extend(gc.get_referents(obj))
        elif (not isinstance(obj, type)
              and type(obj).__module__.startswith("cep.")):
            todo.extend(getattr(obj, "__dict__", {}).values())
            todo.extend(getattr(obj, name)
                        for name in getattr(type(obj), "__slots__", ())
                        if hasattr(obj, name))
    return found


def test_buffer_follows_the_window_not_the_group_values():
    # Every B carries a new stock: a grouped B+ runtime must not keep one
    # entry per value ever seen. No step here searches, so between
    # searches the buffer may hold two windows; flush leaves the last one.
    # Both bounds allow the lane's not yet compacted expired prefix.
    chains = apply_group_by(chains_of(
        "PATTERN SEQ(A a, B+ b[], C c) WHERE skip_till_any_match"
        " { b[i].stock = b[i-1].stock } WITHIN 10 msec"), "b", "stock")
    rt = make_runtime(compile_pattern(chains, "lazy",
                                      orders=[["C", "A", "B"]]))
    two_windows = 2 * 11  # one B per msec
    for i in range(10_000):
        rt.step(Event("B", i, i, {"stock": f"S{i}"}))
        if i % 97 == 0:
            assert len(_held_events(rt.buffer)) <= two_windows + LANE_SLACK
    rt.flush()
    last_window = rt.buffer.query("B")
    assert [e.seq for e in last_window] == list(range(9_989, 10_000))
    held = _held_events(rt.buffer)
    assert {id(e) for e in last_window} <= held
    assert len(held) <= len(last_window) + LANE_SLACK


def test_negative_seqs_on_the_watermark_keep_their_match():
    # A@5 sits exactly on B@15's watermark; its seq sorts below -1.
    chains = chains_of("PATTERN SEQ(A a, B b) WITHIN 10 msec")
    stream = [Event("A", 0, -20), Event("A", 5, -10), Event("B", 15, -5)]
    expected = [match_key(b) for b in enumerate_matches_chains(chains, stream)]
    assert len(expected) == 1
    for mode, orders in (("eager", None), ("lazy", [["B", "A"]]),
                         ("lazy", [["A", "B"]])):
        rt = make_runtime(compile_pattern(chains, mode, orders=orders))
        got = [match_key(m.binding) for m in run_stream(rt, stream)]
        assert got == expected, (mode, orders)


def test_a_search_never_sees_an_event_that_expiry_left_behind():
    # A@5 is buffered when B@17 arrives, one window and less than two
    # behind it: the step that searches must expire it first.
    chains = chains_of("PATTERN SEQ(A a, B b) WITHIN 10 msec")
    stream = mkstream(("A", 5), ("A", 8), ("B", 17))
    expected = [match_key(b) for b in enumerate_matches_chains(chains, stream)]
    assert expected == [match_key({"a": stream[1], "b": stream[2]})]
    for mode, orders in (("lazy", [["B", "A"]]), ("lazy-fc", [["B", "A"]]),
                         ("eager", None)):
        (nfa,) = compile_pattern(chains, mode, orders=orders)
        for rt in (Runtime(nfa), PairedRuntime(nfa)):
            got = [match_key(m.binding) for m in run_stream(rt, stream)]
            assert got == expected, (mode, type(rt).__name__)


def _span(binding) -> int:
    stamps = [e.ts for bound in binding.values()
              for e in (bound if isinstance(bound, tuple) else (bound,))]
    return max(stamps) - min(stamps)


def _shifted(key, dts, dseq) -> tuple:
    return tuple((role, tuple((etype, ts + dts, seq + dseq)
                              for etype, ts, seq in members))
                 for role, members in key)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6),
       stream=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4),
                                 st.integers(0, 3)), max_size=12),
       dts=st.integers(0, 1000), dseq=st.integers(-40, 0))
@example(seed=1, stream=[(0, 0, 0), (0, 1, 0), (1, 3, 0)], dts=0, dseq=-3)
def test_window_boundary_and_shifted_streams(seed, stream, dts, dseq):
    # Gaps of 0, 1, w-1, w and w+1 put events on, just inside and just
    # past each other's window; shifting ts up and seq down (below -1)
    # must move the matches along and change nothing else.
    rng = random.Random(seed)
    chains = chains_of(random_pattern(rng))
    w = chains[0].window
    types = sorted({t for c in chains for t in c.types.values()}) + ["Z"]
    events, ts = [], 0
    for seq, (kind, gap, x) in enumerate(stream):
        ts += (0, 1, w - 1, w, w + 1)[gap]
        # The history that generated corr atoms read, from the same draws.
        h = (float(x % 3), float(gap % 3), float(kind % 3))
        events.append(Event(types[kind % len(types)], ts, seq,
                            {"x": float(x), "h": h}))
    moved = [Event(e.etype, e.ts + dts, e.seq + dseq, e.attrs)
             for e in events]
    expected = sorted(match_key(b) for b in
                      enumerate_matches_chains(chains, events, cap=13))
    perm = sorted({t for c in chains for _, t in c.positives})
    rng.shuffle(perm)
    orders = [[t for t in perm if t in {ty for _, ty in c.positives}]
              for c in chains]
    for mode in ("eager", "lazy-pp", "lazy-fc", "multi"):
        try:
            nfas = compile_pattern(chains, mode, orders=orders)
        except BuildError:
            continue  # first-chance negation refuses a trailing negation
        got = run_stream(make_runtime(nfas), events)
        assert sorted(m.key() for m in got) == expected, mode
        assert all(_span(m.binding) <= w for m in got), mode
        got_moved = run_stream(make_runtime(nfas), moved)
        assert sorted(m.key() for m in got_moved) == sorted(
            _shifted(k, dts, dseq) for k in expected), mode


def test_match_key_value_is_pinned():
    # The benchmark's reference digests hash repr(match_key(...)).
    binding = {"c": Event("C", 9, 5), "a": Event("A", 1, 0, {"x": 1.0}),
               "b": (Event("B", 2, 1), Event("B", 2, 3))}
    assert repr(match_key(binding)) == (
        "(('a', (('A', 1, 0),)), ('b', (('B', 2, 1), ('B', 2, 3))),"
        " ('c', (('C', 9, 5),)))")


ITERATION_PATTERNS = [
    "SEQ(A a, B+ b[], C c)",
    "SEQ(B+ b[], C c)",
    "SEQ(A a, B{2,3} b[])",
    "AND(A a, B{1,2} b[], C c)",
    "SEQ(A a, B+ b[], NOT(C h))",
]


def _assert_members_ascend(binding, where):
    for role, bound in binding.items():
        if isinstance(bound, tuple):
            keys = [x.key for x in bound]
            assert all(p < q for p, q in zip(keys, keys[1:])), (where, role, keys)


@settings(max_examples=60, deadline=None)
@given(
    pattern=st.sampled_from(ITERATION_PATTERNS),
    mode=st.sampled_from(["eager", "lazy"]),
    grouped=st.booleans(),
    order_seed=st.integers(0, 5),
    stream=st.lists(st.tuples(st.sampled_from("ABBBCZ"), st.integers(0, 2),
                              st.integers(0, 1)), min_size=4, max_size=16),
)
def test_member_tuples_ascend_by_key(pattern, mode, grouped, order_seed, stream):
    # The runtime reads a member tuple's extreme keys from its two ends.
    chains = chains_of(f"PATTERN {pattern} WITHIN 8 msec")
    if grouped:
        chains = apply_group_by(chains, "b", "stock")
    orders = None
    if mode == "lazy":
        orders = []
        for c in chains:
            types = sorted(t for _, t in c.positives)
            random.Random(order_seed).shuffle(types)
            orders.append(types)
    rt = make_runtime(compile_pattern(chains, mode, orders=orders))
    events, ts = [], 0
    for seq, (etype, gap, stock) in enumerate(stream):
        ts += gap
        events.append(Event(etype, ts, seq, {"stock": stock}))
    emitted = []
    for e in events:
        emitted += rt.step(e)
        for inst in registered(rt):
            _assert_members_ascend(inst.binding, e)
    emitted += rt.flush()
    for m in emitted:
        _assert_members_ascend(m.binding, "match")


def _record_registrations(rt, iids):
    """Wrap ``rt._register``: add each registered iid to ``iids``."""
    register = rt._register

    def recording(inst):
        iids.add(inst.iid)
        register(inst)

    rt._register = recording


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**6),
       mode=st.sampled_from(["eager", "lazy", "lazy-pp", "lazy-fc", "multi"]))
def test_settling_instances_are_never_registered(seed, mode):
    rng = random.Random(seed)
    chains = chains_of(random_pattern(rng))
    types = sorted({t for c in chains for t in c.types.values()})
    stream = random_stream(rng, types, 20)
    perm = sorted({t for c in chains for _, t in c.positives})
    rng.shuffle(perm)
    orders = [[t for t in perm if t in {ty for _, ty in c.positives}]
              for c in chains]
    try:
        rt = make_runtime(compile_pattern(chains, mode, orders=orders))
    except BuildError:
        return  # first-chance negation refuses a trailing negation
    iids = {rt.seed.iid}
    _record_registrations(rt, iids)
    # Registered instances are the ones an arrival can act on; a timeout
    # acts only on those.
    acted_on = {sid for sids in rt.type_interest.values() for sid in sids}
    assert set(rt.by_state) == acted_on
    for e in stream:
        rt.step(e)
        insts = registered(rt)
        for inst in insts:
            assert inst.alive and inst.sid in acted_on, inst.sid
        assert rt._registered == len(insts)
        assert rt._entering == 0
        assert {iid for _, iid, _ in rt.heap} <= iids
    rt.flush()
    # Every instance but the seed was retired, once.
    assert rt.metrics.instance_retire == rt.metrics.instance_create - 1


def test_bare_completions_build_no_instance():
    # The takes into F emit the four matches; every other instance but the
    # seed, built before the wrapper, is built.
    chains = chains_of("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour")
    rt = make_runtime(compile_pattern(chains, "lazy", orders=[["C", "B", "A"]]))
    built = []
    new = rt._new_instance
    rt._new_instance = lambda *args: built.append(new(*args)) or built[-1]
    assert len(run_stream(rt, FIG3_STREAM)) == 4
    counters = rt.metrics.counters()
    assert len(built) == counters["instance_create"] - 1 - 4
    assert counters["instance_retire"] == counters["instance_create"] - 1


class Corpus(NamedTuple):
    # Every instance built: [automaton, state it is built in, whether it
    # was registered].
    built: list
    # Per runtime, every heap entry, found after some step, of an instance
    # that its own entry retired.
    stale_heap: list


@pytest.fixture(scope="module")
def corpus():
    """What 300 difftest cases, each run in eager, lazy-pp and lazy-fc,
    build and leave on the timeout heap."""
    corpus = Corpus([], [])

    class Recording(PairedRuntime):
        def __init__(self, nfa):
            self.built, self.entering, self.retired_by_entry = {}, [], set()
            self.stale = set()
            corpus.stale_heap.append(self.stale)
            super().__init__(nfa)

        def _new_instance(self, parent, sid, *args):
            inst = super()._new_instance(parent, sid, *args)
            self.built[inst.iid] = [self.nfa, sid, False]
            corpus.built.append(self.built[inst.iid])
            return inst

        def _register(self, inst):
            self.built[inst.iid][2] = True
            super()._register(inst)

        def _entry(self, inst):
            self.entering.append(inst)
            try:
                super()._entry(inst)
            finally:
                self.entering.pop()

        def _retire(self, inst):
            if any(inst is x for x in self.entering):
                self.retired_by_entry.add(inst.iid)
            super()._retire(inst)

        def step(self, e):
            out = super().step(e)
            self.stale.update(
                entry for entry in self.heap
                if entry[1] in self.retired_by_entry)
            return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(difftest, "PairedRuntime", Recording)
        assert difftest.run_suite(cases=300, seed=1) is None
    return corpus


def test_no_instance_is_built_in_f(corpus):
    # Every take into F emits its match; completions that gate or grow run
    # on an eager full roleset before F.
    assert any(nfa.plans[sid].complete is not None
               for nfa, sid, _ in corpus.built)
    assert [nfa.states for nfa, sid, _ in corpus.built
            if sid == nfa.accepting] == []


def test_no_instance_is_registered_in_a_tail_that_never_waits(corpus):
    registered = [reg for nfa, sid, reg in corpus.built
                  if nfa.plans[sid].neg is not None
                  and nfa.plans[sid].neg.wait is None]
    assert registered and not any(registered)


def test_no_heap_entry_outlives_the_entry_that_retired_it(corpus):
    # An instance is registered, and put on the timeout heap, only once its
    # entry has returned with it alive.
    assert sum(map(len, corpus.stale_heap)) == 0
    assert any(reg for _, _, reg in corpus.built)


def test_first_chance_floor_drops_a_directly_emitted_match():
    # The C clone's first-chance scan finds D@0 and sets its floor. The A
    # take into F emits without building an instance, and drops A@8, whose
    # match window reaches back to D@0, as the negative tail would.
    chains = chains_of("PATTERN SEQ(NOT(D d), C c, A a) WITHIN 10 msec")
    (nfa,) = compile_pattern(chains, "lazy-fc", orders=[["C", "A"]])
    (take,) = nfa.plans[nfa.plans[0].stream_takes["C"][0].dst].stream_takes["A"]
    assert take.dst == nfa.accepting and take.emits
    stream = mkstream(("D", 0), ("C", 5), ("A", 8), ("A", 12))
    rt = make_runtime([nfa])
    got = run_stream(rt, stream)
    assert [match_line(m) for m in got] == ["a=A@12#3; c=C@5#1"]
    assert [match_key(m.binding) for m in got] == [
        match_key(b) for b in enumerate_matches_chains(chains, stream)]
    counters = rt.metrics.counters()
    assert [counters[k] for k in ("matches", "instance_create",
                                  "instance_retire", "peak_live_instances")
            ] == [1, 4, 3, 3]


def test_eager_branches_sharing_f_append_only_to_their_own():
    # Both eager chains end on B+: each branch's full roleset is a state of
    # its own that carries the branch's append take, and the shared F
    # carries none.
    chains = chains_of(
        "PATTERN OR(SEQ(A a, B+ b[]), SEQ(C c, B+ b[])) WITHIN 1 hour")
    stream = mkstream(("A", 1), ("C", 2), ("B", 3), ("B", 4))
    expected = sorted(match_key(b)
                      for b in enumerate_matches_chains(chains, stream))
    (nfa,) = compile_pattern(chains, "eager")
    full = [p for p in nfa.plans if p.complete is not None]
    assert [p.complete.grow for p in full] == [True, True]
    assert [[tp.branch for tp in p.stream_takes["B"]] for p in full] == [
        [0], [1]]
    assert nfa.plans[nfa.accepting].stream_takes == {}
    got = run_stream(make_runtime([nfa]), stream)
    assert len(expected) == 6
    assert sorted(m.key() for m in got) == expected
    assert sorted(m.branch for m in got) == [0, 0, 0, 1, 1, 1]


def test_eager_completion_grows_only_with_an_append_take():
    # The iterated role is not last, so nothing extends a completed
    # instance, and it has no atoms, so nothing is left to gate: the take
    # that binds b requires a's minimum count and enters the negative tail.
    chains = chains_of("PATTERN SEQ(A+ a[], B b, NOT(C h)) WITHIN 300 msec")
    (nfa,) = compile_pattern(chains, "eager")
    assert all(p.complete is None for p in nfa.plans)
    tail_state = nfa.branches[0].tail_state
    into_tail = [tp for tp in nfa.edges if tp.dst == tail_state]
    assert [(tp.role, tp.req_iter_min) for tp in into_tail] == [
        ("b", ("a", 1))]
    # With an atom on a, the full roleset gates before it hands off.
    (gated,) = compile_pattern(chains_of(
        "PATTERN SEQ(A+ a[], B b, NOT(C h)) WHERE skip_till_any_match"
        " { a[i].price > 0 } WITHIN 300 msec"), "eager")
    (c,) = [p.complete for p in gated.plans if p.complete is not None]
    assert not c.grow and c.tail_start == gated.branches[0].tail_state
    events = generate_stream(StreamSpec(
        rates={"A": 20.0, "B": 30.0, "C": 10.0, "D": 5.0}, count=800, seed=5))
    rt = make_runtime([nfa])
    for e in events:
        rt.step(e)
    rt.flush()
    counters = rt.metrics.counters()
    assert counters["matches"] == 146_504
    assert counters["instance_create"] == 425_782
    assert counters["peak_live_instances"] == 73_726


def test_growing_accept_hands_out_copies_of_its_binding():
    chains = apply_group_by(chains_of(
        "PATTERN SEQ(A a, B+ b[]) WHERE skip_till_any_match"
        " { b[i].stock = b[i-1].stock } WITHIN 1 hour"), "b", "stock")
    nfas = compile_pattern(chains, "eager")
    stream = mkstream(("A", 1), ("B", 2, {"stock": 1}), ("B", 3, {"stock": 2}),
                      ("B", 4, {"stock": 1}), ("A", 5),
                      ("B", 6, {"stock": 1}), ("B", 7, {"stock": 2}))
    rt, untouched = make_runtime(nfas), make_runtime(nfas)
    assert any(p.complete.grow for p in rt.plans if p.complete is not None)
    got, expected = [], []
    for e in stream:
        out = rt.step(e)
        live = {id(inst.binding) for inst in registered(rt)}
        assert not any(id(m.binding) in live for m in out)
        got += [match_key(m.binding) for m in out]
        for m in out:  # changes no match emitted later
            m.binding.clear()
            m.binding["a"] = Event("Z", 0, -1)
        expected += [match_key(m.binding) for m in untouched.step(e)]
    assert got == expected
    assert len(got) > len(stream)


def test_error_inside_a_settling_entry_leaves_no_entry_open():
    chains = chains_of("PATTERN SEQ(A a, B b, C c) WHERE skip_till_any_match"
                       " { a.x < b.x } WITHIN 10 msec")
    rt = make_runtime(compile_pattern(chains, "lazy",
                                      orders=[["C", "B", "A"]]))
    rt.step(Event("A", 1, 0, {"x": "text"}))
    rt.step(Event("B", 2, 1, {"x": 1.0}))
    with pytest.raises(StreamDataError):
        rt.step(Event("C", 3, 2))  # raised by the search of the CB clone
    assert rt._entering == 0
    assert registered(rt) == [rt.seed] and rt._registered == 1
    rt.step(Event("A", 40, 3, {"x": 0.5}))  # A@1 has left the window
    rt.step(Event("B", 41, 4, {"x": 2.0}))
    out = [match_line(m) for m in rt.step(Event("C", 42, 5))]
    assert out == ["a=A@40#3; b=B@41#4; c=C@42#5"]
    assert rt.metrics.peak_live_instances == 4


@pytest.mark.parametrize("pattern, rates, group_by", [
    ("PATTERN SEQ(A a, B b, C c) WHERE skip_till_any_match {"
     " corr(a.history, b.history) > 0.9 and corr(b.history, c.history) > 0.9"
     " and corr(c.history, a.history) > 0.9 } WITHIN 1800 msec",
     {"A": 100.0, "B": 10.0, "C": 1.0}, None),
    ("PATTERN SEQ(A a, B+ b[], C c) WHERE skip_till_any_match"
     " { b[i].stock = b[i-1].stock and b[i].price > a.price } WITHIN 400 msec",
     {"A": 5.0, "B": 40.0, "C": 2.0}, ("b", "stock")),
])
def test_paired_mode_on_the_benchmark_patterns(pattern, rates, group_by):
    chains = chains_of(pattern)
    if group_by is not None:
        chains = apply_group_by(chains, *group_by)
    events = generate_stream(StreamSpec(rates=rates, count=1500, seed=3,
                                        stocks_per_type=8))
    for mode in ("eager", "lazy"):
        (nfa,) = compile_pattern(chains, mode, rates=rates)
        paired = PairedRuntime(nfa)
        got = run_stream(paired, events)  # raises ShadowMismatch if unequal
        plain = Runtime(nfa)
        assert [match_key(m.binding) for m in got] == [
            match_key(m.binding) for m in run_stream(plain, events)]
        # The check changes no count, so paired runs stand for plain ones.
        assert paired.metrics.counters() == plain.metrics.counters()
        # Eager searches no buffer here: its paired run checks the spawns.
        assert got and (mode == "eager" or paired.metrics.buffer_search > 0)


def _draw_matches(data, signature=None) -> list:
    """2-8 matches over one drawn stream. With a ``signature`` (role ->
    iterated or not), each binds exactly those roles, role ``r`` to type
    ``r.upper()``; otherwise each draws its own roles, types and kinds."""
    # One stream: seq increases, ts does not decrease.
    gaps = data.draw(st.lists(st.tuples(st.sampled_from("ABC"),
                                        st.integers(0, 2)),
                              min_size=1, max_size=12))
    gaps += [(t, 0) for t in "ABC"]  # every type occurs
    events, ts = [], 0
    for seq, (etype, gap) in enumerate(gaps):
        ts += gap
        events.append(Event(etype, ts, seq))
    by_type: dict = {}
    for e in events:
        by_type.setdefault(e.etype, []).append(e)
    matches = []
    for _ in range(data.draw(st.integers(2, 8))):
        binding = {}
        roles = signature or data.draw(st.sets(st.sampled_from("abc"),
                                               min_size=1))
        for role in roles:
            etype = (role.upper() if signature
                     else data.draw(st.sampled_from(sorted(by_type))))
            pool = by_type[etype]
            picked = [pool[i] for i in sorted(data.draw(st.sets(
                st.integers(0, len(pool) - 1), min_size=1, max_size=3)))]
            iterated = (signature[role] if signature
                        else data.draw(st.booleans()))
            binding[role] = tuple(picked) if iterated else picked[0]
        matches.append(Match(binding, data.draw(st.integers(0, 1)),
                             data.draw(st.integers(0, 2))))
    return matches


def _sorts_as_the_match_key(matches, key) -> bool:
    by_key = sorted(matches, key=lambda m: (m.detection_ts, m.key()))
    return [id(m) for m in sorted(matches, key=key)] == [id(m) for m in by_key]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_detection_order_sorts_as_the_match_key(data):
    assert _sorts_as_the_match_key(_draw_matches(data), N.detection_order)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compiled_drain_key_sorts_as_the_match_key(data):
    # One role: the seed's take emits the step's one match, and no key is
    # compiled.
    roles = sorted(data.draw(st.sets(st.sampled_from("abc"), min_size=2)))
    iterated = data.draw(st.sampled_from([None] + roles))
    items = [f"{r.upper()}+ {r}[]" if r == iterated else f"{r.upper()} {r}"
             for r in roles]
    (nfa,) = compile_pattern(
        chains_of(f"PATTERN SEQ({', '.join(items)}) WITHIN 1 hour"), "eager")
    assert nfa.drain_key is not N.detection_order
    matches = _draw_matches(data, {r: r == iterated for r in roles})
    assert _sorts_as_the_match_key(matches, nfa.drain_key)


def test_unsorted_drain_on_the_kleene_benchmark_pattern():
    # The benchmark's Kleene pattern, group-by and rates, on two sessions
    # far apart: the plan's order is the sorted order, step by step.
    class SortingRuntime(Runtime):
        def _drain(self) -> list:
            return sorted(super()._drain(), key=N.detection_order)

    rates = {"A": 5.0, "B": 40.0, "C": 2.0}
    chains = apply_group_by(chains_of(
        "PATTERN SEQ(A a, B+ b[], C c) WHERE skip_till_any_match"
        " { b[i].stock = b[i-1].stock and b[i].price > a.price }"
        " WITHIN 400 msec"), "b", "stock")
    (nfa,) = compile_pattern(chains, "lazy", rates=rates)
    assert nfa.drain_key is None
    events, offset = [], 0
    for seed in (7, 8):
        for e in generate_stream(StreamSpec(rates=rates, count=400, seed=seed,
                                            stocks_per_type=8)):
            events.append(Event(e.etype, e.ts + offset, len(events), e.attrs))
        offset = events[-1].ts + 10_000
    plain, sorting = Runtime(nfa), SortingRuntime(nfa)
    steps = [(plain.step(e), sorting.step(e)) for e in events]
    steps.append((plain.flush(), sorting.flush()))
    for got, want in steps:
        assert [(m.detection_ts, m.key()) for m in got] == [
            (m.detection_ts, m.key()) for m in want]
    assert max(len(got) for got, _ in steps) > 1


@pytest.mark.parametrize("pattern, rates, group_by", [
    ("PATTERN SEQ(A a, B b, C c) WHERE skip_till_any_match"
     " { corr(a.history, b.history) > 0.9 and corr(b.history, c.history) > 0.9"
     " and corr(c.history, a.history) > 0.9 } WITHIN 1800 msec",
     {"A": 100.0, "B": 10.0, "C": 1.0}, None),
    ("PATTERN SEQ(A a, B+ b[], C c) WHERE skip_till_any_match"
     " { b[i].stock = b[i-1].stock and b[i].price > a.price }"
     " WITHIN 400 msec", {"A": 5.0, "B": 40.0, "C": 2.0}, ("b", "stock")),
], ids=["corr", "kleene"])
def test_settling_instances_touch_no_registry(pattern, rates, group_by):
    # The benchmark patterns: a state that no arrival acts on has no entry
    # in ``by_state``, and its clones are retired when their entry returns.
    chains = chains_of(pattern)
    if group_by is not None:
        chains = apply_group_by(chains, *group_by)
    rt = make_runtime(compile_pattern(chains, "lazy", rates=rates))
    run_stream(rt, generate_stream(StreamSpec(rates=rates, count=400, seed=3,
                                              stocks_per_type=8)))
    settling = set(range(len(rt.plans) - 1)) - rt.nfa.acted_on
    assert settling and rt.metrics.instance_retire > 0
    assert not settling & set(rt.by_state)
    assert registered(rt) == [rt.seed] and rt._registered == 1


@pytest.mark.parametrize("pattern, order, stream", [
    # The A clone's first-chance scan finds D@1 and sets its floor to 11.
    # The B take into F then emits a bare batch bounded by C@4, stamped at
    # 4: the batch is dropped at once.
    pytest.param("PATTERN SEQ(NOT(D h), A a, B b, C c) WITHIN 10 msec",
                 ["C", "A", "B"],
                 mkstream(("D", 1), ("A", 2), ("B", 3), ("C", 4)),
                 id="bare-batch"),
    # The tail checks NOT(E g), so the take into it builds an instance,
    # and the tail drops it under the floor that D@1 set.
    pytest.param("PATTERN SEQ(NOT(D h), A a, NOT(E g), B b) WITHIN 10 msec",
                 ["A", "B"], mkstream(("D", 1), ("A", 2), ("B", 5)),
                 id="completion"),
    # The scan for D sets the floor to 13; the scan for E stops there, and
    # does not lower it to the 11 that E@1 would give.
    pytest.param("PATTERN SEQ(NOT(D h), NOT(E g), A a, B b) WITHIN 10 msec",
                 ["A", "B"],
                 mkstream(("E", 1), ("D", 3), ("A", 5), ("B", 12)),
                 id="second-scan"),
])
def test_first_chance_floor_rules_out_the_match(pattern, order, stream):
    chains = chains_of(pattern)
    rt = make_runtime(compile_pattern(chains, "lazy-fc", orders=[order]))
    assert run_stream(rt, stream) == []
    assert enumerate_matches_chains(chains, stream) == []


def test_a_step_that_raised_leaves_no_match_behind():
    # B@3 completes a match with A@1, then raises on A@2's text: the next
    # step, which no state listens to, returns nothing.
    chains = chains_of("PATTERN SEQ(A a, B b) WHERE skip_till_any_match"
                       " { b.x > a.x } WITHIN 10 msec")
    rt = make_runtime(compile_pattern(chains, "eager"))
    rt.step(Event("A", 1, 0, {"x": 1.0}))
    rt.step(Event("A", 2, 1, {"x": "s"}))
    with pytest.raises(StreamDataError):
        rt.step(Event("B", 3, 2, {"x": 2.0}))
    assert [match_line(m) for m in rt._pending] == ["a=A@1#0; b=B@3#2"]
    assert rt.step(Event("C", 4, 3)) == []
    assert rt.flush() == []
