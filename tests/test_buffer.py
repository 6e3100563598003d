import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cep import buffer
from cep.buffer import InputBuffer, iterate_fetch
from cep.events import Event
from cep.metrics import Metrics
from cep.patterns import parse_pattern, to_dnf
from cep.predicates import (AttrRef, Cmp, Literal, compile_atom, eval_atoms,
                            split_kleene)


def _buf(*events):
    buf = InputBuffer()
    for e in events:
        buf.store(e)
    return buf


def _grouped(buf, etype="B", bounds=(1, None), attr="x", **kwargs):
    return iterate_fetch(buf.query(etype), bounds, group_attr=attr, **kwargs)


def _atom(where):
    """One compiled WHERE atom over a plain role ``a`` and an iterated role
    ``b``."""
    text = ("PATTERN SEQ(A a, B+ b[]) WHERE skip_till_any_match { "
            + where + " } WITHIN 10 msec")
    (atom,) = to_dnf(parse_pattern(text))[0].atoms
    return atom


class TestStore:
    def test_appends_in_order(self, ev):
        b1, b2 = ev("B", 1, 1), ev("B", 2, 2)
        buf = _buf(b1, b2)
        assert buf.query("B") == [b1, b2]

    def test_store_into_empty(self, ev):
        e = ev("A", 4, 1)
        buf = _buf(e)
        assert buf.query("A") == [e]

    def test_group_bucket(self, ev):
        b = ev("B", 1, 1, x=7.0)
        buf = _buf(b)
        assert _grouped(buf) == [(b,)]
        # The arriving event's group holds b for x=7.0 and nothing for 8.0.
        b7, b8 = ev("B", 2, 2, x=7.0), ev("B", 3, 3, x=8.0)
        buf.store(b7)
        assert _grouped(buf, new_event=b7) == [(b, b7), (b7,)]
        buf.store(b8)
        assert _grouped(buf, new_event=b8) == [(b8,)]


class TestQuery:
    def test_upper_bound_cut(self, ev):
        a1, a5, a9 = ev("A", 1, 1), ev("A", 5, 2), ev("A", 9, 3)
        buf = _buf(a1, a5, a9)
        assert buf.query("A", upper=(7, 10**9)) == [a1, a5]

    def test_exclusive_lower(self, ev):
        a1 = ev("A", 1, 1)
        buf = _buf(a1)
        assert buf.query("A", lower=a1.key) == []

    def test_group_query(self, ev):
        b1 = ev("B", 1, 1, x=7.0)
        b2 = ev("B", 2, 2, x=8.0)
        b3 = ev("B", 3, 3, x=7.0)
        buf = _buf(b1, b2, b3)
        assert _grouped(buf, new_event=b3) == [(b1, b3), (b3,)]
        assert _grouped(buf, bounds=(2, 2)) == [(b1, b3)]

    def test_inverted_bounds_rejected(self, ev):
        buf = _buf(ev("A", 1, 1))
        with pytest.raises(ValueError):
            buf.query("A", lower=(5, 5), upper=(1, 1))


class TestExpire:
    def test_removes_strictly_older(self, ev):
        a1, a5, a9 = ev("A", 1, 1), ev("A", 5, 2), ev("A", 9, 3)
        buf = _buf(a1, a5, a9)
        removed = buf.expire(5)
        assert removed == 1
        assert buf.query("A") == [a5, a9]  # ts == watermark survives

    def test_negative_seq_on_the_watermark_survives(self, ev):
        a0, a5, b5 = ev("A", 0, -20), ev("A", 5, -10), ev("B", 5, -2)
        buf = _buf(a0, a5, b5)
        assert buf.expire(5) == 1
        assert buf.query("A") == [a5]
        assert buf.query("B") == [b5]

    def test_group_buckets_expire_too(self, ev):
        b1 = ev("B", 1, 1, x=7.0)
        b2 = ev("B", 9, 2, x=7.0)
        buf = _buf(b1, b2)
        buf.expire(5)
        assert _grouped(buf) == [(b2,)]
        assert _grouped(buf, new_event=b2) == [(b2,)]

    def test_compaction_moves_fewer_events_than_expire_removes(
            self, monkeypatch):
        # A lane that shrinks in an expire call has compacted: it moved the
        # events it kept. Expiry stays amortised O(1) per event only if the
        # events moved never outnumber the events removed.
        moved = removed = 0
        expire = buffer._TypeLane.expire

        def counting_expire(lane, watermark_ts):
            nonlocal moved, removed
            before = len(lane.events)
            n = expire(lane, watermark_ts)
            removed += n
            if len(lane.events) < before:
                moved += len(lane.events)
            return n

        monkeypatch.setattr(buffer._TypeLane, "expire", counting_expire)
        buf = InputBuffer()
        for ts in range(20_000):
            buf.store(Event("A", ts, ts))
            buf.expire(ts - 1000)
            assert moved <= removed
        assert removed == 20_000 - 1001
        assert moved > 0  # the lane did compact

    # Runs of (events, ts step, watermark lag, expiry interval): every
    # interval-th store is followed by an expire at ts - lag, so that one
    # call may remove a long run of events, as the runtime's deferred
    # expiry does. A zero step or lag puts equal timestamps on the
    # watermark; the explicit examples expire long runs of type A, which
    # the lane compacts away, one at a time and in bulk.
    @given(st.lists(st.tuples(st.integers(1, 700), st.integers(0, 2),
                              st.integers(0, 30), st.integers(1, 300)),
                    min_size=1, max_size=3))
    @example([(1500, 1, 3, 1), (40, 0, 0, 1), (60, 2, 0, 1)])
    @example([(1500, 1, 3, 700), (40, 0, 0, 7)])
    @settings(deadline=None, max_examples=40)
    def test_no_stale_event_survives(self, runs):
        buf = InputBuffer()
        stored, live = [], []
        ts = 0
        for n, step, lag, interval in runs:
            for _ in range(n):
                seq = len(stored)
                etype = "B" if seq % 3 == 0 else "A"
                e = Event(etype, ts, seq, {"g": seq * 7 % 3})
                buf.store(e)
                stored.append(e)
                live.append(e)
                if len(stored) % interval == 0:
                    watermark = ts - lag
                    kept = [x for x in live if x.ts >= watermark]
                    assert buf.expire(watermark) == len(live) - len(kept)
                    live = kept
                for t in "AB":
                    assert buf.query(t) == [x for x in live if x.etype == t]
                if etype == "A":
                    # The arriving event's group: every live A sharing g.
                    assert _grouped(buf, "A", (2, 2), "g", new_event=e) == [
                        (x, e) for x in live if x.etype == "A" and x is not e
                        and x.attrs["g"] == e.attrs["g"]]
                ts += step
            # Every group at once, at the end of each run.
            live_a = [x for x in live if x.etype == "A"]
            assert _grouped(buf, "A", (2, 2), "g") == [
                (x, y) for x, y in combinations(live_a, 2)
                if x.attrs["g"] == y.attrs["g"]]


class TestIterateFetch:
    def test_all_subsets_of_three(self, ev):
        buf = _buf(ev("B", 1, 1), ev("B", 2, 2), ev("B", 3, 3))
        subsets = iterate_fetch(buf.query("B"), (1, None))
        assert len(subsets) == 7

    def test_exact_pair_bound(self, ev):
        buf = _buf(ev("B", 1, 1), ev("B", 2, 2), ev("B", 3, 3))
        subsets = iterate_fetch(buf.query("B"), (2, 2))
        assert len(subsets) == math.comb(3, 2) == 3

    def test_group_homogeneous_subsets(self, ev):
        b1 = ev("B", 1, 1, x=7.0)
        b2 = ev("B", 2, 2, x=8.0)
        b3 = ev("B", 3, 3, x=7.0)
        buf = _buf(b1, b2, b3)
        subsets = iterate_fetch(buf.query("B"), (1, None), group_attr="x")
        assert subsets == [(b1,), (b1, b3), (b2,), (b3,)]
        # Independent count: sum over groups of (2^size - 1).
        assert len(subsets) == (2**2 - 1) + (2**1 - 1)

    def test_order_by_member_keys(self, ev):
        b1, b2 = ev("B", 1, 1), ev("B", 2, 2)
        buf = _buf(b1, b2)
        assert iterate_fetch(buf.query("B"), (1, None)) == [
            (b1,), (b1, b2), (b2,)]

    def test_new_event_must_be_included(self, ev):
        b1, b2 = ev("B", 1, 1), ev("B", 2, 2)
        buf = _buf(b1, b2)
        subsets = iterate_fetch(buf.query("B"), (1, None), new_event=b2)
        assert subsets == [(b1, b2), (b2,)]

    def test_closing_subsets_follow_their_extensions(self, ev):
        b1, b2, e = ev("B", 1, 1), ev("B", 2, 2), ev("B", 3, 3)
        buf = _buf(b1, b2, e)
        assert iterate_fetch(buf.query("B"), (1, None), new_event=e) == [
            (b1, b2, e), (b1, e), (b2, e), (e,)]

    def test_condition_filters_subsets(self, ev):
        b1 = ev("B", 1, 1, x=1.0)
        b2 = ev("B", 2, 2, x=5.0)
        buf = _buf(b1, b2)
        atom = compile_atom(Cmp("<=", AttrRef("b", "x", "i"), Literal(2.0)))
        subsets = iterate_fetch(buf.query("B"), (1, None),
                                condition=split_kleene((atom,), "b"), role="b")
        assert subsets == [(b1,)]

    def test_generated_counter_reports_pre_filter_count(self, ev):
        buf = _buf(ev("B", 1, 1, x=1.0), ev("B", 2, 2, x=2.0))
        generated = [0]
        iterate_fetch(buf.query("B"), (1, None), generated=generated)
        assert generated[0] == 3

    def test_bad_bounds(self, ev):
        buf = _buf(ev("B", 1, 1))
        with pytest.raises(ValueError):
            iterate_fetch(buf.query("B"), (0, 2))
        with pytest.raises(ValueError):
            iterate_fetch(buf.query("B"), (3, 2))

    @given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 5))
    def test_subset_count_matches_binomials(self, n, lo, hi_extra):
        hi = lo + hi_extra
        buf = InputBuffer()
        for i in range(n):
            buf.store(Event("B", i, i))
        subsets = iterate_fetch(buf.query("B"), (lo, hi))
        expected = sum(math.comb(n, k) for k in range(lo, min(hi, n) + 1))
        assert len(subsets) == expected

    def test_aggregate_atom_is_not_pushed_to_members(self, ev):
        # avg over b2 alone is 2, but over (b0, b2) it is 1: b2 must stay a
        # candidate member although it fails the atom on its own.
        b0, b2 = ev("B", 1, 1, x=0.0), ev("B", 2, 2, x=2.0)
        buf = _buf(b0, b2)
        atom = _atom("avg(b[i].x) <= 1")
        condition = split_kleene((atom,), "b")
        assert condition.whole
        assert iterate_fetch(buf.query("B"), (1, None), condition=condition,
                             role="b") == [(b0,), (b0, b2)]

    def test_new_event_failing_a_member_atom_yields_nothing(self, ev):
        b1, b2 = ev("B", 1, 1, x=1.0), ev("B", 2, 2, x=5.0)
        buf = _buf(b1, b2)
        generated = [7]
        assert iterate_fetch(buf.query("B"), (1, None), new_event=b2,
                             condition=split_kleene(
                                 (_atom("b[i].x <= 2"),), "b"), role="b",
                             generated=generated) == []
        assert generated[0] == 0

    def test_member_atoms_run_once_per_candidate(self, ev):
        buf = _buf(*(ev("B", i, i, x=float(i % 2)) for i in range(6)))
        metrics = Metrics()
        subsets = iterate_fetch(buf.query("B"), (1, None),
                                condition=split_kleene(
                                    (_atom("b[i].x <= 0"),), "b"), role="b",
                                counter=metrics)
        assert len(subsets) == 2**3 - 1
        assert metrics.predicate_evaluations == 6


# Member-wise, adjacent-pair and aggregate atoms (the last decide on the
# whole subset); ``b[i].g = b[i-1].g`` is implied by grouping on ``g``.
MIXED_ATOMS = tuple(_atom(w) for w in (
    "b[i].x <= 2", "b[i].x > a.x", "b[i].x != 1",
    "b[i].x >= b[i-1].x", "b[i].g = b[i-1].g", "b[i].x = b[i-1].x",
    "b[i].x + b[i-1].x <= 4",
    "avg(b[i].x) <= 1", "count(b[i].x) <= 2", "sum(b[i].x) >= 2",
))


def _brute_force(pool, bounds, group_attr, new_event, condition, binding):
    """Every combination of the pool, kept by the full condition, in order."""
    lo, hi = bounds
    rest = [x for x in pool if x is not new_event]
    out = []
    for size in range(len(rest) + 1):
        for combo in combinations(rest, size):
            s = combo if new_event is None else combo + (new_event,)
            if not s or len(s) < lo or (hi is not None and len(s) > hi):
                continue
            if group_attr is not None and len({x.attrs[group_attr]
                                               for x in s}) > 1:
                continue
            if eval_atoms(condition, dict(binding, b=s)):
                out.append(s)
    return sorted(out, key=lambda s: [x.key for x in s])


@given(
    members=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                               st.integers(0, 2)), max_size=8),
    lo=st.integers(1, 3), extra=st.one_of(st.none(), st.integers(0, 3)),
    grouped=st.booleans(), closing=st.booleans(), cut=st.integers(0, 8),
    picks=st.lists(st.integers(0, len(MIXED_ATOMS) - 1), max_size=3))
@settings(deadline=None, max_examples=300)
def test_iterate_fetch_equals_brute_force(members, lo, extra, grouped, closing,
                                          cut, picks):
    events, ts = [], 0
    for seq, (x, g, step) in enumerate(members):
        ts += step
        events.append(Event("B", ts, seq, {"x": float(x), "g": g}))
    buf = _buf(*events)
    lower = events[cut - 1].key if 0 < cut <= len(events) else None
    pool = [x for x in events if lower is None or x.key > lower]
    new_event = events[-1] if closing and events else None
    group_attr = "g" if grouped else None
    condition = tuple(MIXED_ATOMS[k] for k in picks)
    binding = {"a": Event("A", -1, -1, {"x": 1.0})}
    bounds = (lo, None if extra is None else lo + extra)
    expected = _brute_force(pool, bounds, group_attr, new_event, condition,
                            binding)
    generated = [0]
    got = iterate_fetch(buf.query("B", lower), bounds, group_attr=group_attr,
                        new_event=new_event,
                        condition=split_kleene(condition, "b", group_attr),
                        bound_roles=binding, role="b", generated=generated)
    assert got == expected
    assert generated[0] >= len(got)
