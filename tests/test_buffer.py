import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cep.buffer import InputBuffer, iterate_fetch
from cep.events import Event, StreamDataError
from cep.predicates import AttrRef, Cmp, Literal


def _buf(*events, group=None):
    buf = InputBuffer(group)
    for e in events:
        buf.store(e)
    return buf


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
        buf = _buf(b, group={"B": "x"})
        assert buf.query("B", group=7.0) == [b]
        assert buf.query("B", group=8.0) == []

    def test_out_of_order_store_is_internal_error(self, ev):
        buf = _buf(ev("B", 5, 2))
        with pytest.raises(StreamDataError):
            buf.store(ev("B", 4, 1))


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
        buf = _buf(b1, b2, b3, group={"B": "x"})
        assert buf.query("B", group=7.0) == [b1, b3]

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

    def test_group_buckets_expire_too(self, ev):
        b1 = ev("B", 1, 1, x=7.0)
        b2 = ev("B", 9, 2, x=7.0)
        buf = _buf(b1, b2, group={"B": "x"})
        buf.expire(5)
        assert buf.query("B", group=7.0) == [b2]

    # Runs of (events, ts step, watermark lag): every store is followed by
    # an expire at ts - lag. A zero step or lag puts equal timestamps on the
    # watermark; the explicit example expires enough events of type A to
    # cross the 512-event lane compaction.
    @given(st.lists(st.tuples(st.integers(1, 700), st.integers(0, 2),
                              st.integers(0, 30)), min_size=1, max_size=3))
    @example([(1500, 1, 3), (40, 0, 0), (60, 2, 0)])
    @settings(deadline=None, max_examples=40)
    def test_no_stale_event_survives(self, runs):
        buf = InputBuffer({"A": "g"})
        stored, live = [], []
        ts = 0
        for n, step, lag in runs:
            for _ in range(n):
                seq = len(stored)
                etype = "B" if seq % 3 == 0 else "A"
                e = Event(etype, ts, seq, {"g": seq * 7 % 3})
                buf.store(e)
                stored.append(e)
                live.append(e)
                watermark = ts - lag
                kept = [x for x in live if x.ts >= watermark]
                assert buf.expire(watermark) == len(live) - len(kept)
                live = kept
                for t in "AB":
                    assert buf.query(t) == [x for x in live if x.etype == t]
                for g in range(3):
                    assert buf.query("A", group=g) == [
                        x for x in live if x.etype == "A" and x.attrs["g"] == g]
                ts += step


class TestIterateFetch:
    def test_all_subsets_of_three(self, ev):
        buf = _buf(ev("B", 1, 1), ev("B", 2, 2), ev("B", 3, 3))
        subsets = iterate_fetch(buf, "B", None, None, (1, None))
        assert len(subsets) == 7

    def test_exact_pair_bound(self, ev):
        buf = _buf(ev("B", 1, 1), ev("B", 2, 2), ev("B", 3, 3))
        subsets = iterate_fetch(buf, "B", None, None, (2, 2))
        assert len(subsets) == math.comb(3, 2) == 3

    def test_group_homogeneous_subsets(self, ev):
        b1 = ev("B", 1, 1, x=7.0)
        b2 = ev("B", 2, 2, x=8.0)
        b3 = ev("B", 3, 3, x=7.0)
        buf = _buf(b1, b2, b3, group={"B": "x"})
        subsets = iterate_fetch(buf, "B", None, None, (1, None), group_attr="x")
        assert subsets == [(b1,), (b2,), (b3,), (b1, b3)]
        # Independent count: sum over buckets of (2^size - 1).
        assert len(subsets) == (2**2 - 1) + (2**1 - 1)

    def test_order_by_size_then_members(self, ev):
        b1, b2 = ev("B", 1, 1), ev("B", 2, 2)
        buf = _buf(b1, b2)
        assert iterate_fetch(buf, "B", None, None, (1, None)) == [
            (b1,), (b2,), (b1, b2)]

    def test_new_event_must_be_included(self, ev):
        b1, b2 = ev("B", 1, 1), ev("B", 2, 2)
        buf = _buf(b1, b2)
        subsets = iterate_fetch(buf, "B", None, None, (1, None), new_event=b2)
        assert subsets == [(b2,), (b1, b2)]

    def test_condition_filters_subsets(self, ev):
        b1 = ev("B", 1, 1, x=1.0)
        b2 = ev("B", 2, 2, x=5.0)
        buf = _buf(b1, b2)
        atom = Cmp("<=", AttrRef("b", "x", "i"), Literal(2.0))
        subsets = iterate_fetch(buf, "B", None, None, (1, None),
                                condition=(atom,), role="b")
        assert subsets == [(b1,)]

    def test_generated_counter_reports_pre_filter_count(self, ev):
        buf = _buf(ev("B", 1, 1, x=1.0), ev("B", 2, 2, x=2.0))
        generated = [0]
        iterate_fetch(buf, "B", None, None, (1, None), generated=generated)
        assert generated[0] == 3

    def test_bad_bounds(self, ev):
        buf = _buf(ev("B", 1, 1))
        with pytest.raises(ValueError):
            iterate_fetch(buf, "B", None, None, (0, 2))
        with pytest.raises(ValueError):
            iterate_fetch(buf, "B", None, None, (3, 2))

    @given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 5))
    def test_subset_count_matches_binomials(self, n, lo, hi_extra):
        hi = lo + hi_extra
        buf = InputBuffer()
        for i in range(n):
            buf.store(Event("B", i, i))
        subsets = iterate_fetch(buf, "B", None, None, (lo, hi))
        expected = sum(math.comb(n, k) for k in range(lo, min(hi, n) + 1))
        assert len(subsets) == expected
