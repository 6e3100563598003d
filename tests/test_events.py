import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cep.events import Event, StreamDataError, check_stream_order, within_window


def test_window_boundary_inclusive():
    assert within_window(0, 3_600_000, 3_600_000)


def test_window_one_past_boundary():
    assert not within_window(0, 3_600_001, 3_600_000)


def test_window_zero_interval():
    assert within_window(5, 5, 1)


def test_window_rejects_inverted_interval():
    with pytest.raises(ValueError):
        within_window(10, 9, 100)


@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 200),
       st.integers(0, 200))
def test_window_monotone_in_size(lo, span, w_small, w_big):
    # Shrinking the window never turns false into true.
    if w_small > w_big:
        w_small, w_big = w_big, w_small
    if within_window(lo, lo + span, w_small):
        assert within_window(lo, lo + span, w_big)


def test_missing_attribute_is_a_data_error():
    with pytest.raises(StreamDataError, match="no attribute"):
        Event("A", 1, 1, {"x": 1.0}).attr("y")


def test_key_is_ts_then_seq_and_not_compared_or_shown():
    e = Event("A", 7, 3, {"x": 1.0})
    assert e.key == (7, 3)
    assert "key" not in repr(e)
    other = Event("A", 7, 3, {"x": 1.0})
    object.__setattr__(other, "key", (0, 0))
    assert e == other


def test_replace_builds_a_fresh_key():
    e = Event("A", 7, 3)
    assert dataclasses.replace(e, ts=9).key == (9, 3)
    assert dataclasses.replace(e, seq=4).key == (7, 4)
    assert e.key == (7, 3)


def test_stream_order_validation():
    good = [Event("A", 1, 0), Event("A", 1, 1), Event("B", 2, 2)]
    check_stream_order(good)
    with pytest.raises(StreamDataError):
        check_stream_order([Event("A", 2, 0), Event("A", 1, 1)])
    with pytest.raises(StreamDataError):
        check_stream_order([Event("A", 1, 1), Event("A", 1, 1)])
