import io
import math

import pytest

from cep.events import StreamDataError, check_stream_order
from cep.streams import (StreamSpec, generate_stream, measure_rates, read_csv,
                         write_csv)


def test_realized_ratio_tracks_rates():
    spec = StreamSpec(rates={"A": 100.0, "C": 1.0}, count=100_000, seed=3)
    events = generate_stream(spec)
    counts = {"A": 0, "C": 0}
    for e in events:
        counts[e.etype] += 1
    ratio = counts["A"] / counts["C"]
    assert 90 <= ratio <= 110


def test_single_type_stream():
    spec = StreamSpec(rates={"A": 10.0}, count=500, seed=1)
    events = generate_stream(spec)
    assert all(e.etype == "A" for e in events)
    check_stream_order(events)


def test_deterministic_per_seed():
    spec = StreamSpec(rates={"A": 5.0, "B": 1.0}, count=2000, seed=99)
    out1, out2 = io.StringIO(), io.StringIO()
    write_csv(generate_stream(spec), out1)
    write_csv(generate_stream(spec), out2)
    assert out1.getvalue() == out2.getvalue()


def test_different_seed_differs():
    a = generate_stream(StreamSpec(rates={"A": 5.0}, count=50, seed=1))
    b = generate_stream(StreamSpec(rates={"A": 5.0}, count=50, seed=2))
    assert [e.ts for e in a] != [e.ts for e in b]


def test_csv_round_trip():
    spec = StreamSpec(rates={"A": 5.0, "B": 2.0}, count=200, seed=7)
    events = generate_stream(spec)
    buf = io.StringIO()
    write_csv(events, buf)
    buf.seek(0)
    again = read_csv(buf)
    assert again == events


def test_csv_rejects_bad_header():
    with pytest.raises(StreamDataError, match="header"):
        read_csv(io.StringIO("nope\n1,2,3\n"))


def test_csv_rejects_bad_row():
    bad = "seq,ts,type,stock,region,price,history\n0,notanint,A,s,A,1.0,1.0\n"
    with pytest.raises(StreamDataError):
        read_csv(io.StringIO(bad))


def test_events_carry_benchmark_schema():
    spec = StreamSpec(rates={"Eu": 10.0}, count=10, seed=0, history_len=4)
    (e, *_) = generate_stream(spec)
    assert e.attrs["region"] == "Eu"
    assert isinstance(e.attrs["price"], float)
    assert len(e.attrs["history"]) == 4
    assert e.attrs["history"][-1] == e.attrs["price"]


def test_measure_rates():
    spec = StreamSpec(rates={"A": 50.0, "B": 5.0}, count=5000, seed=11)
    events = generate_stream(spec)
    rates = measure_rates(events, 5000)
    assert rates["A"] / rates["B"] == pytest.approx(10.0, rel=0.25)


def test_rate_must_be_positive():
    for rate in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be a finite number above 0"):
            generate_stream(StreamSpec(rates={"A": rate}, count=10))


@pytest.mark.parametrize("field, value", [("history_len", 0),
                                          ("history_len", -1),
                                          ("stocks_per_type", 0),
                                          ("count", -1)])
def test_spec_needs_a_history_and_a_stock(field, value):
    least = 0 if field == "count" else 1  # an empty stream is a stream
    with pytest.raises(ValueError, match=f"{field} must be at least {least}"):
        StreamSpec(**{"rates": {"A": 1.0}, "count": 10, field: value})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["price", "history"])
def test_csv_rejects_non_finite_numbers(field, value):
    price, history = ("1.0", "1.0;2.0;3.0")
    if field == "price":
        price = value
    else:
        history = f"1.0;{value};3.0"
    bad = ("seq,ts,type,stock,region,price,history\n"
           "0,1,A,s,A,1.0,1.0;2.0\n"
           f"1,2,A,s,A,{price},{history}\n")
    with pytest.raises(StreamDataError, match=f"line 3: {field}"):
        read_csv(io.StringIO(bad))
