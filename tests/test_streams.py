import io
import json
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


@pytest.mark.parametrize("field, value, message", [
    ("count", 2.7, "count must be an integer, got 2.7"),
    ("count", 2.0, "count must be an integer, got 2.0"),
    ("seed", True, "seed must be an integer, got True"),
    ("history_len", None, "history_len must be an integer, got None"),
    ("price_start", math.nan, "price_start must be a finite number, got nan"),
    ("price_step_std", -math.inf,
     "price_step_std must be a finite number, got -inf"),
    ("price_start", False, "price_start must be a finite number, got False"),
    ("price_start", 10**400, "price_start must be a finite number"),
    ("rates", {"A": True}, "rate for 'A' must be a finite number above 0"),
    ("rates", {"A": 10**400}, "rate for 'A' must be a finite number above 0"),
    ("rates", [1.0], "rates must be a JSON object"),
    ("rates", {}, "rates must name at least one event type"),
], ids=["fractional-count", "float-count", "boolean-seed", "null-history",
        "nan-price", "infinite-step", "boolean-price", "huge-price",
        "boolean-rate", "huge-rate", "list-of-rates", "no-rates"])
def test_spec_fields_are_checked_however_the_spec_is_built(field, value,
                                                           message):
    fields = {"rates": {"A": 1.0}, "count": 10, field: value}
    with pytest.raises(ValueError) as err:
        StreamSpec(**fields)
    assert str(err.value).startswith(message)
    with pytest.raises(ValueError) as again:
        StreamSpec.from_json(json.dumps(fields))
    assert str(again.value) == str(err.value)


@pytest.mark.parametrize("fields, message", [
    ({"rates": {"A": 1e-308}, "count": 3},
     "the arrival time of type 'A' overflowed; its rate 1e-308 is too small"),
    ({"rates": {"A": 1e308}, "count": 3, "price_step_std": 1e308},
     "the price walk of type 'A' left the finite numbers; "
     "price_step_std 1e+308 is too large"),
], ids=["tiny-rate", "huge-price-step"])
def test_a_spec_that_makes_no_finite_stream_is_refused(fields, message):
    # An arrival clock of inf used to end in a traceback, and a price walk
    # in prices of -inf, which read_csv refuses.
    with pytest.raises(ValueError) as err:
        generate_stream(StreamSpec.from_json(json.dumps(fields)))
    assert str(err.value) == message


def test_spec_prices_are_floats():
    spec = StreamSpec(rates={"A": 1}, count=1, price_start=100,
                      price_step_std=2)
    assert (spec.rates, spec.price_start, spec.price_step_std) == (
        {"A": 1.0}, 100.0, 2.0)
    assert all(type(v) is float for v in (spec.rates["A"], spec.price_start,
                                          spec.price_step_std))


@pytest.mark.parametrize("text, message", [
    ('{"rates": {"A": 1}, "count": 3, "histroy_len": 2}', "'histroy_len'"),
    ('{"rates": {"A": 1}}', "'count'"),
    ('[{"rates": {"A": 1}, "count": 3}]', "a stream spec must be a JSON object"),
], ids=["unknown", "missing", "not-an-object"])
def test_spec_json_names_an_unknown_or_missing_field(text, message):
    with pytest.raises(ValueError, match=message):
        StreamSpec.from_json(text)
