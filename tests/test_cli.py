import argparse
import json
import subprocess
import sys

import pytest

from cep.cli import _parse_duration, main
from cep.patterns import ParseError, parse_pattern

PATTERN = """PATTERN SEQ(A a, B b, C c)
WHERE skip_till_any_match { a.price > 0 and b.price > 0 }
WITHIN 2 sec
"""

SPEC = {"rates": {"A": 40, "B": 8, "C": 2}, "count": 1500, "seed": 5}


@pytest.fixture
def files(tmp_path):
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(PATTERN)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps(SPEC["rates"]))
    return tmp_path, pattern, spec, rates


def test_gen_then_run_both_modes(files, capsys):
    tmp, pattern, spec, rates = files
    stream = tmp / "stream.csv"
    assert main(["gen", "--spec", str(spec), "--out", str(stream)]) == 0

    m_eager = tmp / "eager.txt"
    m_lazy = tmp / "lazy.txt"
    assert main(["run", "--pattern", str(pattern), "--input", str(stream),
                 "--mode", "eager", "--matches-out", str(m_eager)]) == 0
    assert main(["run", "--pattern", str(pattern), "--input", str(stream),
                 "--mode", "lazy", "--rates", str(rates),
                 "--matches-out", str(m_lazy)]) == 0
    eager_lines = sorted(m_eager.read_text().splitlines())
    lazy_lines = sorted(m_lazy.read_text().splitlines())
    assert eager_lines == lazy_lines and eager_lines


def test_generate_inline_and_metrics(files):
    tmp, pattern, spec, _ = files
    metrics = tmp / "metrics.json"
    csv_out = tmp / "metrics.csv"
    assert main(["run", "--pattern", str(pattern), "--generate", str(spec),
                 "--mode", "lazy", "--metrics-out", str(metrics),
                 "--metrics-csv", str(csv_out)]) == 0
    report = json.loads(metrics.read_text())
    assert report["events_processed"] == SPEC["count"]
    assert report["memory_ops"]["buffer_insert"]["total"] > 0
    rows = csv_out.read_text().splitlines()
    assert any(row.startswith("lazy,throughput_eps,2000,") for row in rows)


def test_measure_rates_flag(files):
    tmp, pattern, spec, _ = files
    assert main(["run", "--pattern", str(pattern), "--generate", str(spec),
                 "--mode", "lazy", "--measure-rates", "500"]) == 0


def test_missing_rates_is_usage_error(files, capsys):
    tmp, pattern, spec, _ = files
    stream = tmp / "s.csv"
    main(["gen", "--spec", str(spec), "--out", str(stream)])
    rc = main(["run", "--pattern", str(pattern), "--input", str(stream),
               "--mode", "lazy"])
    assert rc == 2
    assert "rates" in capsys.readouterr().err


def test_fc_on_trailing_negation_is_build_error(files, capsys):
    tmp, _, spec, rates = files
    bad = tmp / "bad.pat"
    bad.write_text("PATTERN SEQ(A a, NOT(B b)) WITHIN 1 sec\n")
    rc = main(["run", "--pattern", str(bad), "--generate", str(spec),
               "--mode", "lazy-fc", "--rates", str(rates)])
    assert rc == 2
    assert "post-processing" in capsys.readouterr().err


def test_syntax_error_is_exit_2(files, capsys):
    tmp, _, spec, _ = files
    bad = tmp / "bad.pat"
    bad.write_text("PATTERN SEQ(A WITHIN 1 sec\n")
    assert main(["run", "--pattern", str(bad), "--generate", str(spec),
                 "--mode", "eager"]) == 2


def test_malformed_csv_is_exit_3(files, capsys):
    tmp, pattern, _, _ = files
    bad = tmp / "bad.csv"
    bad.write_text("seq,ts,type,stock,region,price,history\nx,y,A,s,A,1,1\n")
    assert main(["run", "--pattern", str(pattern), "--input", str(bad),
                 "--mode", "eager"]) == 3


@pytest.mark.parametrize("flag", ["--matches-out", "--metrics-out",
                                  "--metrics-csv"])
def test_unopenable_output_is_exit_2_before_the_stream_is_read(files, capsys,
                                                               flag):
    tmp, pattern, _, _ = files
    out = tmp / "no-such-dir" / "x.txt"
    # The input does not exist either: reading it first would be exit 3.
    rc = main(["run", "--pattern", str(pattern), "--input",
               str(tmp / "absent.csv"), "--mode", "eager", flag, str(out)])
    stdout, stderr = capsys.readouterr()
    assert rc == 2 and stdout == ""
    assert stderr.startswith("output error:") and str(out) in stderr
    assert len(stderr.splitlines()) == 1


def test_dedup_collapses_duplicate_lines(tmp_path):
    pattern = tmp_path / "dup.pat"
    # Both alternatives share roles {a, d}; with the negated middle types
    # absent, the same pair is reported once per branch.
    pattern.write_text(
        "PATTERN OR(SEQ(A a, NOT(B b), D d), SEQ(A a, NOT(C c), D d))\n"
        "WITHIN 2 sec\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"rates": {"A": 2, "D": 2}, "count": 60,
                                "seed": 3}))
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({"A": 2, "D": 2, "B": 1, "C": 1}))
    plain = tmp_path / "plain.txt"
    deduped = tmp_path / "dedup.txt"
    assert main(["run", "--pattern", str(pattern), "--generate", str(spec),
                 "--mode", "lazy", "--rates", str(rates),
                 "--matches-out", str(plain)]) == 0
    assert main(["run", "--pattern", str(pattern), "--generate", str(spec),
                 "--mode", "lazy", "--rates", str(rates), "--dedup",
                 "--matches-out", str(deduped)]) == 0
    plain_lines = plain.read_text().splitlines()
    dedup_lines = deduped.read_text().splitlines()
    assert plain_lines
    assert len(dedup_lines) == len(set(plain_lines))
    assert len(plain_lines) == 2 * len(dedup_lines)


def test_window_override(files):
    tmp, pattern, spec, rates = files
    out_small = tmp / "small.json"
    assert main(["run", "--pattern", str(pattern), "--generate", str(spec),
                 "--mode", "lazy", "--rates", str(rates),
                 "--window", "1msec", "--metrics-out", str(out_small)]) == 0
    small = json.loads(out_small.read_text())
    out_big = tmp / "big.json"
    assert main(["run", "--pattern", str(pattern), "--generate", str(spec),
                 "--mode", "lazy", "--rates", str(rates),
                 "--window", "4sec", "--metrics-out", str(out_big)]) == 0
    big = json.loads(out_big.read_text())
    assert small["matches"] <= big["matches"]


@pytest.mark.parametrize("text, ms", [
    ("30MIN", 1_800_000), ("2 Hours", 7_200_000), ("1.5Sec", 1500),
    ("5 msecs", 5), ("1hour", 3_600_000),
    # At most one trailing "s", and only after a unit: both readers refuse.
    ("5 secss", None), ("5 ms", None), ("5 s", None)])
def test_window_units_are_the_pattern_units(text, ms):
    if ms is None:
        with pytest.raises(argparse.ArgumentTypeError,
                           match="unknown time unit"):
            _parse_duration(text)
        with pytest.raises(ParseError, match="unknown time unit"):
            parse_pattern(f"PATTERN SEQ(A a) WITHIN {text}")
        return
    assert _parse_duration(text) == ms
    assert parse_pattern(f"PATTERN SEQ(A a) WITHIN {text}").window == ms


def test_window_without_a_unit_is_msec():
    assert _parse_duration("1800000") == 1_800_000


@pytest.mark.parametrize("window", ["0", "0.4", "0.4msec", "0 sec"])
def test_window_under_1_ms_is_exit_2(files, capsys, window):
    _, pattern, spec, rates = files
    with pytest.raises(SystemExit) as exc:
        main(["run", "--pattern", str(pattern), "--generate", str(spec),
              "--mode", "lazy", "--rates", str(rates), "--window", window])
    assert exc.value.code == 2
    assert "window must be positive" in capsys.readouterr().err
    # WITHIN refuses the same window.
    if not window[-1].isdigit():
        with pytest.raises(ParseError, match="window must be positive"):
            parse_pattern(f"PATTERN SEQ(A a) WITHIN {window}")


@pytest.mark.parametrize("field, value", [("history_len", 0),
                                          ("history_len", -1),
                                          ("stocks_per_type", 0),
                                          ("count", -1)])
def test_bad_stream_spec_is_gen_exit_2_and_run_exit_3(files, capsys, field,
                                                      value):
    tmp, pattern, _, rates = files
    least = 0 if field == "count" else 1
    spec = tmp / "bad_spec.json"
    spec.write_text(json.dumps(dict(SPEC, **{field: value})))
    assert main(["gen", "--spec", str(spec), "--out",
                 str(tmp / "s.csv")]) == 2
    assert f"{field} must be at least {least}" in capsys.readouterr().err
    assert main(["run", "--pattern", str(pattern), "--generate", str(spec),
                 "--mode", "lazy", "--rates", str(rates)]) == 3
    assert f"{field} must be at least {least}" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ({"rates": {}, "count": 5}, "rates must name at least one event type"),
    ({"rates": {"A": 1e-308}, "count": 3},
     "the arrival time of type 'A' overflowed"),
    ({"rates": {"A": 1e308}, "count": 3, "price_step_std": 1e308},
     "the price walk of type 'A' left the finite numbers"),
], ids=["no-rates", "tiny-rate", "huge-price-step"])
def test_spec_without_a_finite_stream_is_gen_exit_2_and_run_exit_3(
        files, capsys, spec, message):
    tmp, pattern, _, rates = files
    bad = tmp / "bad_spec.json"
    bad.write_text(json.dumps(spec))
    out = tmp / "s.csv"
    assert main(["gen", "--spec", str(bad), "--out", str(out)]) == 2
    _one_error_line(capsys, f"gen error: {message}")
    assert not out.exists()
    assert main(["run", "--pattern", str(pattern), "--generate", str(bad),
                 "--mode", "lazy", "--rates", str(rates)]) == 3
    _one_error_line(capsys, f"stream error: {message}")


@pytest.mark.parametrize("mode", ["eager", "lazy", "lazy-fc", "multi"])
@pytest.mark.parametrize("where", ["1 > 2", "not (1 > 2)"])
def test_atom_naming_no_event_is_exit_2(files, capsys, mode, where):
    tmp, _, spec, rates = files
    bad = tmp / "bad.pat"
    bad.write_text(f"PATTERN SEQ(A a, B b) WHERE skip_till_any_match "
                   f"{{ {where} }} WITHIN 1 sec\n")
    assert main(["run", "--pattern", str(bad), "--generate", str(spec),
                 "--mode", mode, "--rates", str(rates)]) == 2
    _one_error_line(capsys, f"pattern error: predicate {where} names no event")


@pytest.mark.parametrize("rate", ["-1", "0", "NaN", "Infinity"])
def test_rates_file_refuses_what_a_spec_refuses(files, capsys, rate):
    tmp, pattern, spec, rates = files
    rates.write_text(f'{{"A": {rate}, "B": 8, "C": 2}}')
    assert main(["run", "--pattern", str(pattern), "--generate", str(spec),
                 "--mode", "lazy", "--rates", str(rates)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rates error: rate for 'A' must be a finite number")
    spec.write_text(f'{{"rates": {{"A": {rate}, "B": 8}}, "count": 10}}')
    assert main(["run", "--pattern", str(pattern), "--generate", str(spec),
                 "--mode", "eager"]) == 3
    assert (capsys.readouterr().err.removeprefix("stream error: ")
            == err.removeprefix("rates error: "))


@pytest.mark.parametrize("flag, value", [
    ("--cases", "-3"), ("--cases", "0"), ("--max-events", "-1"),
    ("--repeats", "0"), ("--repeats", "-2"), ("--measure-rates", "1"),
    ("--measure-rates", "-5"), ("--cases", "x")])
def test_counts_out_of_range_are_exit_2(files, capsys, flag, value):
    _, pattern, spec, _ = files
    if flag in ("--cases", "--max-events"):
        argv = ["difftest"]
    else:
        argv = ["run", "--pattern", str(pattern), "--generate", str(spec),
                "--mode", "lazy"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert "expected an integer of at least" in capsys.readouterr().err


def test_difftest_command(capsys):
    assert main(["difftest", "--cases", "60", "--seed", "12",
                 "--max-events", "15"]) == 0
    assert "all modes agree" in capsys.readouterr().out


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "cep.cli", "difftest",
                           "--cases", "5", "--seed", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_module_run_on_non_finite_history_is_exit_3(tmp_path):
    pattern = tmp_path / "corr.pat"
    pattern.write_text("PATTERN SEQ(A a, B b) WHERE skip_till_any_match"
                       " { corr(a.history, b.history) > 0.9 } WITHIN 1 sec\n")
    stream = tmp_path / "hostile.csv"
    stream.write_text("seq,ts,type,stock,region,price,history\n"
                      "0,1,A,s,A,1.0,inf;-inf;1\n"
                      "1,2,B,s,B,1.0,1;2;3\n")
    proc = subprocess.run([sys.executable, "-m", "cep", "run",
                           "--pattern", str(pattern), "--input", str(stream),
                           "--mode", "eager"],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert "stream error" in proc.stderr
    assert "line 2" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("mode", ["eager", "lazy"])
def test_module_run_on_histories_of_different_lengths_is_exit_3(tmp_path,
                                                                  mode):
    pattern = tmp_path / "corr.pat"
    pattern.write_text("PATTERN SEQ(A a, B b) WHERE skip_till_any_match"
                       " { corr(a.history, b.history) > 0.9 } WITHIN 1 sec\n")
    stream = tmp_path / "mismatched.csv"
    stream.write_text("seq,ts,type,stock,region,price,history\n"
                      "0,1,A,s,A,1.0,1;2\n"
                      "1,2,B,s,B,1.0,1;2;3\n")
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({"A": 1, "B": 1}))
    proc = subprocess.run([sys.executable, "-m", "cep", "run",
                           "--pattern", str(pattern), "--input", str(stream),
                           "--mode", mode, "--rates", str(rates)],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert "stream error" in proc.stderr
    assert "length mismatch" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_module_run_ordering_a_history_against_a_number_is_exit_3(tmp_path):
    pattern = tmp_path / "order.pat"
    pattern.write_text("PATTERN SEQ(A a, B b) WHERE skip_till_any_match"
                       " { a.history > 0.9 } WITHIN 1 sec\n")
    stream = tmp_path / "stream.csv"
    stream.write_text("seq,ts,type,stock,region,price,history\n"
                      "0,1,A,s,A,1.0,1;2\n"
                      "1,2,B,s,B,1.0,1;2\n")
    proc = subprocess.run([sys.executable, "-m", "cep", "run",
                           "--pattern", str(pattern), "--input", str(stream),
                           "--mode", "eager"],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert "stream error: type mismatch comparing (1.0, 2.0) > 0.9" in proc.stderr
    assert "Traceback" not in proc.stderr


def _one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


def test_measuring_rates_on_one_event_is_exit_3(files, capsys):
    tmp, pattern, _, _ = files
    stream = tmp / "one.csv"
    stream.write_text("seq,ts,type,stock,region,price,history\n"
                      "0,1,A,s,A,1.0,1\n")
    assert main(["run", "--pattern", str(pattern), "--input", str(stream),
                 "--mode", "lazy", "--measure-rates", "5"]) == 3
    _one_error_line(capsys, "stream error: need at least 2 events")


@pytest.mark.parametrize("content", ["[1, 2]", '{"A": null}'],
                         ids=["list", "null-rate"])
def test_malformed_rates_file_is_exit_2(files, capsys, content):
    tmp, pattern, spec, rates = files
    rates.write_text(content)
    assert main(["run", "--pattern", str(pattern), "--generate", str(spec),
                 "--mode", "lazy", "--rates", str(rates)]) == 2
    _one_error_line(capsys, "rates error: ")


@pytest.mark.parametrize("command", ["run", "gen"])
@pytest.mark.parametrize("field, value, message", [
    ("rates", [40, 8, 2], "rates must be a JSON object"),
    ("count", None, "count must be an integer"),
], ids=["list-of-rates", "null-count"])
def test_malformed_spec_is_a_spec_error(files, capsys, command, field, value,
                                        message):
    tmp, pattern, spec, _ = files
    spec.write_text(json.dumps(dict(SPEC, **{field: value})))
    if command == "run":
        argv = ["run", "--pattern", str(pattern), "--generate", str(spec),
                "--mode", "eager"]
        code, prefix = 3, "stream error: "
    else:
        argv = ["gen", "--spec", str(spec), "--out", str(tmp / "s.csv")]
        code, prefix = 2, "gen error: "
    assert main(argv) == code
    _one_error_line(capsys, prefix + message)


@pytest.mark.parametrize("field, value, named", [
    ("count", "2.7", "count"), ("seed", "true", "seed"),
    ("price_start", "NaN", "price_start"),
    ("price_step_std", "Infinity", "price_step_std"),
    ("histroy_len", "2", "'histroy_len'"),
    ("rates", '{"A": true, "B": 8, "C": 2}', "rate for 'A'"),
], ids=["count", "seed", "price_start", "price_step_std", "histroy_len",
        "rates"])
def test_spec_field_outside_its_rule_is_gen_exit_2_and_run_exit_3(
        files, capsys, field, value, named):
    tmp, pattern, spec, rates = files
    text = json.dumps(SPEC)
    spec.write_text(f'{text[:-1]}, "{field}": {value}}}' if field != "rates"
                    else text.replace(json.dumps(SPEC["rates"]), value))
    assert main(["gen", "--spec", str(spec), "--out",
                 str(tmp / "s.csv")]) == 2
    _one_error_line(capsys, "gen error: ")
    assert not (tmp / "s.csv").exists()
    assert main(["run", "--pattern", str(pattern), "--generate", str(spec),
                 "--mode", "lazy", "--rates", str(rates)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("stream error: ") and err.count("\n") == 1, err
    assert named in err


def test_boolean_rate_file_is_exit_2(files, capsys):
    tmp, pattern, spec, rates = files
    rates.write_text('{"A": true, "B": 8, "C": 2}')
    assert main(["run", "--pattern", str(pattern), "--generate", str(spec),
                 "--mode", "lazy", "--rates", str(rates)]) == 2
    _one_error_line(capsys, "rates error: rate for 'A' must be a finite "
                            "number above 0, got True")


@pytest.mark.parametrize("body, where, window", [
    ("SEQ(A a, B b, C c)", "", "9" * 400 + " msec"),
    ("SEQ(A a, B{1," + "9" * 5000 + "} b[], C c)", "", "1 sec"),
    ("SEQ(A a, B b, C c)", "{ a.price > " + "9" * 400 + " }", "1 sec"),
], ids=["window", "repetition-bound", "literal"])
def test_pattern_number_that_does_not_fit_is_exit_2(files, capsys, body,
                                                     where, window):
    tmp, _, spec, rates = files
    bad = tmp / "bad.pat"
    where = f"WHERE skip_till_any_match {where}" if where else ""
    bad.write_text(f"PATTERN {body}\n{where}\nWITHIN {window}\n")
    assert main(["run", "--pattern", str(bad), "--generate", str(spec),
                 "--mode", "lazy", "--rates", str(rates)]) == 2
    _one_error_line(capsys, "pattern error: ")


def test_window_flag_that_does_not_fit_is_exit_2(files, capsys):
    _, pattern, spec, rates = files
    with pytest.raises(SystemExit) as exc:
        main(["run", "--pattern", str(pattern), "--generate", str(spec),
              "--mode", "lazy", "--rates", str(rates), "--window", "9" * 400])
    assert exc.value.code == 2
    assert "the duration value is too large" in capsys.readouterr().err
