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
    ("5 msecs", 5), ("1hour", 3_600_000)])
def test_window_units_are_the_pattern_units(text, ms):
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
