import pytest

from cep.bench import run_benchmark
from cep.metrics import Metrics
from cep.patterns import parse_pattern, to_dnf
from cep.streams import StreamSpec, generate_stream

PATTERN = """PATTERN SEQ(A a, B b)
WHERE skip_till_any_match { a.price > 0 }
WITHIN 500 msec
"""


@pytest.fixture(scope="module")
def workload():
    chains = to_dnf(parse_pattern(PATTERN))
    rates = {"A": 20.0, "B": 20.0}
    events = generate_stream(StreamSpec(rates=rates, count=2000, seed=77))
    return chains, events, rates


def test_equal_rate_modes_agree(workload):
    chains, events, rates = workload
    eager = run_benchmark(chains, events, "eager")
    lazy = run_benchmark(chains, events, "lazy", rates=rates)
    assert sorted(eager.lines) == sorted(lazy.lines)
    assert eager.lines


def test_repeats_demand_identical_counters(workload):
    chains, events, rates = workload
    result = run_benchmark(chains, events, "lazy", rates=rates, repeats=3,
                           warmup=True)
    assert result.metrics.wall_time > 0
    assert result.report["throughput_eps"] > 0


def test_report_shape():
    m = Metrics(events_processed=100, matches=4, predicate_evaluations=50,
                instance_create=10, instance_retire=8, buffer_insert=60,
                buffer_search=7, buffer_remove=55, peak_live_instances=5,
                wall_time=0.5)
    report = m.report()
    assert report["throughput_eps"] == pytest.approx(200.0)
    assert report["predicate_evaluations"]["per_event"] == pytest.approx(0.5)
    assert report["predicate_evaluations"]["per_match"] == pytest.approx(12.5)
    assert report["memory_ops"]["buffer_insert"]["total"] == 60
    assert report["process_peak_rss_kb"] > 0


def test_per_match_undefined_without_matches():
    m = Metrics(events_processed=10, matches=0, predicate_evaluations=5,
                wall_time=0.1)
    report = m.report()
    assert report["predicate_evaluations"]["per_match"] is None


def test_dedup_only_removes_exact_duplicates(workload):
    chains, events, rates = workload
    plain = run_benchmark(chains, events, "lazy", rates=rates)
    deduped = run_benchmark(chains, events, "lazy", rates=rates, dedup=True)
    # A single chain never emits duplicates, so dedup is a no-op here.
    assert deduped.lines == plain.lines
