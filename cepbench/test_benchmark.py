"""Checks of the benchmark itself: its correctness gate, its trace wrappers
and its agreement with BENCHMARK.json.

    python3 -m pytest cepbench
"""

import dataclasses
import gc
import json

import pytest

import run
import tracing
from workloads import WORKLOADS

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def small(name):
    """The workload cut to two sessions, so a run takes a fraction of a second."""
    return dataclasses.replace(WORKLOADS[name], sessions=2)


def test_corrupted_reference_fails_every_replay(monkeypatch):
    monkeypatch.setattr(run, "reference", lambda w, seed, events: (1, "0" * 64))
    result = run.measure(small("kleene-group-lazy"), 3, 0.2, trace=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["record"]["failed_frac"] == 1
    assert not result["correct"]


def test_disagreeing_reference_modes_fail_every_replay(monkeypatch):
    digests = iter([(1, "a" * 64), (1, "b" * 64)])
    w = small("corr-skew-lazy")
    monkeypatch.setattr(run, "REFERENCE_MODES", ("lazy", "eager", "multi"))
    monkeypatch.setattr(run, "replay", _fake_digests(run.replay, digests))
    assert run.reference(w, 3, run.build_stream(w, 3)) is None


def _fake_digests(real, digests):
    def replay(w, nfas, events):
        return dataclasses.replace(real(w, nfas, events), digest=next(digests))
    return replay


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_run_prints_every_metric(name):
    result = run.measure(small(name), 3, 0.05, trace=False)
    assert result["correct"], result["record"]
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in BENCHMARK["end_to_end"])
    assert sorted(result["diagnostics"]) == [
        "detect_p50_us", "detect_p99_us", "ingest_eps", "step_p50_us"]
    tracing.assert_untraced()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_shows_the_layer_bypasses(name):
    result = run.measure(small(name), 3, 0.05, trace=True)
    tracing.assert_untraced()
    assert result["correct"], result["record"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(m) == sorted(x["name"] for x in BENCHMARK["per_layer"])
    assert (m["stats.pearson_calls"] > 0) == name.startswith("corr-skew")
    assert (m["buffer.iterate_fetch_calls"] > 0) == (name == "kleene-group-lazy")
    assert m["counters.buffer_insert"] == m["buffer.store_calls"]


def test_collections_fall_in_the_same_sessions_in_every_replay(monkeypatch):
    w = small("kleene-group-lazy")
    nfas, events = run.setup(w, w.mode)[0], run.build_stream(w, 3)
    session, log = [0], []
    real = run.make_runtime

    def make_runtime(nfas):
        session[0] += 1
        return real(nfas)

    def on_collect(phase, info):
        if phase == "start" and session[0]:
            log.append((session[0], info["generation"]))

    monkeypatch.setattr(run, "make_runtime", make_runtime)
    gc.callbacks.append(on_collect)
    try:
        logs = []
        for _ in range(3):
            session[0] = 0
            log.clear()
            run.replay(w, nfas, events)
            logs.append(list(log))
    finally:
        gc.callbacks.remove(on_collect)
    assert logs[0] and logs[0] == logs[1] == logs[2]


def test_eager_mode_bypasses_the_buffer():
    w = dataclasses.replace(small("corr-skew-lazy"), mode="eager")
    result = run.measure(w, 3, 0.05, trace=True)
    assert result["correct"], result["record"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for k in ("store_calls", "query_calls", "iterate_fetch_calls"):
        assert m[f"buffer.{k}"] == 0
    assert m["stats.pearson_calls"] > 0


def test_assert_untraced_sees_installed_wrappers():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    tracing.assert_untraced()
    tracer.install()
    with pytest.raises(RuntimeError):
        tracing.assert_untraced()
    tracer.uninstall()


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer._wrap("inner", lambda: sum(range(20000)))
    outer = tracer._wrap("outer", lambda: inner())
    outer()
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"])


def test_same_seed_gives_the_same_stream():
    w = small("corr-skew-lazy")
    assert run.build_stream(w, 5) == run.build_stream(w, 5)
    assert run.build_stream(w, 5) != run.build_stream(w, 6)


def test_workloads_match_benchmark_json():
    assert sorted(x["name"] for x in BENCHMARK["workloads"]) == sorted(WORKLOADS)
