"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the performance criteria (4 and 5) generate six-figure synthetic
streams and take a couple of minutes combined.
"""

import json
import time
from itertools import permutations

import pytest

from cep.bench import run_benchmark
from cep.buffer import InputBuffer, iterate_fetch
from cep.difftest import run_suite
from cep.eager import build_eager
from cep.engine import apply_group_by, compile_pattern, make_runtime
from cep.events import Event
from cep.lazy import build_lazy
from cep.oracle import enumerate_matches
from cep.patterns import parse_pattern, to_dnf
from cep.runtime import PairedRuntime, match_key, run_stream
from cep.streams import StreamSpec, generate_stream

from conftest import mkstream


def _report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nCRITERION {num} {name}: PASS{suffix}")


# -- 1. golden examples ------------------------------------------------------

def test_criterion_1_golden_examples():
    start = time.perf_counter()

    chains = to_dnf(parse_pattern("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour"))
    stream = mkstream(("A", 1), ("A", 2), ("B", 3), ("B", 4), ("C", 5))
    a1, a2, b1, b2, c = stream
    expected = sorted(match_key(b) for b in (
        {"a": a1, "b": b1, "c": c},
        {"a": a2, "b": b1, "c": c},
        {"a": a1, "b": b2, "c": c},
        {"a": a2, "b": b2, "c": c},
    ))

    got_oracle = sorted(match_key(b) for b in enumerate_matches(chains[0], stream))
    assert got_oracle == expected

    rt = make_runtime(compile_pattern(chains, "eager"))
    assert sorted(match_key(m.binding) for m in run_stream(rt, stream)) == expected

    for perm in permutations(["A", "B", "C"]):
        rt = make_runtime(compile_pattern(chains, "lazy", orders=[list(perm)]))
        got = sorted(match_key(m.binding) for m in run_stream(rt, stream))
        assert got == expected, f"lazy order {perm}"

    chains5 = to_dnf(parse_pattern("PATTERN SEQ(A a, B+ b[], C c) WITHIN 1 hour"))
    stream5 = mkstream(("A", 1), ("B", 2), ("B", 3), ("B", 4), ("C", 5))
    expected5 = sorted(match_key(b)
                       for b in enumerate_matches(chains5[0], stream5))
    assert len(expected5) == 7
    for mode, orders in [("eager", None), ("lazy", [["C", "A", "B"]])]:
        rt = make_runtime(compile_pattern(chains5, mode, orders=orders))
        got = sorted(match_key(m.binding) for m in run_stream(rt, stream5))
        assert got == expected5, mode

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "golden examples", f"{elapsed:.2f}s")


# -- 2. randomized differential suite ----------------------------------------

def test_criterion_2_differential_suite():
    start = time.perf_counter()
    divergence = run_suite(cases=500, seed=20240, max_events=25)
    elapsed = time.perf_counter() - start
    assert divergence is None, f"divergence:\n{divergence.describe()}"
    assert elapsed < 300
    _report(2, "differential suite", f"500 cases, {elapsed:.1f}s")


# -- 3. structural counts ------------------------------------------------------

def test_criterion_3_structural_counts():
    negation_free = [
        ("PATTERN SEQ(A a) WITHIN 1 hour", 1),
        ("PATTERN SEQ(A a, B b) WITHIN 1 hour", 2),
        ("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour", 3),
        ("PATTERN AND(A a, B b, C c) WITHIN 1 hour", 3),
        ("PATTERN AND(SEQ(A a, B b), SEQ(C c, D d)) WITHIN 1 hour", 4),
        ("PATTERN SEQ(A a, B+ b[], C c) WITHIN 1 hour", 3),
    ]
    for text, n in negation_free:
        (chain,) = to_dnf(parse_pattern(text))
        (nfa,) = compile_pattern([chain], "lazy",
                                 orders=[sorted(t for _, t in chain.positives)])
        assert len(nfa.states) == n + 1, text

    (and3,) = to_dnf(parse_pattern("PATTERN AND(A a, B b, C c) WITHIN 1 hour"))
    eager = build_eager(and3)
    assert len(eager.states) == 2**3  # all subsets
    lazy = build_lazy(and3, ["A", "B", "C"])
    assert len(lazy.states) == 4
    _report(3, "structural counts")


# -- 4 & 5. performance properties --------------------------------------------

CORR_PATTERN = """
PATTERN SEQ(A a, B b, C c)
WHERE skip_till_any_match {
    corr(a.history, b.history) > 0.9
    and corr(b.history, c.history) > 0.9
    and corr(c.history, a.history) > 0.9
}
WITHIN 1800 msec
"""


def _bench(chains, events, mode, rates, repeats=3, warmup=True):
    return run_benchmark(chains, events, mode, rates=rates, repeats=repeats,
                         warmup=warmup)


def test_criterion_4_lazy_outperforms_eager():
    start = time.perf_counter()
    rates = {"A": 100.0, "B": 10.0, "C": 1.0}  # rarest last in the sequence
    spec = StreamSpec(rates=rates, count=100_000, seed=404)
    events = generate_stream(spec)
    chains = to_dnf(parse_pattern(CORR_PATTERN))

    lazy = _bench(chains, events, "lazy", rates)
    eager = _bench(chains, events, "eager", rates)
    assert eager.metrics.matches == lazy.metrics.matches

    tp_lazy = lazy.metrics.events_processed / lazy.metrics.wall_time
    tp_eager = eager.metrics.events_processed / eager.metrics.wall_time
    speedup = tp_lazy / tp_eager
    peak_ratio = (lazy.metrics.peak_live_instances
                  / eager.metrics.peak_live_instances)
    elapsed = time.perf_counter() - start
    assert speedup >= 5.0, f"lazy/eager throughput {speedup:.1f}x"
    assert peak_ratio <= 0.2, f"peak instance ratio {peak_ratio:.3f}"
    assert elapsed < 120
    _report(4, "throughput and footprint",
            f"speedup {speedup:.1f}x, peak ratio {peak_ratio:.3f}, "
            f"{elapsed:.0f}s")


def test_criterion_5_ratio_sweep():
    chains = to_dnf(parse_pattern(CORR_PATTERN))
    advantages = {}
    for label, rates in [
        ("1:100", {"A": 100.0, "B": 10.0, "C": 1.0}),
        ("1:10", {"A": 40.0, "B": 13.0, "C": 4.0}),
        ("1:1", {"A": 37.0, "B": 37.0, "C": 37.0}),
    ]:
        spec = StreamSpec(rates=rates, count=20_000, seed=505)
        events = generate_stream(spec)
        lazy = _bench(chains, events, "lazy", rates)
        eager = _bench(chains, events, "eager", rates)
        advantages[label] = ((lazy.metrics.events_processed
                              / lazy.metrics.wall_time)
                             / (eager.metrics.events_processed
                                / eager.metrics.wall_time))
    # Advantage shrinks (within 10% measurement noise) toward equal rates.
    assert advantages["1:100"] >= advantages["1:10"] * 0.9, advantages
    assert advantages["1:10"] >= advantages["1:1"] * 0.9, advantages
    assert advantages["1:1"] >= 0.5, advantages
    _report(5, "rarest-to-most-frequent sweep",
            ", ".join(f"{k}={v:.2f}x" for k, v in advantages.items()))


# -- 6. first-chance vs post-processing ----------------------------------------

def test_criterion_6_fc_cheaper_than_pp():
    text = """
    PATTERN SEQ(A a, NOT(B b), C c, D d, E e)
    WHERE skip_till_any_match { b.price < c.price }
    WITHIN 1500 msec
    """
    rates = {"A": 4.0, "B": 60.0, "C": 4.0, "D": 4.0, "E": 4.0}
    spec = StreamSpec(rates=rates, count=20_000, seed=606)
    events = generate_stream(spec)
    chains = to_dnf(parse_pattern(text))

    pp = run_benchmark(chains, events, "lazy-pp", rates=rates)
    fc = run_benchmark(chains, events, "lazy-fc", rates=rates)
    assert sorted(fc.lines) == sorted(pp.lines)
    assert fc.metrics.predicate_evaluations <= pp.metrics.predicate_evaluations
    _report(6, "first-chance vs post-processing",
            f"fc {fc.metrics.predicate_evaluations} <= "
            f"pp {pp.metrics.predicate_evaluations} predicate evals, "
            f"{len(fc.lines)} matches each")


# -- 7. group-by-attribute ------------------------------------------------------

def test_criterion_7_group_by():
    # Mixed group sizes: independent count is the sum over groups of
    # (2^size - 1) nonempty subsets.
    buf = InputBuffer()
    sizes = {1.0: 3, 2.0: 2, 3.0: 1}
    seq = 0
    for value, n in sizes.items():
        for _ in range(n):
            buf.store(Event("B", seq, seq, {"x": value}))
            seq += 1
    # Re-store in timestamp order (interleaved groups).
    buf = InputBuffer()
    values = [1.0, 2.0, 3.0, 1.0, 2.0, 1.0]
    for i, v in enumerate(values):
        buf.store(Event("B", i, i, {"x": v}))
    grouped = iterate_fetch(buf.query("B"), (1, None), group_attr="x")
    for subset in grouped:
        assert len({e.attrs["x"] for e in subset}) == 1
    expected = sum(2**n - 1 for n in (3, 2, 1))
    assert len(grouped) == expected

    # k equal-size groups: strictly fewer candidate subsets than ungrouped.
    k = 10
    buf_g = InputBuffer()
    buf_u = InputBuffer()
    for i in range(k):
        buf_g.store(Event("B", i, i, {"x": float(i)}))
        buf_u.store(Event("B", i, i, {"x": float(i)}))
    gen_g, gen_u = [0], [0]
    iterate_fetch(buf_g.query("B"), (1, None), group_attr="x",
                  generated=gen_g)
    iterate_fetch(buf_u.query("B"), (1, None), generated=gen_u)
    assert gen_g[0] == k
    assert gen_u[0] == 2**k - 1
    assert gen_g[0] < gen_u[0]

    # Engine-level: grouped run produces exactly the value-homogeneous
    # subsets and agrees with the oracle.
    text = ("PATTERN SEQ(A a, B+ b[], C c)\n"
            "WHERE skip_till_any_match { b[i].x = b[i-1].x }\nWITHIN 1 hour")
    chains = apply_group_by(to_dnf(parse_pattern(text)), "b", "x")
    stream = mkstream(
        ("A", 1), ("B", 2, {"x": 7.0}), ("B", 3, {"x": 8.0}),
        ("B", 4, {"x": 7.0}), ("C", 5))
    expected_matches = sorted(
        match_key(b) for b in enumerate_matches(chains[0], stream))
    rt = make_runtime(compile_pattern(chains, "lazy", orders=[["C", "A", "B"]]))
    got = sorted(match_key(m.binding) for m in run_stream(rt, stream))
    assert got == expected_matches
    assert len(got) == 4  # {b1},{b2},{b3},{b1,b3}
    _report(7, "group-by-attribute",
            f"{gen_g[0]} grouped vs {gen_u[0]} ungrouped candidate subsets")


# -- 8. shared buffer vs a log of every arrival --------------------------------

def test_criterion_8_shared_buffer_equivalence():
    import random

    rng = random.Random(808)
    letters = ["A", "B", "C", "D"]
    cases = 0
    traversals = 0
    while cases < 100:
        n = rng.randint(2, 4)
        order = list(letters[:n])
        rng.shuffle(order)
        text = ("PATTERN SEQ(" +
                ", ".join(f"{t} {t.lower()}" for t in letters[:n]) +
                f") WITHIN {rng.choice([5, 10, 25])} msec")
        (chain,) = to_dnf(parse_pattern(text))
        rt = PairedRuntime(build_lazy(chain, order))
        events = []
        ts = 0
        for seq in range(rng.randint(5, 25)):
            ts += rng.choice([0, 1, 1, 2, 5])
            events.append(Event(rng.choice(letters[:n]), ts, seq))
        run_stream(rt, events)  # ShadowMismatch would fail the test
        traversals += rt.metrics.buffer_search
        cases += 1
    assert traversals > 200
    _report(8, "shared-buffer equivalence",
            f"{cases} cases, {traversals} compared searches")


# -- 9. determinism ---------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    from cep.cli import main

    pattern = tmp_path / "p.pat"
    pattern.write_text(CORR_PATTERN)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"rates": {"A": 40, "B": 8, "C": 2}, "count": 3000, "seed": 909}))
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({"A": 40, "B": 8, "C": 2}))

    outputs = []
    for run in (1, 2):
        matches = tmp_path / f"m{run}.txt"
        metrics = tmp_path / f"x{run}.json"
        rc = main(["run", "--pattern", str(pattern), "--generate", str(spec),
                   "--mode", "lazy", "--rates", str(rates),
                   "--matches-out", str(matches),
                   "--metrics-out", str(metrics)])
        assert rc == 0
        report = json.loads(metrics.read_text())
        counters = {
            "events": report["events_processed"],
            "matches": report["matches"],
            "peak": report["peak_live_instances"],
            "preds": report["predicate_evaluations"]["total"],
            "mem": {k: v["total"] for k, v in report["memory_ops"].items()},
        }
        outputs.append((matches.read_bytes(), counters))
    assert outputs[0][0] == outputs[1][0], "match files differ"
    assert outputs[0][1] == outputs[1][1], "counters differ"
    _report(9, "determinism", f"{outputs[0][1]['matches']} matches")
