import random
from collections import Counter

from cep.difftest import random_pattern, random_stream, run_case, run_suite
from cep.lazy import lazy_parts
from cep.patterns import parse_pattern, to_dnf


def test_generated_patterns_parse_and_normalize():
    rng = random.Random(14)
    for _ in range(200):
        chains = to_dnf(parse_pattern(random_pattern(rng)))
        assert chains


def test_every_chain_atom_lands_on_one_take_of_each_lazy_chain():
    rng = random.Random(17)
    for _ in range(300):
        for chain in to_dnf(parse_pattern(random_pattern(rng))):
            order = [t for _, t in chain.positives]
            rng.shuffle(order)
            placed = Counter()
            for tp in lazy_parts(chain, order).edges:
                # An iterate take holds its atoms in its Kleene split only.
                for atom in tp.cond + sum(tp.kleene or (), ()):
                    placed[atom.expr] += 1
            assert placed == Counter(a.expr for a in chain.atoms)


def test_generated_streams_are_ordered():
    rng = random.Random(15)
    events = random_stream(rng, ["A", "B"], 30)
    assert all(a.key < b.key for a, b in zip(events, events[1:]))


def test_case_runs_multiple_modes():
    rng = random.Random(16)
    result = run_case(rng, max_events=15)
    assert result.divergence is None
    assert result.modes_run >= 2  # eager and lazy-pp at minimum


def test_suite_smoke():
    assert run_suite(cases=80, seed=4, max_events=16) is None


def test_shrinker_minimizes_a_planted_divergence(monkeypatch):
    from cep.difftest import _shrink
    from cep.engine import compile_pattern
    from cep.events import Event
    from cep.runtime import Runtime

    # A runtime that drops every match binding the event with seq 5: the
    # smallest stream that still diverges is that B and one A before it.
    drain = Runtime._drain
    monkeypatch.setattr(Runtime, "_drain", lambda self: [
        m for m in drain(self) if all(e.seq != 5 for e in m.binding.values())])
    chains = to_dnf(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 100 msec"))
    (nfa,) = compile_pattern(chains, "eager")
    events = [Event("AB"[i % 2], i, i) for i in range(12)]

    shrunk_events, expected, got = _shrink(chains, nfa, events, cap=40)
    assert expected != got
    assert len(shrunk_events) == 2
    assert [e.etype for e in shrunk_events] == ["A", "B"]
    assert shrunk_events[1].seq == 5


def test_paired_buffer_mismatches_are_divergences(monkeypatch):
    from cep.buffer import InputBuffer

    # With expiry off the shared buffer keeps events that left the window:
    # the paired check must turn that into a divergence.
    monkeypatch.setattr(InputBuffer, "expire", lambda self, ts: 0)
    divergence = run_suite(cases=200, seed=4, max_events=16)
    assert divergence is not None
    assert divergence.got[0].startswith("ShadowMismatch")
    assert len(divergence.events) <= 6


def test_misordered_steps_are_divergences(monkeypatch):
    from cep.runtime import Runtime

    drain = Runtime._drain
    monkeypatch.setattr(Runtime, "_drain", lambda self: drain(self)[::-1])
    divergence = run_suite(cases=200, seed=4, max_events=16)
    assert divergence is not None
    assert divergence.got[0].startswith("matches emitted out of order")
    assert len(divergence.events) <= 6


def test_a_wrong_order_rule_is_a_divergence(monkeypatch):
    from cep import nfa

    # Every automaton skips the drain sort: the steps whose plan does not
    # emit in order must turn into a divergence.
    monkeypatch.setattr(nfa, "_emits_in_order", lambda automaton: True)
    divergence = run_suite(cases=200, seed=4, max_events=16)
    assert divergence is not None
    assert divergence.got[0].startswith("matches emitted out of order")
    assert len(divergence.events) <= 6


def test_a_rule_without_its_role_order_clause_is_a_divergence(monkeypatch):
    import inspect

    from cep import nfa

    # The order rule as written, less the clause that sends a chain whose
    # searches bind roles out of name order to the drain sort.
    source = inspect.getsource(nfa._emits_in_order)
    clause = ("        if role is not None and tp.role <= role:\n"
              "            return False\n")
    assert clause in source
    namespace = dict(vars(nfa))
    exec(source.replace(clause, ""), namespace)
    monkeypatch.setattr(nfa, "_emits_in_order", namespace["_emits_in_order"])
    divergence = run_suite(cases=200, seed=1, max_events=25)
    assert divergence is not None
    assert divergence.got[0].startswith("matches emitted out of order")
    assert len(divergence.events) <= 6


def test_divergence_report_prints_each_chain():
    from cep.difftest import Divergence
    from cep.events import Event
    from cep.runtime import match_key

    text = ("PATTERN SEQ(A a, OR(SEQ(B b, NOT(X x), C c), D d))\n"
            "WHERE skip_till_any_match { a.x < 2 }\nWITHIN 5 msec")
    events = [Event("A", 0, 0, {"x": 1.0}), Event("D", 3, 1, {"x": 0.0})]
    divergence = Divergence(
        pattern=text, chains=to_dnf(parse_pattern(text)), events=events,
        mode="lazy-pp", orders=[["B", "C", "A"], ["D", "A"]],
        expected=[match_key({"a": events[0], "d": events[1]})], got=[])
    assert divergence.describe() == """\
mode: lazy-pp
orders: [['B', 'C', 'A'], ['D', 'A']]
pattern:
PATTERN SEQ(A a, OR(SEQ(B b, NOT(X x), C c), D d))
WHERE skip_till_any_match { a.x < 2 }
WITHIN 5 msec
chains (2):
  PATTERN SEQ(A a, SEQ(B b, NOT(X x), C c))
  WHERE skip_till_any_match { a.x < 2 }
  WITHIN 5 msec
  PATTERN SEQ(A a, D d)
  WHERE skip_till_any_match { a.x < 2 }
  WITHIN 5 msec
events:
  A@0#0 {'x': 1.0}
  D@3#1 {'x': 0.0}
expected (1):
  (('a', (('A', 0, 0),)), ('d', (('D', 3, 1),)))
got (0):"""
