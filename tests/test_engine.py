from collections import Counter

import pytest

import cep.buffer
import cep.nfa
import cep.runtime
from cep import predicates
from cep.buffer import InputBuffer
from cep.engine import (MODES, apply_group_by, chain_orders, compile_pattern,
                        make_runtime)
from cep.nfa import BuildError
from cep.patterns import parse_pattern, to_dnf
from cep.runtime import match_line, run_stream
from cep.streams import StreamSpec, generate_stream

from conftest import mkstream


def chains_of(text):
    return to_dnf(parse_pattern(text))


def test_unknown_mode_rejected():
    chains = chains_of("PATTERN SEQ(A a) WITHIN 1 hour")
    with pytest.raises(BuildError, match="unknown mode"):
        compile_pattern(chains, "turbo")


def test_lazy_without_rates_or_orders_rejected():
    chains = chains_of("PATTERN SEQ(A a, B b) WITHIN 1 hour")
    with pytest.raises(BuildError, match="rates"):
        compile_pattern(chains, "lazy")


def test_missing_rate_for_type_rejected():
    (chain,) = chains_of("PATTERN SEQ(A a, B b) WITHIN 1 hour")
    with pytest.raises(BuildError, match="no arrival rate"):
        chain_orders(chain, {"A": 1.0})


def test_multi_mode_on_single_chain():
    chains = chains_of("PATTERN SEQ(A a, B b) WITHIN 1 hour")
    (single,) = compile_pattern(chains, "lazy", orders=[["B", "A"]])
    (merged,) = compile_pattern(chains, "multi", orders=[["B", "A"]])
    assert single.states == ("q1", "q2", "F")
    assert merged == single


@pytest.mark.parametrize("mode", MODES)
def test_a_composite_is_compiled_into_one_automaton(monkeypatch, mode):
    compiled = []
    real = cep.nfa._compile_plans

    def counting(nfa):
        compiled.append(nfa)
        return real(nfa)

    monkeypatch.setattr(cep.nfa, "_compile_plans", counting)
    chains = chains_of("PATTERN OR(SEQ(A a, B b, C c), SEQ(C c, D d, E e),"
                       " SEQ(B b, E e)) WITHIN 1 hour")
    orders = [sorted(t for _, t in c.positives) for c in chains]
    (nfa,) = compile_pattern(chains, mode, orders=orders)
    assert len(compiled) == 1 and compiled[0] is nfa
    assert len(nfa.branches) == 3
    assert type(make_runtime([nfa])) is cep.runtime.Runtime


def test_group_by_requires_iterated_role():
    chains = chains_of("PATTERN SEQ(A a, B b) WITHIN 1 hour")
    with pytest.raises(BuildError, match="iterated"):
        apply_group_by(chains, "b", "x")


def test_parse_compile_run_end_to_end():
    chains = to_dnf(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 1 hour"))
    rt = make_runtime(compile_pattern(chains, "lazy",
                                      rates={"A": 2.0, "B": 1.0}))
    matches = run_stream(rt, mkstream(("A", 1), ("B", 2)))
    assert [match_line(m) for m in matches] == ["a=A@1#0; b=B@2#1"]


def test_rate_orders_respected_per_chain():
    chains = chains_of(
        "PATTERN OR(SEQ(A a, B b), SEQ(C c, D d)) WITHIN 1 hour")
    (nfa,) = compile_pattern(chains, "lazy",
                             rates={"A": 9, "B": 1, "C": 1, "D": 9})
    q1_take_types = {tp.etype for tp in nfa.edges if tp.src == 0}
    # Each chain starts from its rarest type.
    assert q1_take_types == {"B", "C"}


def _record_atoms(monkeypatch) -> list:
    """Patch ``Atom`` to record every atom built from now on, in order."""
    built = []
    real = predicates.Atom.__init__

    def recording(self, *args):
        real(self, *args)
        built.append(self)

    monkeypatch.setattr(predicates.Atom, "__init__", recording)
    return built


@pytest.mark.parametrize("mode", MODES)
def test_runtimes_reuse_the_atoms_compiled_with_the_automata(monkeypatch, mode):
    # Every compiled atom is an Atom, whichever module compiled it.
    compiled = _record_atoms(monkeypatch)
    chains = chains_of("PATTERN SEQ(A a, NOT(B b), C c) WHERE skip_till_any_match"
                       " { a.x < c.x and b.x > c.x } WITHIN 1 hour")
    assert compiled
    nfas = compile_pattern(chains, mode, rates={"A": 2.0, "B": 3.0, "C": 1.0})
    compiled.clear()
    stream = mkstream(("A", 1, {"x": 1.0}), ("B", 2, {"x": 0.0}),
                      ("C", 3, {"x": 2.0}), ("A", 4, {"x": 3.0}),
                      ("B", 5, {"x": 9.0}), ("C", 6, {"x": 5.0}))
    runs = [[match_line(m) for m in run_stream(make_runtime(nfas), stream)]
            for _ in range(2)]
    # B@5 (x=9 > 5) rules out both matches ending at C@6.
    assert runs[0] == runs[1] == ["a=A@1#0; c=C@3#2"]
    assert compiled == []


def _held(chain) -> tuple:
    """The atoms ``chain`` holds: its own and its negations' conditions."""
    return chain.atoms + tuple(a for n in chain.negations for a in n.cond)


def _one_of(items, pool) -> bool:
    """Whether each of ``items`` is one of the objects in ``pool``."""
    return all(any(x is y for y in pool) for x in items)


# (pattern, MEMBER atoms over the iterated role, counted once per chain)
SHARED_ATOM_PATTERNS = {
    "or": ("PATTERN OR(SEQ(A a, B b), SEQ(A a, C c)) WHERE skip_till_any_match"
           " { a.x < 5 and a.y > 1 } WITHIN 1 hour", 0),
    "negation": ("PATTERN SEQ(A a, NOT(N n), C c) WHERE skip_till_any_match"
                 " { a.x < c.x and n.x > c.x } WITHIN 1 hour", 0),
    "kleene": ("PATTERN SEQ(A a, B+ b[], C c) WHERE skip_till_any_match"
               " { b[i].x > a.x and b[i].x >= b[i-1].x and avg(b[i].x) < c.x }"
               " WITHIN 1 hour", 1),
    "all": ("PATTERN OR(SEQ(A a, NOT(N n), B+ b[], C c),"
            " SEQ(A a, NOT(N n), B+ b[], D d)) WHERE skip_till_any_match"
            " { b[i].x > a.x and n.x > a.x and avg(b[i].x) < 10 }"
            " WITHIN 1 hour", 2),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", SHARED_ATOM_PATTERNS)
def test_to_dnf_compiles_each_atom_once_for_every_mode(monkeypatch, name,
                                                       mode):
    text, members = SHARED_ATOM_PATTERNS[name]
    built = _record_atoms(monkeypatch)
    ast = parse_pattern(text)
    chains = to_dnf(ast)
    # One Atom per WHERE atom, shared by every chain of the OR.
    assert len(built) == len(predicates.split_conjunction(ast.where))
    for chain in chains:
        assert _one_of(_held(chain), built)
    built.clear()
    (nfa,) = compile_pattern(chains, mode, rates={
        "A": 2.0, "B": 5.0, "C": 1.0, "D": 1.5, "N": 3.0})
    # The builders compile nothing but the one-member form of each MEMBER
    # atom on a lazy iterate take.
    assert len(built) == (0 if mode == "eager" else members)
    assert all(a.kind == predicates.MEMBER for a in built)

    for tp in nfa.edges:
        held = _held(nfa.branches[tp.branch].chain)
        assert _one_of(tp.cond, held)
        if tp.kleene is not None:
            assert _one_of(tp.kleene.pair + tp.kleene.whole, held)
            assert _one_of([a.expr for a in tp.kleene.member],
                           [a.expr for a in held])
    for branch in nfa.branches:
        held = _held(branch.chain)
        checks = list(branch.tail)
        checks += [chk for chks in branch.fc_checks.values() for chk in chks]
        assert all(_one_of(chk.cond, held) for chk in checks)
        if branch.eager_gates is not None:
            assert _one_of(branch.eager_gates[2], held)


@pytest.mark.parametrize("mode", MODES)
def test_runtimes_compile_no_plan(monkeypatch, mode):
    chains = chains_of("PATTERN SEQ(A a, NOT(B b), C c) WHERE skip_till_any_match"
                       " { a.x < c.x and b.x > c.x } WITHIN 1 hour")
    nfas = compile_pattern(chains, mode, rates={"A": 2.0, "B": 3.0, "C": 1.0})

    def refuse(nfa):
        raise AssertionError("a runtime compiled a plan")

    monkeypatch.setattr(cep.nfa, "_compile_plans", refuse)
    stream = mkstream(("A", 1, {"x": 1.0}), ("B", 2, {"x": 0.0}),
                      ("C", 3, {"x": 2.0}), ("A", 4, {"x": 3.0}),
                      ("B", 5, {"x": 9.0}), ("C", 6, {"x": 5.0}))
    runtimes = [make_runtime(nfas) for _ in range(2)]
    runs = [[match_line(m) for m in run_stream(rt, stream)] for rt in runtimes]
    assert runs[0] == runs[1] == ["a=A@1#0; c=C@3#2"]
    for rt in runtimes:
        for r, nfa in zip(getattr(rt, "runtimes", [rt]), nfas, strict=True):
            assert r.plans is nfa.plans
            assert r.type_interest is nfa.type_interest
            assert r.by_state.keys() == nfa.acted_on


CORR_TEXT = ("PATTERN SEQ(A a, B b, C c) WHERE skip_till_any_match"
             " { corr(a.history, b.history) > 0.5"
             " and corr(b.history, c.history) > 0.5 } WITHIN 900 msec")
KLEENE_TEXT = ("PATTERN SEQ(A a, B+ b[], C c) WHERE skip_till_any_match"
               " { b[i].stock = b[i-1].stock and b[i].price > a.price }"
               " WITHIN 400 msec")


@pytest.mark.parametrize("mode", ["lazy", "eager"])
@pytest.mark.parametrize("text,group_by,rates", [
    (CORR_TEXT, None, {"A": 20.0, "B": 5.0, "C": 1.0}),
    (KLEENE_TEXT, ("b", "stock"), {"A": 5.0, "B": 40.0, "C": 2.0}),
], ids=["corr", "grouped-kleene"])
def test_layer_calls_go_through_the_trace_lookup_points(monkeypatch, mode,
                                                        text, group_by, rates):
    # The benchmark's per-layer trace wraps these module globals and
    # methods; a call that bypasses them would be missing from the trace.
    chains = chains_of(text)
    if group_by is not None:
        chains = apply_group_by(chains, *group_by)
    rt = make_runtime(compile_pattern(chains, mode, rates=rates))
    stream = generate_stream(StreamSpec(rates=rates, count=300, seed=5,
                                        stocks_per_type=3))
    calls, sums = Counter(), Counter()

    def wrap(owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            if attr == "eval_atoms":
                counter = args[2] if len(args) > 2 else kwargs["counter"]
                before = counter.predicate_evaluations
                result = fn(*args, **kwargs)
                sums[attr] += counter.predicate_evaluations - before
                return result
            result = fn(*args, **kwargs)
            if attr == "expire":
                sums[attr] += result
            return result

        monkeypatch.setattr(owner, attr, wrapper)

    # Installed after the runtime is built, so that a method or global the
    # runtime kept from its construction would miss the wrappers.
    for owner, attr in ((cep.runtime, "eval_atoms"), (cep.buffer, "eval_atoms"),
                        (cep.runtime, "iterate_fetch"), (predicates, "pearson"),
                        (InputBuffer, "store"), (InputBuffer, "expire"),
                        (InputBuffer, "query")):
        wrap(owner, attr)
    matches = run_stream(rt, stream)
    c = rt.metrics.counters()
    assert matches and c["predicate_evaluations"] > 0
    assert calls["store"] == c["buffer_insert"]
    assert sums["expire"] == c["buffer_remove"]
    assert sums["eval_atoms"] == c["predicate_evaluations"]
    if text is CORR_TEXT:
        # Every atom is a corr comparison: one pearson call per evaluation.
        assert calls["pearson"] == c["predicate_evaluations"]
    else:
        assert calls["pearson"] == 0
    if mode == "lazy":
        assert c["buffer_remove"] > 0
        assert calls["query" if text is CORR_TEXT else "iterate_fetch"] > 0
