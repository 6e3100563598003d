import pytest

from cep import predicates
from cep.engine import (MODES, apply_group_by, build_runtime, chain_orders,
                        compile_pattern, make_runtime)
from cep.nfa import BuildError
from cep.patterns import parse_pattern, to_dnf
from cep.runtime import match_line, run_stream

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
    assert merged.label == "multi"
    assert len(merged.states) == len(single.states)


def test_group_by_requires_iterated_role():
    chains = chains_of("PATTERN SEQ(A a, B b) WITHIN 1 hour")
    with pytest.raises(BuildError, match="iterated"):
        apply_group_by(chains, "b", "x")


def test_build_runtime_end_to_end():
    ast = parse_pattern("PATTERN SEQ(A a, B b) WITHIN 1 hour")
    rt = build_runtime(ast, "lazy", rates={"A": 2.0, "B": 1.0})
    matches = run_stream(rt, mkstream(("A", 1), ("B", 2)))
    assert [match_line(m) for m in matches] == ["a=A@1#0; b=B@2#1"]


def test_rate_orders_respected_per_chain():
    chains = chains_of(
        "PATTERN OR(SEQ(A a, B b), SEQ(C c, D d)) WITHIN 1 hour")
    (nfa,) = compile_pattern(chains, "lazy",
                             rates={"A": 9, "B": 1, "C": 1, "D": 9})
    q1_take_types = {next(iter(e.types)) for e in nfa.edges
                     if e.src == nfa.initial and e.role is not None}
    # Each chain starts from its rarest type.
    assert q1_take_types == {"B", "C"}


@pytest.mark.parametrize("mode", MODES)
def test_runtimes_reuse_the_atoms_compiled_with_the_automata(monkeypatch, mode):
    # Every compiled atom is an Atom, whichever module compiled it.
    compiled = []
    real = predicates.Atom.__init__

    def counting(self, expr, test):
        compiled.append(expr)
        real(self, expr, test)

    monkeypatch.setattr(predicates.Atom, "__init__", counting)
    chains = chains_of("PATTERN SEQ(A a, NOT(B b), C c) WHERE skip_till_any_match"
                       " { a.x < c.x and b.x > c.x } WITHIN 1 hour")
    nfas = compile_pattern(chains, mode, rates={"A": 2.0, "B": 3.0, "C": 1.0})
    assert compiled
    compiled.clear()
    stream = mkstream(("A", 1, {"x": 1.0}), ("B", 2, {"x": 0.0}),
                      ("C", 3, {"x": 2.0}), ("A", 4, {"x": 3.0}),
                      ("B", 5, {"x": 9.0}), ("C", 6, {"x": 5.0}))
    runs = [[match_line(m) for m in run_stream(make_runtime(nfas), stream)]
            for _ in range(2)]
    # B@5 (x=9 > 5) rules out both matches ending at C@6.
    assert runs[0] == runs[1] == ["a=A@1#0; c=C@3#2"]
    assert compiled == []
