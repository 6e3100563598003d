import random
from dataclasses import replace

import pytest

from cep.events import Event
from cep.oracle import (OracleCapExceeded, enumerate_matches,
                        enumerate_matches_chains)
from cep.patterns import parse_pattern, to_dnf
from cep.runtime import match_key

from conftest import mkstream


def chain_of(text):
    (chain,) = to_dnf(parse_pattern(text))
    return chain


def test_sequence_semantics():
    chain = chain_of("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour")
    stream = mkstream(("A", 1), ("A", 2), ("B", 3), ("B", 4), ("C", 5))
    assert len(enumerate_matches(chain, stream)) == 4


def test_iteration_semantics():
    chain = chain_of("PATTERN SEQ(A a, B+ b[], C c) WITHIN 1 hour")
    stream = mkstream(("A", 1), ("B", 2), ("B", 3), ("B", 4), ("C", 5))
    assert len(enumerate_matches(chain, stream)) == 7


@pytest.mark.parametrize("bx,expected", [(1.0, 0), (5.0, 1)])
def test_negation_semantics(bx, expected):
    chain = chain_of(
        "PATTERN SEQ(A a, NOT(B b), C c, D d)\n"
        "WHERE skip_till_any_match { b.x < c.y }\nWITHIN 1 hour")
    stream = mkstream(("A", 1), ("B", 2, {"x": bx}), ("C", 3, {"y": 5.0}),
                      ("D", 4))
    assert len(enumerate_matches(chain, stream)) == expected


def test_cap_enforced():
    chain = chain_of("PATTERN SEQ(A a) WITHIN 1 hour")
    stream = [Event("A", i, i) for i in range(31)]
    with pytest.raises(OracleCapExceeded):
        enumerate_matches(chain, stream)
    assert len(enumerate_matches(chain, stream, cap=40)) == 31


def _random_case(rng):
    from cep.difftest import random_pattern, random_stream

    chains = to_dnf(parse_pattern(random_pattern(rng)))
    types = sorted({t for c in chains for t in c.types.values()})
    return chains, random_stream(rng, types, 12)


def test_window_monotonicity():
    # Holds for negation-free patterns. With negations, a larger window also
    # widens the envelope in which an absent event may invalidate a match,
    # so monotonicity is scoped to the positive fragment.
    rng = random.Random(21)
    for _ in range(80):
        chains, stream = _random_case(rng)
        if any(c.negations for c in chains):
            continue
        small = {match_key(b)
                 for c in chains for b in enumerate_matches(c, stream, cap=20)}
        big = {match_key(b)
               for c in chains
               for b in enumerate_matches(replace(c, window=c.window * 3), stream,
                                          cap=20)}
        assert small <= big


def test_extra_negated_event_never_adds_matches():
    rng = random.Random(22)
    for _ in range(80):
        chains, stream = _random_case(rng)
        # A type that one alternative negates and another binds may add
        # the other's matches: only a type that no alternative binds counts.
        neg_types = ({s.etype for c in chains for s in c.negations}
                     - {t for c in chains for _, t in c.positives})
        if not neg_types:
            continue
        base = {match_key(b)
                for c in chains for b in enumerate_matches(c, stream, cap=25)}
        extra = Event(sorted(neg_types)[0],
                      stream[-1].ts if stream else 0,
                      (stream[-1].seq + 1) if stream else 0,
                      {"x": 1.0, "h": (0.0, 1.0, 2.0)})
        bigger = {match_key(b) for c in chains
                  for b in enumerate_matches(c, stream + [extra], cap=25)}
        assert bigger <= base


def test_extra_positive_event_never_removes_matches():
    rng = random.Random(23)
    for _ in range(80):
        chains, stream = _random_case(rng)
        if any(c.negations for c in chains):
            continue
        pos_types = sorted({t for c in chains for _, t in c.positives})
        base = {match_key(b)
                for c in chains for b in enumerate_matches(c, stream, cap=25)}
        extra = Event(pos_types[0],
                      stream[-1].ts if stream else 0,
                      (stream[-1].seq + 1) if stream else 0,
                      {"x": 1.0, "h": (0.0, 1.0, 2.0)})
        bigger = {match_key(b) for c in chains
                  for b in enumerate_matches(c, stream + [extra], cap=25)}
        assert base <= bigger


def test_union_over_chains_matches_concatenation():
    text = "PATTERN OR(SEQ(A a, B b), SEQ(B b, A a)) WITHIN 1 hour"
    chains = to_dnf(parse_pattern(text))
    stream = mkstream(("A", 1), ("B", 2), ("A", 3))
    per_chain = sorted(
        match_key(b) for c in chains for b in enumerate_matches(c, stream))
    combined = [match_key(b)
                for b in enumerate_matches_chains(chains, stream)]
    assert combined == per_chain
    assert len(combined) == 2  # (a1, b2) from one chain, (b2, a3) from the other
