import random

from cep import nfa as N
from cep.eager import build_eager
from cep.engine import compile_pattern, make_runtime
from cep.oracle import enumerate_matches
from cep.patterns import parse_pattern, to_dnf
from cep.runtime import match_key, run_stream


def chain_of(text):
    (chain,) = to_dnf(parse_pattern(text))
    return chain


def test_sequence_is_a_chain():
    nfa = build_eager(chain_of("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour"))
    assert len(nfa.states) == 4  # q0, {a}, {a,b} and F
    takes = [e for e in nfa.edges if e.iterate is None]
    assert [e.etype for e in takes] == ["A", "B", "C"]
    # Each state acts only on arrivals of the next type in the sequence.
    assert nfa.type_interest == {"A": (0,), "B": (1,), "C": (2,)}
    N.validate_nfa(nfa)


def test_conjunction_is_a_subset_lattice():
    nfa = build_eager(chain_of("PATTERN AND(A a, B b, C c) WITHIN 1 hour"))
    assert len(nfa.states) == 2**3  # every subset
    N.validate_nfa(nfa)


def test_single_event_pattern():
    nfa = build_eager(chain_of("PATTERN SEQ(A a) WITHIN 1 hour"))
    assert len(nfa.states) == 2
    assert len([e for e in nfa.edges if e.iterate is None]) == 1


def test_partial_sequence_lattice_is_downward_closed():
    nfa = build_eager(chain_of(
        "PATTERN AND(SEQ(A a, B b), C c) WITHIN 1 hour"))
    # Downward-closed subsets of {a,b,c} with a<b: b never appears without a.
    names = set(nfa.states)
    assert "{b}" not in names and "{b,c}" not in names
    assert len(nfa.states) == 6  # the 6 valid subsets


def test_eager_never_uses_ordering_filters():
    for text in ["PATTERN SEQ(A a, B b, C c) WITHIN 1 hour",
                 "PATTERN AND(A a, NOT(B b), C c) WITHIN 1 hour",
                 "PATTERN SEQ(A a, B+ b[], C c) WITHIN 1 hour"]:
        nfa = build_eager(chain_of(text))
        for e in nfa.edges:
            assert e.prec_roles == frozenset() == e.succ_roles


def test_iterated_role_gets_a_take_self_loop():
    nfa = build_eager(chain_of("PATTERN SEQ(A a, B+ b[], C c) WITHIN 1 hour"))
    loops = [e for e in nfa.edges if e.src == e.dst]
    assert len(loops) == 1 and loops[0].etype == "B"


def test_negation_adds_post_processing_tail():
    nfa = build_eager(chain_of(
        "PATTERN SEQ(A a, NOT(B b), C c) WITHIN 1 hour"))
    assert [plan.neg is not None for plan in nfa.plans].count(True) == 1
    assert nfa.storable == frozenset({"B"})
    # C follows B, so the tail emits at once: neither it nor the full
    # roleset that hands it the instance keeps one registered.
    assert nfa.states[-3:] == ("{a,c}", "r_B", "F")
    assert nfa.settling[-3:-1] == (True, True)


def test_matches_oracle_on_random_small_cases():
    rng = random.Random(5)
    from cep.difftest import random_pattern, random_stream

    for _ in range(120):
        chains = to_dnf(parse_pattern(random_pattern(rng)))
        types = sorted({t for c in chains for t in c.types.values()})
        events = random_stream(rng, types, 15)
        expected = sorted(
            match_key(b) for c in chains
            for b in enumerate_matches(c, events, cap=20))
        runtime = make_runtime(compile_pattern(chains, "eager"))
        got = sorted(match_key(m.binding) for m in run_stream(runtime, events))
        assert got == expected
