from itertools import permutations

import pytest

from cep import nfa as N
from cep.events import Event
from cep.lazy import (ascending_freq_order, build_lazy, lazy_parts,
                      ordering_filters)
from cep.nfa import build_multi_chain
from cep.patterns import parse_pattern, to_dnf
from cep.runtime import Runtime


def chain_of(text):
    (chain,) = to_dnf(parse_pattern(text))
    return chain


def chains_of(text):
    return to_dnf(parse_pattern(text))


def take_edges(nfa):
    return list(nfa.edges)


NONE = (frozenset(), frozenset())


class TestSequenceFilters:
    SEQ = chain_of("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour")

    def test_most_common_type(self):
        # Sequence a,b,c bound in order c,b,a: when a is taken both b and c
        # are bound; b is the earliest bound successor.
        assert ordering_filters(self.SEQ, "a", {"c", "b"}) == (
            frozenset(), frozenset({"b"}))

    def test_middle_type(self):
        assert ordering_filters(self.SEQ, "b", {"c"}) == (
            frozenset(), frozenset({"c"}))
        assert ordering_filters(self.SEQ, "b", {"a", "c"}) == (
            frozenset({"a"}), frozenset({"c"}))

    def test_rarest_type_has_no_filters(self):
        for seq in permutations(["A a", "B b", "C c"]):
            chain = chain_of(f"PATTERN SEQ({', '.join(seq)}) WITHIN 1 hour")
            assert ordering_filters(chain, "c", set()) == NONE


class TestPartialFilters:
    # a before b and c before d; e is unordered.
    CHAIN = chain_of(
        "PATTERN AND(SEQ(A a, B b), SEQ(C c, D d), E e) WITHIN 1 hour")

    def test_constrained_type(self):
        assert ordering_filters(self.CHAIN, "d", {"e", "a", "c", "b"}) == (
            frozenset({"c"}), frozenset())

    def test_unconstrained_type(self):
        assert ordering_filters(self.CHAIN, "e", {"a", "b", "c", "d"}) == NONE

    def test_pure_conjunction_has_no_filters(self):
        chain = chain_of("PATTERN AND(A a, B b, C c) WITHIN 1 hour")
        for role in "abc":
            assert ordering_filters(chain, role, set("abc") - {role}) == NONE

    def test_only_the_nearest_bound_roles_are_kept(self):
        # a must precede b and c, and b precedes c: b alone bounds a from
        # above. Likewise a before b before c bound c from below by b.
        chain = chain_of("PATTERN AND(SEQ(A a, B b, C c), D d) WITHIN 1 hour")
        assert ordering_filters(chain, "a", {"b", "c", "d"}) == (
            frozenset(), frozenset({"b"}))
        assert ordering_filters(chain, "c", {"a", "b", "d"}) == (
            frozenset({"b"}), frozenset())
        # Unordered neighbours are both kept.
        chain = chain_of(
            "PATTERN SEQ(AND(A a, B b), C c, AND(D d, E e)) WITHIN 1 hour")
        assert ordering_filters(chain, "c", {"a", "b", "d", "e"}) == (
            frozenset({"a", "b"}), frozenset({"d", "e"}))


class TestBuildLazyChain:
    def test_pattern_1_shape(self):
        chain = chain_of("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour")
        nfa = build_lazy(chain, ["C", "B", "A"])
        assert len(nfa.states) == 4  # q1 q2 q3 F
        takes = take_edges(nfa)
        assert [e.etype for e in takes] == ["C", "B", "A"]
        assert takes[0].prec_roles == frozenset() == takes[0].succ_roles
        assert takes[1].succ_roles == frozenset({"c"})
        assert takes[2].succ_roles == frozenset({"b"})
        N.validate_nfa(nfa)

    def test_single_state_chain(self):
        chain = chain_of("PATTERN SEQ(A a) WITHIN 1 hour")
        nfa = build_lazy(chain, ["A"])
        assert len(nfa.states) == 2
        assert len(take_edges(nfa)) == 1

    def test_conjunction_order_from_rates(self):
        chain = chain_of("PATTERN AND(A a, B b) WITHIN 1 hour")
        order = ascending_freq_order({"A": 10, "B": 1})
        assert order == ["B", "A"]
        nfa = build_lazy(chain, order)
        takes = take_edges(nfa)
        assert [e.etype for e in takes] == ["B", "A"]
        assert all(e.prec_roles == frozenset() == e.succ_roles for e in takes)

    def test_chain_has_n_plus_1_states(self):
        texts = [
            "PATTERN SEQ(A a) WITHIN 1 hour",
            "PATTERN SEQ(A a, B b) WITHIN 1 hour",
            "PATTERN AND(A a, B b, C c) WITHIN 1 hour",
            "PATTERN AND(SEQ(A a, B b), C c, D d) WITHIN 1 hour",
        ]
        for text in texts:
            chain = chain_of(text)
            order = sorted(t for _, t in chain.positives)
            nfa = build_lazy(chain, order)
            assert len(nfa.states) == len(chain.positives) + 1, text

    def test_rejects_bad_frequency_order(self):
        chain = chain_of("PATTERN SEQ(A a, B b) WITHIN 1 hour")
        with pytest.raises(N.BuildError):
            build_lazy(chain, ["A", "C"])

    def test_store_types_and_type_interest(self):
        chain = chain_of("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour")
        nfa = build_lazy(chain, ["C", "B", "A"])
        # q2 searches for B and q3 for A; the seed at q1 is never entered.
        assert [[tp.etype for tp in p.entry_takes] for p in nfa.plans] == [
            [], ["B"], ["A"], []]
        # An arrival of a type already bound acts on no later state.
        for sid, bound in {1: {"C"}, 2: {"C", "B"}}.items():
            for t in bound:
                assert sid not in nfa.type_interest.get(t, ()), (sid, t)
        # B and A must precede the bound C: only buffer searches take them.
        assert nfa.type_interest == {"C": (0,)}
        assert nfa.storable == frozenset({"A", "B"})

    def test_seed_never_times_out(self):
        # Arrival order: q2 and q3 wait on the stream, so their instances
        # hold a window deadline; the seed at q1 never expires.
        chain = chain_of("PATTERN SEQ(A a, B b, C c) WITHIN 10 msec")
        nfa = build_lazy(chain, ["A", "B", "C"])
        assert nfa.acted_on == {0, 1, 2}
        rt = Runtime(nfa)
        rt.step(Event("A", 1, 0))
        rt.step(Event("B", 2, 1))
        on_heap = [rt.by_state[sid][iid] for _, iid, sid in rt.heap]
        assert rt.seed not in on_heap
        assert sorted(inst.sid for inst in on_heap) == [1, 2]
        assert rt.flush() == []
        assert [list(insts) for insts in rt.by_state.values()
                if insts] == [[rt.seed.iid]]
        # Frequency order: B and A are only searched for, never awaited, so
        # no q2 or q3 instance is left waiting for its window to close.
        nfa = build_lazy(chain, ["C", "B", "A"])
        assert nfa.acted_on == {0}


class TestPpNegation:
    def test_pattern_4_shape(self):
        chain = chain_of(
            "PATTERN SEQ(A a, NOT(B b), C c, D d)\n"
            "WHERE skip_till_any_match { b.x < c.y }\nWITHIN 1 hour")
        nfa = build_lazy(chain, ["C", "A", "D"])
        assert len(nfa.states) == 5  # q1 q2 q3 r_B F
        assert nfa.states[3] == "r_B"
        # The last positive take enters the tail; after r_B comes F.
        assert [tp.dst for tp in nfa.plans[2].stream_takes["D"]] == [3]
        neg = nfa.plans[3].neg
        (spec,) = nfa.work[3].tail
        assert [sid for sid, w in nfa.work.items() if w.tail] == [3]
        assert (spec.role, spec.etype) == ("b", "B") and spec.cond
        assert neg.checks == (spec,)
        # B precedes a positive (C), so its candidates are buffer-only: the
        # check does not wait for arrivals, and passing it completes.
        assert neg.wait is None and neg.kill_map == {}
        assert all(3 not in sids for sids in nfa.type_interest.values())
        # The tail's check searches B, so the buffer stores it.
        assert nfa.storable == frozenset({"A", "B", "D"})

    def test_conjunction_negation_waits_for_timeout(self):
        chain = chain_of("PATTERN AND(A a, NOT(B b), C c) WITHIN 1 hour")
        nfa = build_lazy(chain, ["A", "C"])
        neg_sid = next(sid for sid, plan in enumerate(nfa.plans)
                       if plan.neg is not None)
        neg = nfa.plans[neg_sid].neg
        (spec,) = neg.checks  # then F
        assert neg.wait == neg_sid
        assert neg.kill_map == {"B": (spec,)}
        assert neg_sid in nfa.type_interest["B"]
        assert neg_sid in nfa.acted_on

    def test_no_negations_same_as_plain_chain(self):
        chain = chain_of("PATTERN SEQ(A a, B b) WITHIN 1 hour")
        plain = build_lazy(chain, ["B", "A"])
        for negation in ("pp", "fc"):
            other = build_lazy(chain, ["B", "A"], negation=negation)
            assert other.states == plain.states
            assert other.edges == plain.edges
            assert other.plans == plain.plans
            assert other.type_interest == plain.type_interest
            assert other.acted_on == plain.acted_on

    def test_descending_negative_order(self):
        chain = chain_of(
            "PATTERN AND(A a, NOT(B b), NOT(C c)) WITHIN 1 hour")
        nfa = build_lazy(chain, ["A"], neg_freq=["C", "B"])
        # One tail state checks both negated types, in the order given.
        assert nfa.states == ("q1", "r_C_B", "F")
        neg = nfa.plans[1].neg
        assert [spec.etype for spec in neg.checks] == ["C", "B"]
        assert neg.wait == 1 and set(neg.kill_map) == {"B", "C"}
        assert nfa.type_interest["B"] == nfa.type_interest["C"] == (1,)


class TestFcNegation:
    def test_pattern_4_dep_state(self):
        chain = chain_of(
            "PATTERN SEQ(A a, NOT(B b), C c, D d)\n"
            "WHERE skip_till_any_match { b.x < c.y }\nWITHIN 1 hour")
        nfa = build_lazy(chain, ["C", "A", "D"], negation="fc")
        assert len(nfa.states) == 4  # positive chain + F only
        # DEP(B) = {A (preceding), C (succeeding, shared condition)}; both
        # are bound entering the third chain state under order C,A,D.
        (check,) = nfa.plans[2].fc_checks
        assert check.etype == "B" and check.cond
        assert (check.prec_roles, check.succ_roles) == ({"a"}, {"c"})
        assert [sid for sid, p in enumerate(nfa.plans) if p.fc_checks] == [2]
        assert all(p.neg is None for p in nfa.plans)  # no check needs a tail

    def test_dep_on_last_positive_checks_at_accept(self):
        chain = chain_of(
            "PATTERN SEQ(A a, NOT(B b), C c, D d)\n"
            "WHERE skip_till_any_match { b.x < d.y }\nWITHIN 1 hour")
        nfa = build_lazy(chain, ["C", "A", "D"], negation="fc")
        # The condition links B to D, the last type in the order, so the
        # check can only run once D is bound: in the tail before F, which
        # emits at once, so no arrival acts on its instances.
        assert nfa.states == ("q1", "q2", "q3", "r_B", "F")
        (check,) = nfa.plans[3].neg.checks
        assert check.etype == "B"
        assert nfa.plans[3].neg.wait is None and 3 not in nfa.acted_on

    def test_negated_at_end_rejected(self):
        chain = chain_of("PATTERN SEQ(A a, NOT(B b)) WITHIN 1 hour")
        with pytest.raises(N.BuildError, match="post-processing"):
            build_lazy(chain, ["A"], negation="fc")


class TestIteration:
    def test_pattern_5_shape(self):
        chain = chain_of("PATTERN SEQ(A a, B+ b[], C c) WITHIN 1 hour")
        nfa = build_lazy(chain, ["C", "A", "B"])
        takes = take_edges(nfa)
        assert [e.etype for e in takes] == ["C", "A", "B"]
        assert [e.iterate is not None for e in takes] == [False, False, True]
        assert takes[-1].iterate[:2] == (1, None)

    def test_iterated_type_forced_to_end(self):
        chain = chain_of("PATTERN SEQ(A a, B+ b[], C c) WITHIN 1 hour")
        nfa = build_lazy(chain, ["B", "C", "A"])  # B rarest by rate
        takes = take_edges(nfa)
        assert [e.etype for e in takes] == ["C", "A", "B"]

    def test_aggregate_condition_rides_the_iterate_edge(self):
        chain = chain_of(
            "PATTERN SEQ(A a, B+ b[], C c)\n"
            "WHERE skip_till_any_match { avg(b[i].x) < c.y }\nWITHIN 1 hour")
        nfa = build_lazy(chain, ["C", "A", "B"])
        assert take_edges(nfa)[-1].kleene.whole

    def test_repeat_bounds_carried(self):
        chain = chain_of("PATTERN SEQ(A a, B{2,2} b[], C c) WITHIN 1 hour")
        nfa = build_lazy(chain, ["C", "A", "B"])
        assert take_edges(nfa)[-1].iterate[:2] == (2, 2)


class TestMultiChain:
    RATES = {"A": 5, "B": 4, "C": 1, "D": 2, "E": 3}

    def test_pattern_8_merge(self):
        chains = chains_of(
            "PATTERN OR(SEQ(A a, B b, C c), SEQ(C c, D d, E e)) WITHIN 1 hour")
        parts = [lazy_parts(c, ascending_freq_order(
            {t: self.RATES[t] for _, t in c.positives})) for c in chains]
        merged = build_multi_chain(parts)
        assert len(merged.states) == 6  # q1, 2+2 internal, F
        q1_takes = [e for e in merged.edges
                    if e.src == 0 and e.iterate is None]
        assert {e.etype for e in q1_takes} == {"C"}
        assert len(q1_takes) == 2  # one instance per sub-chain on arrival
        N.validate_nfa(merged)

    def test_single_chain_unchanged_structurally(self):
        chain = chain_of("PATTERN SEQ(A a, B b) WITHIN 1 hour")
        part = lazy_parts(chain, ["B", "A"])
        sub = part.nfa()
        merged = build_multi_chain([part])
        assert merged == sub
        assert merged.plans == sub.plans
        assert merged.type_interest == sub.type_interest
        assert merged.acted_on == sub.acted_on
        assert merged.storable == sub.storable

    def test_two_short_chains(self):
        chains = chains_of(
            "PATTERN OR(SEQ(A a, B b), SEQ(C c, D d)) WITHIN 1 hour")
        parts = [lazy_parts(c, sorted(t for _, t in c.positives))
                 for c in chains]
        assert len(build_multi_chain(parts).states) == 4  # 1 + 1 + 1 + F

    def test_empty_merge_rejected(self):
        with pytest.raises(N.BuildError):
            build_multi_chain([])


class TestFreqOrder:
    def test_rates(self):
        assert ascending_freq_order({"A": 100, "B": 10, "C": 0.1}) == \
            ["C", "B", "A"]

    def test_lexicographic_ties(self):
        assert ascending_freq_order({"B": 1, "A": 1}) == ["A", "B"]

    def test_region_style_rates(self):
        assert ascending_freq_order({"Afr": 8, "Eu": 267}) == ["Afr", "Eu"]


def test_filter_soundness_across_permutations():
    texts = [
        "PATTERN SEQ(A a, B b, C c, D d) WITHIN 1 hour",
        "PATTERN AND(SEQ(A a, B b), SEQ(C c, D d)) WITHIN 1 hour",
        "PATTERN AND(A a, B b, C c) WITHIN 1 hour",
    ]
    for text in texts:
        chain = chain_of(text)
        types = [t for _, t in chain.positives]
        for perm in permutations(types):
            nfa = build_lazy(chain, list(perm))
            bound: set = set()
            for e in take_edges(nfa):
                assert (set(e.prec_roles) | set(e.succ_roles)) <= bound
                bound.add(e.role)
