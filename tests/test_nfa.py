import random
from dataclasses import replace

import pytest

import cep
from cep import nfa as N
from cep.difftest import random_pattern
from cep.eager import build_eager, eager_parts
from cep.lazy import build_lazy, lazy_parts
from cep.patterns import parse_pattern, to_dnf

from conftest import state_branches


def chain_of(text):
    (chain,) = to_dnf(parse_pattern(text))
    return chain


def _last_take_dropped(nfa):
    # q2 loses its only take, and q1's only take leads to q2.
    edges = tuple(e for e in nfa.edges if e.src != 1)
    return replace(nfa, edges=edges)


def _tail_cut_short(nfa):
    # The tail loses its checks: its state then neither emits nor waits.
    return replace(nfa, work={sid: replace(w, tail=())
                              for sid, w in nfa.work.items()})


def _no_handoff(nfa):
    # The eager lattice's full roleset, which gates the iterated role's
    # atom, no longer hands off to the tail.
    return replace(nfa, work={sid: replace(w, complete=None)
                              for sid, w in nfa.work.items()})


@pytest.mark.parametrize("build,breakage,stuck", [
    (lambda: build_lazy(chain_of("PATTERN SEQ(A a, B b) WITHIN 1 hour"),
                        ["A", "B"]), _last_take_dropped, "q1, q2"),
    (lambda: build_lazy(chain_of(
        "PATTERN AND(A a, NOT(B b), NOT(C c)) WITHIN 1 hour"), ["A"]),
     _tail_cut_short, "from q1, r_B_C"),
    (lambda: build_eager(chain_of(
        "PATTERN SEQ(A a, NOT(D d), B+ b[], C c) WHERE skip_till_any_match"
        " { b[i].x > a.x } WITHIN 1 hour")),
     _no_handoff, "q0, {a}, {a,b}, {a,b,c}"),
], ids=["chain-state", "negative-tail", "eager-completion"])
def test_a_state_without_a_path_to_accept_is_a_build_error(build, breakage,
                                                           stuck):
    nfa = build()
    N.validate_nfa(nfa)
    with pytest.raises(N.BuildError) as err:
        breakage(nfa)
    assert str(err.value).endswith(stuck)


def _plan_runs_the_laid_out_takes(nfa):
    # Each state's plan executes the takes its builder laid out from it, as
    # they are but for ``emits``: none is dead and none is invented.
    planned = {(sid, replace(tp, emits=False))
               for sid, plan in enumerate(nfa.plans)
               for tps in (plan.entry_takes, *plan.stream_takes.values())
               for tp in tps}
    laid_out = {(tp.src, tp) for tp in nfa.edges}
    assert planned == laid_out, nfa.states


def _one_state_per_negative_tail(nfa):
    # F is the last state, a sink whose plan is empty: no instance enters
    # it. Each negation is either a first-chance check at an earlier state
    # or one of its branch's tail checks, and the tail is one state, whose
    # plan holds every tail check in tail order and no take, and whose
    # arrivals run exactly the checks with no successor roles, by type in
    # check order. An eager completion hands off to a tail state.
    assert nfa.states[-1] == "F"
    assert nfa.plans[-1] == N.StatePlan((), {}, (), None, (), {})
    tails = [sid for sid, plan in enumerate(nfa.plans) if plan.tail]
    assert tails == sorted(sid for sid, w in nfa.work.items() if w.tail)
    owner = state_branches(nfa)
    for bi, chain in enumerate(nfa.chains):
        assert sum(len(w.tail) + len(w.fc_checks)
                   for sid, w in nfa.work.items() if owner[sid] == bi
                   ) == len(chain.negations)
    for sid, w in nfa.work.items():
        if w.tail:
            plan = nfa.plans[sid]
            assert plan.tail == w.tail
            assert plan.entry_takes == () and plan.stream_takes == {}
            waits = [chk for chk in w.tail if not chk.succ_roles]
            assert plan.kill_map == {
                t: tuple(chk for chk in waits if chk.etype == t)
                for t in {chk.etype for chk in waits}}
        if w.complete is not None and w.complete.tail_start is not None:
            assert nfa.plans[w.complete.tail_start].tail


def test_every_builder_output_over_the_difftest_corpus_validates():
    rng = random.Random(2024)
    built = 0
    for _ in range(200):
        chains = to_dnf(parse_pattern(random_pattern(rng)))
        lazies, eagers = [], []
        for chain in chains:
            order = sorted(t for _, t in chain.positives)
            nfas = [build_eager(chain), build_lazy(chain, order)]
            try:
                nfas.append(build_lazy(chain, order, negation="fc"))
            except N.BuildError:
                pass  # first-chance negation refuses a trailing negation
            lazies.append(lazy_parts(chain, order))
            eagers.append(eager_parts(chain))
            # The take encoding the runtime dispatches on: an eager take
            # binds arrivals only and carries no ``kleene``; a lazy take
            # searches, and carries ``kleene`` exactly when it iterates.
            eager, *lazy = nfas
            assert not any(tp.search or tp.kleene is not None
                           for tp in eager.edges)
            assert all(tp.search
                       and (tp.kleene is None) == (tp.iterate is None)
                       for nfa in lazy for tp in nfa.edges)
            for nfa in nfas:
                N.validate_nfa(nfa)
                assert len(nfa.plans) == len(nfa.states)
                _one_state_per_negative_tail(nfa)
                _plan_runs_the_laid_out_takes(nfa)
            built += len(nfas)
        for merged in (N.build_multi_chain(lazies),
                       N.build_multi_chain(eagers)):
            N.validate_nfa(merged)
            _one_state_per_negative_tail(merged)
            _plan_runs_the_laid_out_takes(merged)
    assert built > 400


def test_public_api_resolves_without_duplicates():
    assert len(cep.__all__) == len(set(cep.__all__))
    for name in cep.__all__:
        assert getattr(cep, name) is not None, name
