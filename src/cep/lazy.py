"""Construction of lazy chain automata: states follow ascending event
frequency, deferring frequent types to the input buffer.

Build variants: plain chains (sequences, conjunctions, partial sequences),
post-processing negation (a descending-frequency tail of negative states),
first-chance negation (reject checks at the earliest state where a negated
event's dependencies are bound), and iteration (iterated type forced to the
end of the frequency order). Disjunctions merge the chains' parts with
:func:`cep.nfa.build_multi_chain`.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from . import nfa as N
from .events import EventType
from .patterns import ChainPattern, NegSpec
from .predicates import atom_roles, compile_atom


def ascending_freq_order(rates: Mapping[EventType, float]) -> list:
    """Types sorted by ascending arrival rate; ties break lexicographically."""
    return [t for _, t in sorted((rate, t) for t, rate in rates.items())]


def descending_freq_order(rates: Mapping[EventType, float]) -> list:
    return [t for _, t in sorted(((rate, t) for t, rate in rates.items()),
                                 key=lambda p: (-p[0], p[1]))]


def sequence_filters(etype: EventType, freq: Sequence[EventType],
                     seq: Sequence[EventType]) -> tuple:
    """Ordering filters for one type of a totally ordered sequence.

    prec: the latest (in sequence position) of the already-processed types
    that must precede it; succ: the earliest that must succeed it. Either may
    be empty; both are singletons otherwise.
    """
    prec_freq = set(freq[: freq.index(etype)])
    pos = seq.index(etype)
    p = prec_freq & set(seq[:pos])
    s = prec_freq & set(seq[pos + 1 :])
    prec = frozenset({max(p, key=seq.index)}) if p else frozenset()
    succ = frozenset({min(s, key=seq.index)}) if s else frozenset()
    return prec, succ


def partial_filters(etype: EventType, freq: Sequence[EventType],
                    order_pairs) -> tuple:
    """Ordering filters under a partial temporal order (full sets).

    The runtime applies the most restrictive bound: the latest bound event of
    the prec set and the earliest of the succ set.
    """
    prec_freq = set(freq[: freq.index(etype)])
    prec = frozenset(prec_freq & {u for (u, v) in order_pairs if v == etype})
    succ = frozenset(prec_freq & {v for (u, v) in order_pairs if u == etype})
    return prec, succ


def _type_pairs(chain: ChainPattern) -> set:
    types = chain.types
    return {(types[u], types[v]) for (u, v) in chain.temporal_order}


def _chain_filters(chain: ChainPattern, etype: EventType,
                   freq: Sequence[EventType]) -> tuple:
    if not chain.temporal_order:
        return frozenset(), frozenset()
    pairs = _type_pairs(chain)
    if chain.is_total_order():
        n = len(chain.positives)
        seq = sorted((chain.etype_of(r) for r in chain.roles),
                     key=lambda t: sum(1 for (u, v) in pairs if v == t))
        assert len(seq) == n
        return sequence_filters(etype, freq, seq)
    return partial_filters(etype, freq, pairs)


def _check_freq(chain: ChainPattern, freq: Sequence[EventType]) -> None:
    expected = sorted(t for _, t in chain.positives)
    if sorted(freq) != expected:
        raise N.BuildError(
            f"frequency order {list(freq)} is not a permutation of the "
            f"pattern's positive types {expected}"
        )


def _assign_atoms(chain: ChainPattern, bind_order: Sequence[str]) -> list:
    """Compiled atoms per take position: each atom fires at the position
    binding its last referenced role."""
    pos_of = {r: i for i, r in enumerate(bind_order)}
    slots = [[] for _ in bind_order]
    for atom in chain.atoms:
        slots[max(pos_of[r] for r in atom_roles(atom))].append(compile_atom(atom))
    return [tuple(s) for s in slots]


def build_lazy(chain: ChainPattern, freq: Sequence[EventType],
               negation: str = "pp",
               neg_freq: Optional[Sequence[EventType]] = None) -> N.Nfa:
    """Lazy chain automaton for any chain pattern (see :func:`lazy_parts`)."""
    return lazy_parts(chain, freq, negation, neg_freq).nfa()


def lazy_parts(chain: ChainPattern, freq: Sequence[EventType],
               negation: str = "pp",
               neg_freq: Optional[Sequence[EventType]] = None
               ) -> N.ChainParts:
    """The lazy chain of one chain pattern, ready to stand alone or be merged.

    ``negation`` picks how negated events are checked: ``"pp"`` in a
    post-processing tail ordered by ``neg_freq`` (descending frequency;
    pattern order when omitted), ``"fc"`` at the earliest state where each
    negation's dependencies are bound.
    """
    _check_freq(chain, freq)
    freq = list(freq)
    it = chain.iterated
    if it is not None:
        # The artificial "all subsets" event is the most frequent type no
        # matter the actual rate, so its state always sits at the end.
        freq = [t for t in freq if t != it.etype] + [it.etype]

    role_of_type = {t: r for r, t in chain.positives}
    bind_order = [role_of_type[t] for t in freq]
    atom_slots = _assign_atoms(chain, bind_order)
    n = len(freq)
    fc = bool(chain.negations) and negation == "fc"
    label = "lazy-fc" if fc else "lazy-pp" if chain.negations else "lazy"
    negs = list(chain.negations)
    if fc:
        _check_fc_applicable(chain)
        negs = []
    neg_types = frozenset(s.etype for s in chain.negations)

    if negs:
        if neg_freq is None:
            order = {s.role: i for i, s in enumerate(chain.negations)}
            negs.sort(key=lambda s: order[s.role])
        else:
            if sorted(neg_freq) != sorted(s.etype for s in negs):
                raise N.BuildError("negative order must cover the negated types")
            by_type = {s.etype: s for s in negs}
            negs = [by_type[t] for t in neg_freq]

    # Negative tail: each state checks one negated type; an instance moves
    # on once that check is certified, and to F after the last one.
    tail_start = n
    tail_states, tail_edges, tail = N.negative_tail(negs, tail_start)
    states = [N.State(i, N.CHAIN, f"q{i + 1}", 0) for i in range(n)]
    states += tail_states
    edges = []
    accepting = n + len(negs)
    states.append(N.State(accepting, N.ACCEPT, "F", 0))

    for i, etype in enumerate(freq):
        store_t = frozenset(freq[i + 1 :]) | neg_types
        if it is not None and i == n - 1:
            # An iterate edge taking from the stream inserts the new event
            # into the buffer before generating the subsets that contain it.
            store_t |= {it.etype}
        if store_t:
            edges.append(N.Edge(i, i, N.STORE, store_t))
        prec, succ = _chain_filters(chain, etype, freq)
        dst = i + 1 if i + 1 < n else (tail_start if negs else accepting)
        role = bind_order[i]
        if it is not None and i == n - 1:
            edges.append(N.Edge(i, dst, N.ITERATE, frozenset({etype}),
                                cond=atom_slots[i], prec=prec, succ=succ,
                                role=role, bounds=(it.lo, it.hi),
                                group_by=it.group_by, branch=0))
        else:
            edges.append(N.Edge(i, dst, N.TAKE, frozenset({etype}),
                                cond=atom_slots[i], prec=prec, succ=succ,
                                role=role, branch=0))
    edges += tail_edges

    fc_checks: dict = {}
    if fc:
        for spec in chain.negations:
            reduced = _reduce_neighbours(chain, spec)
            sid = _dep_state(chain, reduced, freq, bind_order, accepting)
            fc_checks.setdefault(sid, []).append(reduced.compiled())
        fc_checks = {sid: tuple(v) for sid, v in fc_checks.items()}

    _check_filter_soundness(edges, freq, n)
    branch = N.Branch(chain=chain, tail=tail, fc_checks=fc_checks)
    return N.ChainParts(label=label, states=tuple(states), edges=tuple(edges),
                        initial=0, accepting=accepting, window=chain.window,
                        branch=branch)


def _check_fc_applicable(chain: ChainPattern) -> None:
    for spec in chain.negations:
        if not spec.succ_roles:
            raise N.BuildError(
                f"first-chance negation needs a positive event after "
                f"{spec.etype!r}; use the post-processing variant"
            )


def _reduce_neighbours(chain: ChainPattern, spec: NegSpec) -> NegSpec:
    """Restrict a negation's neighbour sets to the binding elements.

    Transitivity makes the latest preceding and earliest succeeding events
    the effective bounds, so only the maximal prec roles and minimal succ
    roles need to be bound before the check can run.
    """
    order = chain.temporal_order
    prec_max = frozenset(u for u in spec.prec_roles
                         if not any((u, v) in order for v in spec.prec_roles))
    succ_min = frozenset(v for v in spec.succ_roles
                         if not any((u, v) in order for u in spec.succ_roles))
    return NegSpec(role=spec.role, etype=spec.etype, cond=spec.cond,
                   prec_roles=prec_max, succ_roles=succ_min)


def _dep_state(chain: ChainPattern, reduced: NegSpec,
               freq: Sequence[EventType], bind_order: Sequence[str],
               accepting: int) -> int:
    dep = set(reduced.prec_roles) | set(reduced.succ_roles)
    for atom in reduced.cond:
        dep |= atom_roles(atom) - {reduced.role}
    last = max(bind_order.index(r) for r in dep)
    return last + 1 if last + 1 < len(bind_order) else accepting


def _check_filter_soundness(edges, freq, n) -> None:
    # Edge filters may only reference types bound before their source state.
    for e in edges:
        if e.action in (N.TAKE, N.ITERATE) and e.src < n:
            bound = set(freq[: e.src])
            if not (set(e.prec) | set(e.succ)) <= bound:
                raise N.BuildError(
                    f"ordering filters of state {e.src} reference unbound types"
                )
