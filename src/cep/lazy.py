"""Construction of lazy chain automata: states follow ascending event
frequency, deferring frequent types to the input buffer.

Build variants: plain chains (sequences, conjunctions, partial sequences),
post-processing negation (a descending-frequency tail of negative states),
first-chance negation (reject checks at the earliest state where a negated
event's dependencies are bound), iteration (iterated type forced to the end
of the frequency order), and the multi-chain merge for disjunctions.
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


def build_lazy_chain(chain: ChainPattern, freq: Sequence[EventType]) -> N.Nfa:
    """Chain automaton for a negation-free, iteration-free pattern."""
    if chain.negations:
        raise N.BuildError("pattern has negations: use a negation-aware builder")
    if chain.iterated is not None:
        raise N.BuildError("pattern has an iterated event: use build_iteration")
    return _build(chain, freq, label="lazy")


def build_iteration(chain: ChainPattern, freq: Sequence[EventType]) -> N.Nfa:
    """Chain automaton with the iterated type moved to the end of the order
    and its final take replaced by an iterate edge."""
    if chain.iterated is None:
        raise N.BuildError("pattern has no iterated event")
    if chain.negations:
        raise N.BuildError("combine iteration with negation via build_lazy")
    return _build(chain, freq, label="lazy")


def build_pp_negation(chain: ChainPattern, freq: Sequence[EventType],
                      neg_freq: Optional[Sequence[EventType]] = None) -> N.Nfa:
    """Positive chain followed by one negative state per negated type."""
    if not chain.negations:
        return _build(chain, freq, label="lazy-pp")
    return _build(chain, freq, label="lazy-pp", negation="pp", neg_freq=neg_freq)


def build_fc_negation(chain: ChainPattern, freq: Sequence[EventType]) -> N.Nfa:
    """Positive chain with reject edges at each negation's dependency state."""
    if not chain.negations:
        return _build(chain, freq, label="lazy-fc")
    return _build(chain, freq, label="lazy-fc", negation="fc")


def build_lazy(chain: ChainPattern, freq: Sequence[EventType],
               negation: str = "pp",
               neg_freq: Optional[Sequence[EventType]] = None) -> N.Nfa:
    """Dispatch to the right lazy construction for any chain pattern."""
    if chain.negations:
        if negation == "fc":
            return _build(chain, freq, label="lazy-fc", negation="fc")
        return _build(chain, freq, label="lazy-pp", negation="pp", neg_freq=neg_freq)
    return _build(chain, freq, label="lazy")


def _build(chain: ChainPattern, freq: Sequence[EventType], label: str,
           negation: Optional[str] = None,
           neg_freq: Optional[Sequence[EventType]] = None) -> N.Nfa:
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
    negs = list(chain.negations)
    if negation == "fc":
        _check_fc_applicable(chain)
        negs = []
    if negation is None and chain.negations:
        raise N.BuildError("negations present but no negation variant selected")
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

    states = []
    edges = []
    for i, etype in enumerate(freq):
        states.append(N.State(i, N.CHAIN, f"q{i + 1}", 0))
    tail_start = n
    for j, spec in enumerate(negs):
        states.append(N.State(tail_start + j, N.NEG, f"r_{spec.etype}", 0))
    accepting = n + len(negs)
    rejecting = accepting + 1
    states.append(N.State(accepting, N.ACCEPT, "F", 0))
    states.append(N.State(rejecting, N.REJECT, "R", 0))

    types = chain.types
    for i, etype in enumerate(freq):
        prec_t = frozenset(freq[:i])
        succ_t = frozenset(freq[i + 1 :])
        if prec_t:
            edges.append(N.Edge(i, i, N.IGNORE, prec_t))
        store_t = succ_t | neg_types
        if it is not None and i == n - 1:
            # An iterate edge taking from the stream inserts the new event
            # into the buffer before generating the subsets that contain it.
            store_t |= {it.etype}
        if store_t:
            edges.append(N.Edge(i, i, N.STORE, store_t))
        if i > 0:
            edges.append(N.timeout_edge(i, rejecting))
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

    tail = []
    pos_types = frozenset(freq)
    for j, spec in enumerate(negs):
        spec = spec.compiled()
        sid = tail_start + j
        nxt = sid + 1 if j + 1 < len(negs) else accepting
        checked = frozenset(s.etype for s in negs[:j])
        later = frozenset(s.etype for s in negs[j + 1 :])
        edges.append(N.Edge(sid, sid, N.IGNORE, pos_types | checked))
        if later:
            edges.append(N.Edge(sid, sid, N.STORE, later))
        prec = frozenset(types[r] for r in spec.prec_roles)
        succ = frozenset(types[r] for r in spec.succ_roles)
        edges.append(N.Edge(sid, rejecting, N.TAKE, frozenset({spec.etype}),
                            cond=spec.cond, prec=prec, succ=succ,
                            role=spec.role, branch=0))
        wait = not spec.succ_roles
        if wait:
            edges.append(N.timeout_edge(sid, nxt))
        else:
            edges.append(N.search_failed_edge(sid, nxt))
        tail.append((sid, spec, wait))

    fc_checks: dict = {}
    if negation == "fc":
        for spec in chain.negations:
            reduced = _reduce_neighbours(chain, spec)
            sid = _dep_state(chain, reduced, freq, bind_order, accepting)
            reduced = reduced.compiled()
            prec = frozenset(types[r] for r in reduced.prec_roles)
            succ = frozenset(types[r] for r in reduced.succ_roles)
            edges.append(N.Edge(sid, rejecting, N.TAKE, frozenset({spec.etype}),
                                cond=reduced.cond, prec=prec, succ=succ,
                                role=spec.role, branch=0))
            fc_checks.setdefault(sid, []).append(reduced)
        fc_checks = {sid: tuple(v) for sid, v in fc_checks.items()}

    _check_filter_soundness(edges, freq, n)
    branch = N.Branch(chain=chain, tail=tuple(tail), fc_checks=fc_checks)
    nfa = N.Nfa(label=label, states=tuple(states), edges=tuple(edges),
                initial=0, accepting=accepting, rejecting=rejecting,
                window=chain.window, branches=(branch,))
    N.validate_nfa(nfa)
    return nfa


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


def build_multi_chain(nfas: Sequence[N.Nfa]) -> N.Nfa:
    """Merge chain automata by sharing their initial/accepting/rejecting states."""
    if not nfas:
        raise N.BuildError("no chains to merge")
    states = [N.State(0, N.CHAIN, "q1", None)]
    edges = []
    branches = []
    remapped_nfas = []
    next_sid = 1
    for bi, sub in enumerate(nfas):
        if len(sub.branches) != 1:
            raise N.BuildError("can only merge single-chain automata")
        mapping = {}
        for s in sub.states:
            if s.sid == sub.initial:
                mapping[s.sid] = 0
            elif s.sid in (sub.accepting, sub.rejecting):
                continue  # resolved after all internals are placed
            else:
                mapping[s.sid] = next_sid
                states.append(N.State(next_sid, s.kind, f"{s.name}.{bi + 1}", bi))
                next_sid += 1
        remapped_nfas.append(mapping)
    accepting = next_sid
    rejecting = next_sid + 1
    states.append(N.State(accepting, N.ACCEPT, "F", None))
    states.append(N.State(rejecting, N.REJECT, "R", None))

    for bi, sub in enumerate(nfas):
        mapping = dict(remapped_nfas[bi])
        mapping[sub.accepting] = accepting
        mapping[sub.rejecting] = rejecting
        for e in sub.edges:
            edges.append(N.Edge(mapping[e.src], mapping[e.dst], e.action,
                                e.types, e.cond, e.prec, e.succ, e.role,
                                e.bounds, e.group_by, branch=bi))
        b = sub.branches[0]
        branches.append(N.Branch(
            chain=b.chain,
            tail=tuple((mapping[sid], spec, wait) for sid, spec, wait in b.tail),
            fc_checks={mapping[sid]: checks for sid, checks in b.fc_checks.items()},
            complete_state=(mapping[b.complete_state]
                            if b.complete_state is not None else None),
            eager_gates=b.eager_gates,
        ))
    window = nfas[0].window
    if any(sub.window != window for sub in nfas):
        raise N.BuildError("merged chains must share one window")
    nfa = N.Nfa(label="multi", states=tuple(states), edges=tuple(edges),
                initial=0, accepting=accepting, rejecting=rejecting,
                window=window, branches=tuple(branches))
    N.validate_nfa(nfa)
    return nfa
