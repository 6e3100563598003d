"""Baseline eager automaton: every event is processed on arrival.

States are the downward-closed sets of bound roles under the pattern's
temporal order (a chain for full sequences, the full subset lattice for
conjunctions). An iterated role contributes a take self-loop accumulating
events one by one. Negated roles are verified as a post-processing step
once all positives are bound, via the same negative-tail machinery the lazy
post-processing chain uses.
"""

from __future__ import annotations

from itertools import combinations

from . import nfa as N
from .patterns import ChainPattern
from .predicates import atom_roles, compile_atom


def build_eager(chain: ChainPattern) -> N.Nfa:
    roles = list(chain.roles)
    preds = {r: chain.prec_of(r) & set(roles) for r in roles}
    succs = {r: chain.succ_of(r) & set(roles) for r in roles}
    it = chain.iterated
    types = chain.types
    neg_types = frozenset(s.etype for s in chain.negations)

    subsets = _downward_closed(roles, preds)
    subsets.sort(key=lambda s: (len(s), tuple(sorted(s))))
    sid_of = {s: i for i, s in enumerate(subsets)}
    full = frozenset(roles)
    n_sub = len(subsets)

    has_tail = bool(chain.negations)
    # Without a negation tail the full-roleset state is itself accepting.
    tail_start = n_sub
    accepting = n_sub + len(chain.negations) if has_tail else sid_of[full]
    rejecting = (tail_start + len(chain.negations) + 1) if has_tail else n_sub

    states = []
    for s in subsets:
        name = "{" + ",".join(sorted(s)) + "}" if s else "q0"
        if s == full and not has_tail:
            states.append(N.State(sid_of[s], N.ACCEPT, "F", 0))
        else:
            states.append(N.State(sid_of[s], N.CHAIN, name, 0))
    tail = []
    if has_tail:
        for j, spec in enumerate(chain.negations):
            states.append(N.State(tail_start + j, N.NEG, f"r_{spec.etype}", 0))
        states.append(N.State(accepting, N.ACCEPT, "F", 0))
    states.append(N.State(rejecting, N.REJECT, "R", 0))

    # (roles, compiled atom); one atom may ride several lattice edges.
    chain_atoms, iter_atom_list = [], []
    for a in chain.atoms:
        roles_a = atom_roles(a)
        if it is not None and it.role in roles_a:
            iter_atom_list.append(compile_atom(a))
        else:
            chain_atoms.append((roles_a, compile_atom(a)))
    iter_atoms = tuple(iter_atom_list)

    edges = []
    all_types = frozenset(types[r] for r in roles)
    for s in subsets:
        sid = sid_of[s]
        takeable = set()
        for r in roles:
            if r in s or not preds[r] <= s:
                continue
            takeable.add(r)
            cond = tuple(
                a for roles_a, a in chain_atoms
                if r in roles_a and roles_a <= (s | {r})
            )
            edges.append(N.Edge(sid, sid_of[s | frozenset({r})], N.TAKE,
                                frozenset({types[r]}), cond=cond, role=r,
                                branch=0))
        if it is not None and it.role in s and not (succs[it.role] & s):
            # Accumulating self-loop; conditions over the subset are deferred
            # to the acceptance gates, the loop itself only grows the list.
            takeable.add(it.role)
            edges.append(N.Edge(sid, sid, N.TAKE,
                                frozenset({types[it.role]}), role=it.role,
                                branch=0))
        irrelevant = all_types - frozenset(types[r] for r in takeable)
        if irrelevant and not (s == full and not has_tail):
            edges.append(N.Edge(sid, sid, N.IGNORE, irrelevant))
        if neg_types and not (s == full and not has_tail):
            edges.append(N.Edge(sid, sid, N.STORE, neg_types))
        if s and not (s == full and not has_tail):
            edges.append(N.timeout_edge(sid, rejecting))

    if has_tail:
        full_sid = sid_of[full]
        pos_types = all_types
        for j, spec in enumerate(chain.negations):
            spec = spec.compiled()
            sid = tail_start + j
            nxt = sid + 1 if j + 1 < len(chain.negations) else accepting
            checked = frozenset(x.etype for x in chain.negations[:j])
            later = frozenset(x.etype for x in chain.negations[j + 1 :])
            edges.append(N.Edge(sid, sid, N.IGNORE, pos_types | checked))
            if later:
                edges.append(N.Edge(sid, sid, N.STORE, later))
            prec = frozenset(types[r] for r in spec.prec_roles)
            succ = frozenset(types[r] for r in spec.succ_roles)
            edges.append(N.Edge(sid, rejecting, N.TAKE,
                                frozenset({spec.etype}), cond=spec.cond,
                                prec=prec, succ=succ, role=spec.role,
                                branch=0))
            wait = not spec.succ_roles
            if wait:
                edges.append(N.timeout_edge(sid, nxt))
            else:
                edges.append(N.search_failed_edge(sid, nxt))
            tail.append((sid, spec, wait))
        # Completion hand-off from the full roleset into the tail.
        edges.append(N.search_failed_edge(full_sid, tail_start))

    gates = (it.lo, it.hi, iter_atoms) if it is not None else None
    branch = N.Branch(chain=chain, tail=tuple(tail), fc_checks={},
                      complete_state=sid_of[full], eager_gates=gates)
    nfa = N.Nfa(label="eager", states=tuple(states), edges=tuple(edges),
                initial=sid_of[frozenset()], accepting=accepting,
                rejecting=rejecting, window=chain.window, branches=(branch,))
    N.validate_nfa(nfa)
    return nfa


def _downward_closed(roles, preds) -> list:
    out = []
    rs = list(roles)
    for k in range(len(rs) + 1):
        for combo in combinations(rs, k):
            s = frozenset(combo)
            if all(preds[r] <= s for r in s):
                out.append(s)
    return out
