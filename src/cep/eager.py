"""Baseline eager automaton: every event is processed on arrival.

States are the downward-closed sets of bound roles under the pattern's
temporal order (a chain for full sequences, the full subset lattice for
conjunctions). An iterated role's members are appended one by one: its
first member by the take that binds the role, the others by a self-loop.
Negated roles are verified as a post-processing step once all positives
are bound, in the same one-state negative tail that the lazy
post-processing chain ends in, between the lattice and F. The full roleset
is a state of its own only while its iterated role has work there (atoms
to gate, or members to append); it then gates, and emits or hands the
instance to the tail. Otherwise it is the tail's state, or F. Takes bind
arrivals only and never search the buffer, so it stores only the negated
types that the tail checks.
"""

from __future__ import annotations

from itertools import combinations

from . import nfa as N
from .patterns import ChainPattern


def build_eager(chain: ChainPattern) -> N.Nfa:
    return eager_parts(chain).nfa()


def eager_parts(chain: ChainPattern) -> N.ChainParts:
    """The eager lattice of one chain, ready to stand alone or be merged."""
    roles = list(chain.roles)
    preds = {r: chain.prec_of(r) & set(roles) for r in roles}
    succs = {r: chain.succ_of(r) & set(roles) for r in roles}
    it = chain.iterated
    types = chain.types

    subsets = _downward_closed(roles, preds)
    subsets.sort(key=lambda s: (len(s), tuple(sorted(s))))
    sid_of = {s: i for i, s in enumerate(subsets)}
    full = frozenset(roles)
    # The iterated role's atoms wait for the completion gate; any other
    # atom may ride several lattice edges.
    iter_atoms = tuple(a for a in chain.atoms
                       if it is not None and it.role in a.roles)
    chain_atoms = [a for a in chain.atoms if a not in iter_atoms]
    # The full roleset, the last subset, is a state of its own only while
    # the iterated role has work there: atoms to gate, or members to append
    # (no role follows it; a take that binds one requires its minimum
    # count). Otherwise it is the tail's one state, or F.
    complete = it is not None and bool(iter_atoms or not succs[it.role])
    tail_states, tail = N.negative_tail(chain, chain.negations)
    states = ["{" + ",".join(sorted(s)) + "}" if s else "q0"
              for s in subsets]
    if not complete:
        states.pop()
    states += [*tail_states, "F"]

    # The take that binds the iterated role appends its first member to
    # none, and the takes after it wait for the role's minimum count.
    req = {r: (it.role, it.lo) for r in roles
           if it is not None and it.role in preds[r]}
    iterate = (it.lo, it.hi, it.group_by) if it is not None else None
    edges = []
    for s in subsets:
        sid = sid_of[s]
        for r in roles:
            if r in s or not preds[r] <= s:
                continue
            first = it is not None and r == it.role
            cond = tuple(a for a in chain_atoms
                         if N.binds_last(a.roles, r, s))
            edges.append(N.Take(sid, sid_of[s | frozenset({r})], types[r],
                                r, cond, iterate=iterate if first else None,
                                append=first, req_iter_min=req.get(r)))
        if it is not None and it.role in s and not (succs[it.role] & s):
            # Accumulating self-loop; conditions over the subset are deferred
            # to the acceptance gates, the loop itself only grows the list.
            edges.append(N.Take(sid, sid, types[it.role], it.role,
                                iterate=iterate, append=True))

    # Completion on the full roleset gates, then emits or hands off to the
    # tail (Completion).
    branch = N.Branch(chain=chain, tail=tail,
                      tail_state=len(states) - 2 if tail else None,
                      complete_state=sid_of[full] if complete else None,
                      eager_gates=(it.role, it.lo, iter_atoms)
                      if complete else None)
    return N.ChainParts(states=tuple(states), edges=tuple(edges),
                        window=chain.window, branch=branch)


def _downward_closed(roles, preds) -> list:
    out = []
    rs = list(roles)
    for k in range(len(rs) + 1):
        for combo in combinations(rs, k):
            s = frozenset(combo)
            if all(preds[r] <= s for r in s):
                out.append(s)
    return out
