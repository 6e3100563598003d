"""Brute-force reference semantics: enumerate every role assignment over a
stream and test it directly against the chain pattern.

This module is the ground truth for the differential suite. It shares no
evaluation machinery with the automaton runtime beyond the predicate
evaluator, and checks each candidate assignment against the pattern's
temporal order, window, predicates, and negations by direct enumeration.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .events import Event, within_window
from .patterns import ChainPattern, NegSpec
from .predicates import compile_atoms, eval_atoms
from .runtime import match_key


class OracleCapExceeded(ValueError):
    pass


def enumerate_matches(chain: ChainPattern, stream: Sequence[Event],
                      window: Optional[int] = None, cap: int = 30) -> list:
    """All bindings of stream events to the chain's roles that match.

    Returns binding dicts sorted by canonical key. Set semantics per chain:
    each qualifying assignment appears exactly once.
    """
    if len(stream) > cap:
        raise OracleCapExceeded(f"stream length {len(stream)} exceeds cap {cap}")
    w = chain.window if window is None else window
    by_type: dict = {}
    for e in stream:
        by_type.setdefault(e.etype, []).append(e)

    it = chain.iterated
    role_choices = []
    for role, etype in chain.positives:
        events = by_type.get(etype, [])
        if it is not None and role == it.role:
            role_choices.append((role, _subset_choices(events, it)))
        else:
            role_choices.append((role, events))
    atoms = compile_atoms(chain.atoms)
    negations = [n.compiled() for n in chain.negations]
    out = []
    for combo in product(*(choices for _, choices in role_choices)):
        binding = {role: value
                   for (role, _), value in zip(role_choices, combo)}
        if _match_ok(chain, atoms, negations, binding, by_type, w):
            out.append(binding)
    out.sort(key=match_key)
    return out


def _subset_choices(events, it) -> list:
    subsets = []
    hi = len(events) if it.hi is None else min(it.hi, len(events))
    for size in range(it.lo, hi + 1):
        for combo in combinations(events, size):
            if it.group_by is not None:
                first = combo[0].attr(it.group_by)
                if any(e.attr(it.group_by) != first for e in combo[1:]):
                    continue
            subsets.append(combo)
    return subsets


def _bounds_of(binding, role):
    bound = binding[role]
    if isinstance(bound, tuple):
        return bound[0].key, bound[-1].key
    return bound.key, bound.key


def _match_ok(chain: ChainPattern, atoms: tuple, negations: list,
              binding: dict, by_type: dict, w: int) -> bool:
    for u, v in chain.temporal_order:
        _, u_hi = _bounds_of(binding, u)
        v_lo, _ = _bounds_of(binding, v)
        if not u_hi < v_lo:
            return False
    all_ts = [e.ts for b in binding.values()
              for e in (b if isinstance(b, tuple) else (b,))]
    lo_ts, hi_ts = min(all_ts), max(all_ts)
    if not within_window(lo_ts, hi_ts, w):
        return False
    if atoms and not eval_atoms(atoms, binding):
        return False
    for neg in negations:
        if _invalidated(neg, binding, by_type, lo_ts, hi_ts, w):
            return False
    return True


def _invalidated(neg: NegSpec, binding: dict, by_type: dict,
                 lo_ts: int, hi_ts: int, w: int) -> bool:
    """True iff some event of the negated type forbids this assignment.

    A candidate forbids it when it satisfies the negation's predicate, sits
    between the bound neighbours demanded by the pattern's sequence
    placement, and fits inside the match's window envelope (an event that
    could not have co-occurred with the match cannot invalidate it).
    """
    lower = None
    for r in neg.prec_roles:
        _, hi_key = _bounds_of(binding, r)
        lower = hi_key if lower is None else max(lower, hi_key)
    upper = None
    for r in neg.succ_roles:
        lo_key, _ = _bounds_of(binding, r)
        upper = lo_key if upper is None else min(upper, lo_key)
    for x in by_type.get(neg.etype, ()):
        if lower is not None and not x.key > lower:
            continue
        if upper is not None and not x.key < upper:
            continue
        if max(hi_ts, x.ts) - min(lo_ts, x.ts) > w:
            continue
        if neg.cond:
            trial = dict(binding)
            trial[neg.role] = x
            if not eval_atoms(neg.cond, trial):
                continue
        return True
    return False


def enumerate_matches_chains(chains: Iterable[ChainPattern],
                             stream: Sequence[Event],
                             window: Optional[int] = None,
                             cap: int = 30) -> list:
    """Concatenated per-chain matches (multiplicity across chains is kept,
    mirroring how the engines report duplicates of composite patterns)."""
    out = []
    for chain in chains:
        out.extend(enumerate_matches(chain, stream, window, cap))
    out.sort(key=match_key)
    return out
