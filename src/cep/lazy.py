"""Construction of lazy chain automata: states follow ascending event
frequency, deferring frequent types to the input buffer.

Build variants: plain chains (sequences, conjunctions, partial sequences),
post-processing negation (one tail state between the chain and F, which
checks the negated types in descending frequency order), first-chance
negation (reject checks at the earliest state where a negated event's
dependencies are bound; a check that needs the whole match runs in the
same one-state tail), and iteration (iterated type forced to the end of
the frequency order). Each check is laid out once, as the
:class:`~cep.nfa.StateWork` of the state at whose entry it runs: a
first-chance check at its dependency state, the tail's checks at the tail's
state. Disjunctions merge the chains' parts with
:func:`cep.nfa.build_multi_chain`.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from . import nfa as N
from .events import EventType
from .patterns import ChainPattern
from .predicates import split_kleene


def ascending_freq_order(rates: Mapping[EventType, float]) -> list:
    """Types sorted by ascending arrival rate; ties break lexicographically."""
    return [t for _, t in sorted((rate, t) for t, rate in rates.items())]


def descending_freq_order(rates: Mapping[EventType, float]) -> list:
    return [t for _, t in sorted(((rate, t) for t, rate in rates.items()),
                                 key=lambda p: (-p[0], p[1]))]


def ordering_filters(chain: ChainPattern, role: str, bound) -> tuple:
    """The ordering filters of the take that binds ``role`` once the roles
    in ``bound`` are bound.

    ``(prec, succ)``: of the bound roles that must precede ``role``, those
    no other of them follows; of those that must succeed it, those no other
    of them precedes (:meth:`ChainPattern.nearest`). Either may be empty.
    """
    bound = frozenset(bound)
    return chain.nearest(chain.prec_of(role) & bound,
                         chain.succ_of(role) & bound)


def _check_freq(chain: ChainPattern, freq: Sequence[EventType]) -> None:
    expected = sorted(t for _, t in chain.positives)
    if sorted(freq) != expected:
        raise N.BuildError(
            f"frequency order {list(freq)} is not a permutation of the "
            f"pattern's positive types {expected}"
        )


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
    negation's dependencies are bound: the tail, in pattern order, for a
    check whose dependencies the last take binds.
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
    n = len(freq)
    negs = list(chain.negations)
    fc_checks: dict = {}
    if negs and negation == "fc":
        _check_fc_applicable(chain)
        negs = []
        for spec in chain.negations:
            chk = N.neg_check(chain, spec)
            sid = _dep_state(chk, bind_order)
            if sid == n:
                negs.append(spec)  # it needs the whole match: a tail check
            else:
                fc_checks.setdefault(sid, []).append(chk)
    elif negs and neg_freq is not None:
        if sorted(neg_freq) != sorted(s.etype for s in negs):
            raise N.BuildError("negative order must cover the negated types")
        by_type = {s.etype: s for s in negs}
        negs = [by_type[t] for t in neg_freq]

    # The last take enters the state after the chain: the negative tail's
    # one state, which runs the checks left for it, or else F.
    tail_names, tail = N.negative_tail(chain, negs)
    states = (*(f"q{i + 1}" for i in range(n)), *tail_names, "F")
    edges = []
    for i, etype in enumerate(freq):
        role, bound = bind_order[i], bind_order[:i]
        prec, succ = ordering_filters(chain, role, bound)
        cond = tuple(a for a in chain.atoms
                     if N.binds_last(a.roles, role, bound))
        if it is not None and i == n - 1:
            # The iterate take carries its atoms once, split for its search.
            edges.append(N.Take(i, i + 1, etype, role, (), prec, succ,
                                search=True,
                                iterate=(it.lo, it.hi, it.group_by),
                                kleene=split_kleene(cond, role,
                                                    it.group_by)))
        else:
            edges.append(N.Take(i, i + 1, etype, role, cond, prec, succ,
                                search=True))

    work = {sid: N.StateWork(fc_checks=tuple(chks))
            for sid, chks in fc_checks.items()}
    if tail:
        work[n] = N.StateWork(tail=tail)
    return N.ChainParts(states=states, edges=tuple(edges),
                        window=chain.window, chain=chain, work=work)


def _check_fc_applicable(chain: ChainPattern) -> None:
    for spec in chain.negations:
        if not spec.succ_roles:
            raise N.BuildError(
                f"first-chance negation needs a positive event after "
                f"{spec.etype!r}; use the post-processing variant"
            )


def _dep_state(chk, bind_order: Sequence[str]) -> int:
    """The state at whose entry a first-chance check can run: the one after
    the last of its nearest neighbours and its condition's roles is bound.
    After the last take that is the state before F, the chain's tail."""
    dep = chk.prec_roles.union(chk.succ_roles,
                               *(a.roles - {chk.role} for a in chk.cond))
    return 1 + next(i for i, r in enumerate(bind_order)
                    if N.binds_last(dep, r, bind_order[:i]))
