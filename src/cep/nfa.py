"""Automaton data model and its executable plan, shared by every builder.

An :class:`Nfa` is the immutable compilation artifact: named states, one
:class:`Take` record per take or iterate edge, the chain of each branch,
and a sparse table of per-state work. By position, state 0 is the seed's
and the last state is F, the accepting state. Each builder lays out one
chain as :class:`ChainParts`: its states, its takes, stated as the runtime
executes them (ordering filters, whether a take searches the buffer,
iteration bounds, the minimum count an eager take waits for), and, under
the one state where it runs, the :class:`StateWork` that an instance's
entry does there besides its takes: first-chance checks, the negative tail,
an eager completion. F is a sink that no instance enters: every take into F
emits its match. Whatever must still run once the last positive role is
bound runs in a state of its own before F: the chain's negative tail, one
state that runs all of its checks as one unit, or an eager lattice's full
roleset, whose completion gates, grows and hands on. One chain's parts
become an automaton as they are; :func:`build_multi_chain` merges several
into one that shares the seed's state and F, renumbering only the take
endpoints, the work table's keys and the completions' hand-offs.
Constructing an automaton compiles it, once, into the executable plan. It
holds one :class:`StatePlan` per state, which indexes the state's takes by
how they act (on an arrival or on entry), marks the takes into F, which
emit, and on a tail state holds the tail's checks and, by type, those that
arrivals also run. It also holds the states each arriving type acts on
(the only ones where a runtime registers an instance), the sort key of the
matches one step emits (none where the plan emits them in order) and the
types the shared buffer stores: those that some search in the plan reads.
The automaton is validated from its state plans, before the other tables
are derived from them. Every ``Runtime`` (in :mod:`cep.runtime`) shares the
plan and compiles nothing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from .patterns import ChainPattern, NegSpec
from .predicates import KleeneAtoms


class BuildError(ValueError):
    """A pattern cannot be compiled by the requested builder."""


@dataclass(frozen=True)
class Take:
    """A take or iterate edge, laid out by its builder as the runtime
    executes it."""

    src: int
    dst: int
    etype: str
    role: str  # role bound by the take
    # The chain's compiled atoms evaluated on traversal; empty on an
    # iterate take, whose atoms are in ``kleene``.
    cond: tuple = ()
    # Ordering filters: the nearest bound roles that must precede the taken
    # event (lower bounds) and succeed it (upper bounds).
    prec_roles: frozenset = frozenset()
    succ_roles: frozenset = frozenset()
    # The take also searches the buffer when its source state is entered
    # (lazy); otherwise it binds arrivals only (eager).
    search: bool = False
    branch: int = 0  # owning chain in a merged automaton
    # (lo, hi, group_attr) of the iterated role, on every take that binds
    # it: a lazy iterate take, which also carries ``kleene``, or an eager
    # take, which appends the arrival to the role's members (to none on the
    # take that binds the role); hi None = unbounded.
    iterate: Optional[tuple] = None
    # A lazy iterate take's atoms, split for iterate_fetch
    # (:func:`cep.predicates.split_kleene`): the MEMBER atoms in their
    # one-member form, the others as the chain holds them.
    kleene: Optional[KleeneAtoms] = None
    req_iter_min: Optional[tuple] = None  # (iterated role, lo) gate
    # Set by the plan only: the take enters F, so it emits its match and
    # builds no instance.
    emits: bool = False


@dataclass(frozen=True)
class Completion:
    """What an eager lattice's full roleset, a state only while its
    iterated role has work, does once every positive role is bound: apply
    the ``gate``, then emit the match or hand the instance to the negative
    tail at ``tail_start``. An instance that may ``grow`` (the iterated
    role's self-loop leaves this state) stays live and hands on a copy
    instead.
    """

    gate: tuple  # (iterated role, lo, its atoms)
    grow: bool
    tail_start: Optional[int]  # None: emit


@dataclass(frozen=True)
class StateWork:
    """What an instance's entry runs at one state besides its takes, laid
    out by the builder under that state: the first-chance checks whose
    dependencies are bound there, the negative tail's checks in check order
    (post-processing, or the first-chance checks that need the whole match;
    set on exactly the tail's one state) and an eager full roleset's
    completion."""

    fc_checks: tuple = ()
    tail: tuple = ()
    complete: Optional[Completion] = None


@dataclass(frozen=True)
class StatePlan:
    entry_takes: tuple
    stream_takes: dict  # etype -> tuple[Take]
    fc_checks: tuple
    complete: Optional[Completion]  # set on an eager full roleset only
    tail: tuple  # NegSpec in check order, set on exactly the tail states
    # etype -> tuple[NegSpec]: the tail checks that arrivals also run. An
    # instance that passes the tail waits exactly when this is non-empty.
    kill_map: dict


@dataclass(frozen=True)
class Nfa:
    states: tuple  # names; state 0 is the seed's, the last one is F
    edges: tuple
    window: int
    chains: tuple  # ChainPattern per branch, indexed by Take.branch
    work: dict  # sid -> StateWork; a state with none is absent
    # The executable plan, compiled on construction; every runtime shares it.
    plans: tuple = field(init=False, repr=False, compare=False)
    # The types the shared buffer stores: those some search in the plan reads.
    storable: frozenset = field(init=False, repr=False, compare=False)
    type_interest: dict = field(init=False, repr=False, compare=False)
    # The states that some arrival acts on: a runtime registers an instance
    # there, and retires one that its entry leaves anywhere else.
    acted_on: frozenset = field(init=False, repr=False, compare=False)
    # Sort key of one step's matches: ``(detection_ts, match key)`` order;
    # None when the plan emits them in that order (:func:`_emits_in_order`).
    drain_key: Optional[Callable] = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        plans = _compile_plans(self)
        object.__setattr__(self, "plans", plans)
        validate_nfa(self)
        object.__setattr__(self, "storable", _searched_types(plans))
        # Which states care about which arriving types.
        interest = defaultdict(set)
        for sid, plan in enumerate(plans):
            for t in (*plan.stream_takes, *plan.kill_map):
                interest[t].add(sid)
        object.__setattr__(self, "type_interest",
                           {t: tuple(sorted(s)) for t, s in interest.items()})
        object.__setattr__(self, "acted_on",
                           frozenset().union(*interest.values()))
        object.__setattr__(self, "drain_key",
                           None if _emits_in_order(self)
                           else _drain_key(self.chains))

    @property
    def accepting(self) -> int:
        return len(self.states) - 1


@dataclass(frozen=True)
class ChainParts:
    """One chain's layout, before it becomes (part of) an automaton."""

    states: tuple
    edges: tuple
    window: int
    chain: ChainPattern
    work: dict  # sid -> StateWork

    def nfa(self) -> Nfa:
        return Nfa(states=self.states, edges=self.edges, window=self.window,
                   chains=(self.chain,), work=self.work)


def build_multi_chain(parts: Sequence[ChainParts]) -> Nfa:
    """The one automaton of ``parts``: several chains merge by sharing the
    seed's state and F, and one chain is its own automaton, unrenamed."""
    if not parts:
        raise BuildError("no chains to merge")
    if len(parts) == 1:
        return parts[0].nfa()
    window = parts[0].window
    if any(p.window != window for p in parts):
        raise BuildError("merged chains must share one window")
    states = ["q1"]
    mappings = []
    for bi, p in enumerate(parts):
        mapping = {0: 0}
        for sid in range(1, len(p.states) - 1):
            mapping[sid] = len(states)
            states.append(f"{p.states[sid]}.{bi + 1}")
        mappings.append(mapping)
    states.append("F")

    edges, work = [], {}
    for bi, (p, mapping) in enumerate(zip(parts, mappings)):
        mapping[len(p.states) - 1] = len(states) - 1
        mapping[None] = None  # an eager completion that emits
        edges += [replace(tp, src=mapping[tp.src], dst=mapping[tp.dst],
                          branch=bi) for tp in p.edges]
        for sid, w in p.work.items():
            if w.complete is not None:
                w = replace(w, complete=replace(
                    w.complete, tail_start=mapping[w.complete.tail_start]))
            work[mapping[sid]] = w
    return Nfa(states=tuple(states), edges=tuple(edges), window=window,
               chains=tuple(p.chain for p in parts), work=work)


def binds_last(roles: frozenset, role: str, bound) -> bool:
    """Whether the take that binds ``role`` after the roles in ``bound``
    binds the last of ``roles``. A condition over ``roles`` runs on that
    take: every builder places its atoms, and first-chance checks, by this
    rule."""
    return role in roles and roles <= {role, *bound}


def neg_check(chain: ChainPattern, spec: NegSpec) -> NegSpec:
    """The runtime check of ``spec``: its neighbour sets cut to the nearest
    roles (:meth:`ChainPattern.nearest`)."""
    prec, succ = chain.nearest(spec.prec_roles, spec.succ_roles)
    return replace(spec, prec_roles=prec, succ_roles=succ)


def negative_tail(chain: ChainPattern, negs) -> tuple:
    """The negative tail over ``chain``'s ``negs``, in check order: its
    post-processing checks, or the first-chance ones that need the whole
    match.

    Returns the tail's states, none without ``negs`` and else one, named
    for the negated types, and the checks of its :attr:`StateWork.tail`,
    each made by :func:`neg_check`. An instance enters the tail's state and
    scans every check there; it then waits there if some check has no
    successor roles, and emits at once otherwise (the state's
    :attr:`StatePlan.kill_map`).
    """
    if not negs:
        return (), ()
    name = "r_" + "_".join(spec.etype for spec in negs)
    return (name,), tuple(neg_check(chain, spec) for spec in negs)


def _searched_types(plans: tuple) -> frozenset:
    """The types that some search in ``plans`` reads: entry takes, Kleene
    pools read on arrival, and every absence check (first-chance and
    negative-tail)."""
    types = set()
    for plan in plans:
        types.update(tp.etype for tp in plan.entry_takes)
        types.update(tp.etype for tps in plan.stream_takes.values()
                     for tp in tps if tp.kleene is not None)
        types.update(chk.etype for chk in (*plan.fc_checks, *plan.tail))
    return frozenset(types)


def _compile_plans(nfa: Nfa) -> tuple:
    takes_by_src: dict = defaultdict(list)
    for tp in nfa.edges:
        if tp.dst == nfa.accepting:
            tp = replace(tp, emits=True)
        takes_by_src[tp.src].append(tp)
    plans = []
    for sid in range(len(nfa.states)):
        entry, stream = [], defaultdict(list)
        for tp in takes_by_src.get(sid, ()):
            # An arrival is newer than every bound event, so only a take
            # with no bound successor can take it.
            if not tp.succ_roles:
                stream[tp.etype].append(tp)
            # The seed is never entered.
            if tp.search and sid != 0:
                entry.append(tp)
        work = nfa.work.get(sid, StateWork())
        # ``neg_check`` never empties a non-empty neighbour set, so a tail
        # check has no positive event after it exactly when it has no
        # ``succ_roles``.
        kill: dict = defaultdict(list)
        for chk in work.tail:
            if not chk.succ_roles:
                kill[chk.etype].append(chk)
        plans.append(StatePlan(
            entry_takes=tuple(entry),
            stream_takes={t: tuple(v) for t, v in stream.items()},
            fc_checks=work.fc_checks,
            complete=work.complete,
            tail=work.tail,
            kill_map={t: tuple(v) for t, v in kill.items()},
        ))
    return tuple(plans)


def detection_order(m) -> tuple:
    """The general sort key of one step's matches: the detection time, then
    the match key."""
    return (m.detection_ts, m.key())


def _drain_key(chains: tuple):
    """A sort key that orders an automaton's matches as
    :func:`detection_order` does.

    When every chain binds the same roles to the same types, each
    iterated or not alike, every match has that one signature: roles and
    types then compare equal. ``Runtime.step`` keeps ``seq`` increasing
    with ``ts``, so ``seq`` orders a stream's events as ``(ts, seq)`` does.
    The key then keeps only the detection time and, per role in role order,
    the ``seq`` of its event or the tuple of its members' ``seq``.
    """
    signatures = {tuple(sorted(
        (role, etype, c.iterated is not None and role == c.iterated.role)
        for role, etype in c.positives)) for c in chains}
    if len(signatures) != 1:
        return detection_order
    roles = tuple((role, iterated) for role, _, iterated in signatures.pop())

    def key(m) -> tuple:
        binding = m.binding
        out = [m.detection_ts]
        for role, iterated in roles:
            bound = binding[role]
            # tuple([...]), not tuple(map(...)), which raised the traced
            # peak memory of a Kleene benchmark replay by 2.4 KiB.
            out.append(tuple([e.seq for e in bound]) if iterated
                       else bound.seq)
        return tuple(out)

    return key


def _emits_in_order(nfa: Nfa) -> bool:
    """Whether every step's matches leave the plan in
    :func:`detection_order`, so that no sort is needed.

    It holds for one branch with no tail state, no first-chance check and
    no eager completion, whose one stream take is a plain take of the
    seed's state, where each state has at most one entry take, and whose
    entry takes, followed from that take's destination, bind roles in
    ascending role-name order. Then only the seed acts on an arrival: the
    arrival is the newest event of every match of the step, which all
    share its time, and the nested searches, each ascending by key (a
    Kleene take's subsets too, see :func:`cep.buffer.iterate_fetch`), emit
    the matches in the order of their keys, sorted by role.
    """
    plans = nfa.plans
    if len(nfa.chains) != 1:
        return False
    for plan in plans:
        if (plan.tail or plan.fc_checks or plan.complete
                or len(plan.entry_takes) > 1):
            return False
    stream = [(sid, tp) for sid, plan in enumerate(plans)
              for tps in plan.stream_takes.values() for tp in tps]
    if len(stream) != 1:
        return False
    ((sid, tp),) = stream
    if sid != 0 or tp.iterate is not None:
        return False
    role, sid = None, tp.dst
    while plans[sid].entry_takes:
        (tp,) = plans[sid].entry_takes
        if role is not None and tp.role <= role:
            return False
        role, sid = tp.role, tp.dst
    return True


def validate_nfa(nfa: Nfa) -> None:
    """Structural invariant: every state reaches F, the last state.

    Reachability follows what the plan executes: take destinations, F from
    a tail state (an instance there either emits or is retired), and from
    an eager completion its hand-off to the tail, or F, where it emits.
    """
    into: dict = defaultdict(set)  # state -> states that lead to it
    for sid, plan in enumerate(nfa.plans):
        nxt = {tp.dst for tp in plan.entry_takes}
        nxt.update(tp.dst for tps in plan.stream_takes.values() for tp in tps)
        if plan.tail:
            nxt.add(nfa.accepting)
        c = plan.complete
        if c is not None:
            nxt.add(nfa.accepting if c.tail_start is None else c.tail_start)
        for dst in nxt:
            into[dst].add(sid)
    seen, stack = set(), [nfa.accepting]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack.extend(into[x])
    stuck = [name for sid, name in enumerate(nfa.states) if sid not in seen]
    if stuck:
        raise BuildError(
            f"no path to the accepting state from {', '.join(stuck)}")
