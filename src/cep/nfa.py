"""Automaton data model shared by the eager and lazy builders.

An :class:`Nfa` is the immutable compilation artifact: states, edges with
actions and ordering filters, plus per-branch metadata the runtime needs to
schedule negation checks and iteration gates. ``Runtime`` (in
:mod:`cep.runtime`) compiles it into dispatch tables and executes streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .events import SEARCH_FAILED, TIMEOUT
from .patterns import ChainPattern

TAKE = "take"
IGNORE = "ignore"
STORE = "store"
ITERATE = "iterate"

CHAIN = "chain"
NEG = "neg"
ACCEPT = "accept"
REJECT = "reject"


class BuildError(ValueError):
    """A pattern cannot be compiled by the requested builder."""


@dataclass(frozen=True)
class State:
    sid: int
    kind: str  # chain | neg | accept | reject
    name: str
    branch: Optional[int] = None


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    action: str  # take | ignore | store | iterate
    types: frozenset  # event types (or the synthetic TIMEOUT / SEARCH_FAILED)
    cond: tuple = ()  # compiled predicate atoms evaluated on traversal
    prec: frozenset = frozenset()  # ordering filter: types that must precede
    succ: frozenset = frozenset()  # ordering filter: types that must succeed
    role: Optional[str] = None  # role bound by take/iterate
    bounds: Optional[tuple] = None  # (lo, hi) for iterate; hi None = unbounded
    group_by: Optional[str] = None  # attribute for group-constrained iteration
    branch: Optional[int] = None  # owning chain in a merged automaton


@dataclass(frozen=True)
class Branch:
    """Per-chain metadata: the source chain and its completion pipeline."""

    chain: ChainPattern
    # PP-style negation tail: (state id, check, waits_for_timeout) in order.
    tail: tuple = ()
    # First-chance checks keyed by the state at whose entry they run.
    fc_checks: dict = field(default_factory=dict)
    # State at which all positive roles are bound (eager lattice only).
    complete_state: Optional[int] = None
    # Gates applied at completion (eager): (lo, hi, iterated atoms).
    eager_gates: Optional[tuple] = None

    @property
    def role_of_type(self) -> dict:
        return {t: r for r, t in self.chain.types.items()}


@dataclass(frozen=True)
class Nfa:
    label: str  # eager | lazy | lazy-pp | lazy-fc | multi
    states: tuple
    edges: tuple
    initial: int
    accepting: int
    rejecting: int
    window: int
    branches: tuple

    @property
    def storable(self) -> frozenset:
        """Union of all store-edge types; the shared buffer stores exactly these."""
        out = set()
        for e in self.edges:
            if e.action == STORE:
                out |= e.types
        return frozenset(out)

    def state(self, sid: int) -> State:
        return self.states[sid]


def validate_nfa(nfa: Nfa) -> None:
    """Structural invariants: unique F/R, every non-final state reaches F."""
    kinds = [s.kind for s in nfa.states]
    if kinds.count(ACCEPT) != 1 or kinds.count(REJECT) != 1:
        raise BuildError("an automaton needs exactly one accepting and one rejecting state")
    if nfa.states[nfa.accepting].kind != ACCEPT or nfa.states[nfa.rejecting].kind != REJECT:
        raise BuildError("accepting/rejecting ids out of sync with state kinds")
    # Forward reachability of F over non-rejecting transitions.
    fwd: dict = {s.sid: set() for s in nfa.states}
    for e in nfa.edges:
        if e.dst != nfa.rejecting and e.src != e.dst:
            fwd[e.src].add(e.dst)
    for s in nfa.states:
        if s.kind in (ACCEPT, REJECT):
            continue
        seen, stack = set(), [s.sid]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(fwd[x])
        if nfa.accepting not in seen:
            raise BuildError(f"state {s.name} has no path to the accepting state")


def timeout_edge(src: int, dst: int) -> Edge:
    return Edge(src=src, dst=dst, action=IGNORE, types=frozenset({TIMEOUT}))


def search_failed_edge(src: int, dst: int) -> Edge:
    return Edge(src=src, dst=dst, action=IGNORE, types=frozenset({SEARCH_FAILED}))
