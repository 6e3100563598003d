"""Randomized differential testing: oracle vs eager vs every lazy variant.

Each case draws a random pattern (sequence/conjunction/partial nesting, up
to two negations, iteration, disjunction, predicates) with its window; a
negation in an alternative of a disjunction sometimes negates a type that
another alternative binds. WHERE atoms compare plain, arithmetic, boolean
and aggregate expressions, and correlations of the events' ``h`` histories
with a threshold of either sign. A short random stream follows, whose gaps
sometimes fall on the window's edge, or a burst of the pattern's types in
turn. Every applicable evaluation mode must produce exactly the oracle's
match multiset. Every mode runs in a ``PairedRuntime`` (the shadow-buffer
check) and must emit each step's matches in ``(detection_ts, key)`` order,
whether the runtime sorted them or the plan emitted them so
(``Nfa.drain_key`` is None); a ``ShadowMismatch`` or a misordered step is
a divergence too. On divergence the stream is greedily shrunk before
reporting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .engine import apply_group_by, compile_pattern
from .events import Event
from .nfa import BuildError
from .oracle import enumerate_matches_chains
from .patterns import parse_pattern, render_chain, to_dnf
from .runtime import PairedRuntime, ShadowMismatch, match_key

TYPE_POOL = ["A", "B", "C", "D", "E"]
NOISE_TYPE = "Z"


@dataclass
class Divergence:
    pattern: str
    chains: list  # the pattern's DNF chains, as the modes ran them
    events: list
    mode: str
    orders: Optional[list]
    expected: list
    got: list

    def describe(self) -> str:
        lines = [
            f"mode: {self.mode}",
            f"orders: {self.orders}",
            f"pattern:\n{self.pattern}",
            f"chains ({len(self.chains)}):",
        ]
        for chain in self.chains:
            lines.extend(f"  {line}" for line in render_chain(chain).splitlines())
        lines.append("events:")
        for e in self.events:
            lines.append(f"  {e.etype}@{e.ts}#{e.seq} {dict(e.attrs)}")
        lines.append(f"expected ({len(self.expected)}):")
        lines.extend(f"  {k}" for k in self.expected)
        lines.append(f"got ({len(self.got)}):")
        lines.extend(f"  {k}" for k in self.got)
        return "\n".join(lines)


def random_pattern(rng: random.Random) -> str:
    n_pos = rng.randint(1, 4)
    types = TYPE_POOL[:n_pos]
    roles = [t.lower() for t in types]
    items = [f"{t} {r}" for t, r in zip(types, roles)]
    iter_role = None
    if rng.random() < 0.35:
        k = rng.randrange(n_pos)
        iter_role = roles[k]
        if rng.random() < 0.5:
            lo = rng.randint(1, 2)
            hi = rng.randint(lo, 3)
            items[k] = f"{types[k]}{{{lo},{hi}}} {iter_role}[]"
        else:
            items[k] = f"{types[k]}+ {iter_role}[]"
    groups = list(items)
    neg_roles = []
    if rng.random() < 0.45:
        neg_type = TYPE_POOL[n_pos] if n_pos < len(TYPE_POOL) else "Y"
        neg_roles.append(("h", neg_type))
        neg_at = rng.randint(0, len(items))
        items.insert(neg_at, f"NOT({neg_type} h)")
        # Under an OR the negation joins its neighbour, so that no
        # alternative is a negation alone.
        j = min(neg_at, n_pos - 1)
        groups[j] = ", ".join(items[j : j + 2])
    if rng.random() < 0.5:
        # A second negation, so that a negative tail may hold two checks;
        # the disjunctions, built from the groups, leave it out.
        items.insert(rng.randint(0, len(items)), "NOT(X g)")

    def alternative(gs: list) -> str:
        if len(gs) == 1 and "NOT" not in gs[0]:
            return gs[0]
        return "SEQ(" + ", ".join(gs) + ")"

    def negate_another(others: list) -> None:
        # The negation in group j sometimes negates a type that another
        # alternative binds.
        if rng.random() < 0.5:
            groups[j] = groups[j].replace(f"NOT({neg_type} ",
                                          f"NOT({rng.choice(others)} ")

    # Roles usable in WHERE must appear in every DNF alternative.
    common_roles = list(roles)
    structure = rng.choice(["seq", "and", "mix", "or", "or-mid"])
    if structure == "and":
        body = "AND(" + ", ".join(items) + ")"
    elif structure == "mix" and len(items) >= 3:
        cut = rng.randint(1, len(items) - 2)
        inner = "SEQ(" + ", ".join(items[: cut + 1]) + ")"
        rest = items[cut + 1 :]
        body = "AND(" + ", ".join([inner] + rest) + ")"
    elif structure == "or" and n_pos >= 2:
        cut = max(1, n_pos // 2)
        if neg_roles:
            negate_another(types[cut:] if j < cut else types[:cut])
        body = f"OR({alternative(groups[:cut])}, {alternative(groups[cut:])})"
        common_roles = neg_roles = []
        iter_role = None  # may sit in one branch only
    elif structure == "or-mid" and n_pos >= 4:
        if neg_roles and 0 < j < n_pos - 1:
            negate_another(types[1:j] + types[j + 1 : -1])
            neg_roles = []  # in one alternative only: no atom names h
        alts = ", ".join(alternative([g]) for g in groups[1:-1])
        body = f"SEQ({groups[0]}, OR({alts}), {groups[-1]})"
        first_role = roles[0] if "[" not in groups[0] else None
        last_role = roles[-1] if "[" not in groups[-1] else None
        common_roles = [r for r in (first_role, last_role) if r]
        if iter_role in set(roles[1:-1]):
            iter_role = None
    else:
        body = "SEQ(" + ", ".join(items) + ")"
    if "NOT(X g)" in body:
        neg_roles.append(("g", "X"))

    atoms = []
    cmp_ops = ["<", "<=", ">", ">=", "=", "!="]

    def corr(p: str, q: str) -> str:
        # The literal on either side, with a threshold of either sign: the
        # covariance's sign decides some of these comparisons, not others.
        op, k = rng.choice(cmp_ops), rng.choice(["-0.5", "0", "0.5"])
        c = f"corr({p}.h, {q}.h)"
        return rng.choice([f"{c} {op} {k}", f"{k} {op} {c}"])

    plain_roles = [r for r in common_roles if r != iter_role]
    for _ in range(rng.randint(0, 2)):
        if not plain_roles:
            break
        r = rng.choice(plain_roles)
        r2 = rng.choice([x for x in plain_roles if x != r] or [r])
        op, k = rng.choice(cmp_ops), rng.randint(0, 3)
        # Plain, arithmetic and boolean atoms. Only literals divide: a zero
        # divisor is a stream error in the engine and the oracle alike.
        atoms.append(rng.choice([
            f"{r}.x {op} {r2}.x", f"{r}.x {op} {k}",
            f"({r}.x + {r2}.x) {op} {k}", f"{r}.x * 2 {op} {r2}.x",
            f"{r}.x - {r2}.x {op} 1", f"{r}.x / 2 {op} {k}",
            f"not ({r}.x = {r2}.x)", f"({r}.x > {k} or {r2}.x < {k})",
            corr(r, r2)]))
    if iter_role is not None and iter_role in common_roles and rng.random() < 0.6:
        r = iter_role
        op, k = rng.choice(cmp_ops), rng.randint(0, 3)
        member = [f"{r}[i].x >= {rng.randint(0, 2)}",
                  f"not ({r}[i].x * 2 = {k})"]
        if plain_roles:
            p = rng.choice(plain_roles)
            member += [f"{r}[i].x {op} {p}.x", f"{r}[i].x + 1 {op} {p}.x"]
        pair = [f"{r}[i].x = {r}[i-1].x", f"{r}[i].x >= {r}[i-1].x"]
        whole = [f"avg({r}[i].x) <= {rng.randint(1, 3)}",
                 f"count({r}[i].x) <= 2",
                 f"{rng.choice(['min', 'max', 'sum'])}({r}[i].x) {op} {k}"]
        if rng.random() < 0.5:
            atoms.append(rng.choice(member + pair + whole))
        else:
            # A member-wise atom alongside a pair atom or an aggregate, in
            # either order: the engine splits them, the oracle does not.
            both = [rng.choice(member), rng.choice(pair + whole)]
            rng.shuffle(both)
            atoms.extend(both)
    for h, _ in neg_roles:
        if rng.random() < 0.7 and plain_roles:
            op, p = rng.choice(cmp_ops), rng.choice(plain_roles)
            atoms.append(rng.choice([f"{h}.x {op} {p}.x",
                                     f"({h}.x + {p}.x) / 2 {op} 1",
                                     corr(h, p)]))

    where = ""
    if atoms:
        where = "\nWHERE skip_till_any_match { " + " and ".join(atoms) + " }"
    window = rng.choice([3, 5, 8, 12, 20])
    return f"PATTERN {body}{where}\nWITHIN {window} msec"


def random_stream(rng: random.Random, pattern_types, max_events: int,
                  window: Optional[int] = None) -> list:
    """Up to ``max_events`` events; with a ``window``, some gaps fall on
    its edge (one less than, equal to and one more than the window).

    Three in ten streams over two or more types are bursts instead: each
    pattern type in turn, 1-3 times, 0 or 1 ms apart, so that one window
    holds several events of each type a search reads. Each event has a
    number ``x`` and a history ``h`` of three points from a small value
    set, so that correlations of both signs, of 0 and of zero variance all
    occur."""
    n = rng.randint(0, max_events)
    pool = list(pattern_types) + [NOISE_TYPE]
    gaps = [0, 0, 1, 1, 2, 3]
    if window is not None:
        gaps += [window - 1, window, window + 1]
    burst = []
    if len(pattern_types) > 1 and rng.random() < 0.3:
        gaps = [0, 1]
        while len(burst) < n:
            for t in pattern_types:
                burst += [t] * rng.randint(1, 3)
    events = []
    ts = 0
    for seq in range(n):
        ts += rng.choice(gaps)
        etype = burst[seq] if burst else rng.choice(pool)
        h = tuple(float(rng.randint(0, 2)) for _ in range(3))
        events.append(Event(etype, ts, seq, {"x": float(rng.randint(0, 3)),
                                             "h": h}))
    return events


@dataclass
class CaseResult:
    divergence: Optional[Divergence] = None
    modes_run: int = 0  # automata run; an equal one is run once


def run_case(rng: random.Random, max_events: int = 25) -> CaseResult:
    text = random_pattern(rng)
    chains = to_dnf(parse_pattern(text))
    iter_roles = {c.iterated.role for c in chains if c.iterated is not None}
    if (len(iter_roles) == 1 and all(c.iterated is not None for c in chains)
            and rng.random() < 0.4):
        chains = apply_group_by(chains, next(iter(iter_roles)), "x")
    types = sorted({t for c in chains for t in c.types.values()})
    events = random_stream(rng, types, max_events, chains[0].window)
    expected = [match_key(b) for b in
                enumerate_matches_chains(chains, events, cap=max_events + 1)]

    perm = sorted({t for c in chains for _, t in c.positives})
    rng.shuffle(perm)
    orders = [[t for t in perm if t in {ty for _, ty in c.positives}]
              for c in chains]

    result = CaseResult()
    ran: list = []
    for mode, mode_orders in [("eager", None), ("lazy-pp", orders),
                              ("lazy-fc", orders)]:
        try:
            (nfa,) = compile_pattern(chains, mode, orders=mode_orders)
        except BuildError:
            if mode == "lazy-fc":
                continue  # first-chance negation refuses a trailing one
            raise
        # Automata are equal when their states, takes, window, chains and
        # per-state work are: lazy-fc without negations builds lazy-pp's
        # automaton, which runs once.
        if nfa in ran:
            continue
        ran.append(nfa)
        got = _run_mode(nfa, events)
        result.modes_run += 1
        if got != expected:
            shrunk = _shrink(chains, nfa, events, cap=max_events + 1)
            result.divergence = Divergence(
                pattern=text, chains=chains, events=shrunk[0], mode=mode,
                orders=mode_orders, expected=shrunk[1], got=shrunk[2])
            return result
    return result


def _run_mode(nfa, events):
    """The sorted match keys of ``nfa`` over ``events``, run paired.

    A ``ShadowMismatch``, or a step or flush whose matches are not sorted
    by ``(detection_ts, key)``, comes back as a one-line failure instead,
    which no oracle result equals.
    """
    runtime = PairedRuntime(nfa)

    def outputs():
        for e in events:
            yield runtime.step(e)
        yield runtime.flush()

    got = []
    try:
        for out in outputs():
            keys = [(m.detection_ts, m.key()) for m in out]
            if keys != sorted(keys):
                return [f"matches emitted out of order: {keys}"]
            got += [k for _, k in keys]
    except ShadowMismatch as exc:
        return [f"ShadowMismatch: {exc}"]
    return sorted(got)


def _shrink(chains, nfa, events, cap: int):
    """Greedy event removal keeping ``nfa``'s divergence alive."""
    def expected_fn(evs):
        return [match_key(b) for b in
                enumerate_matches_chains(chains, evs, cap=cap)]

    current = list(events)
    expected = expected_fn(current)
    got = _run_mode(nfa, current)
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            trial = current[:i] + current[i + 1 :]
            exp = expected_fn(trial)
            try:
                g = _run_mode(nfa, trial)
            except Exception:
                continue
            if g != exp:
                current, expected, got = trial, exp, g
                changed = True
                break
    return current, expected, got


def run_suite(cases: int, seed: int, max_events: int = 25,
              progress=None) -> Optional[Divergence]:
    rng = random.Random(seed)
    for i in range(cases):
        result = run_case(rng, max_events)
        if result.divergence is not None:
            return result.divergence
        if progress is not None and (i + 1) % 100 == 0:
            progress(i + 1)
    return None
