"""Non-deterministic automaton executor over timestamped event streams.

One Runtime drives one automaton over one stream, single-threaded, in
arrival order. Instances are persistent partial matches: a take never moves
an instance, it spawns an extended clone, so every event may participate in
any number of matches. Window expiry is driven by stream time: before an
event at time T is processed, every instance whose window closed strictly
before T receives a synthetic timeout. Buffered events are dropped lazily:
a step that may search (some state listens to T's event type) first drops
every event more than one window behind T; a step that only stores drops
them once the oldest is more than two windows behind, which bounds the
buffer by the window; flush catches up to the last step. Nothing else tests
the window: every live instance starts at or after T minus the window,
every instance entered while T is processed binds the event at T, and
whenever a search runs the buffer holds nothing older than T minus the
window, so whatever a search combines fits.

Every new instance is entered once (:meth:`Runtime._enter`): its entry
runs, and it is then registered where it ended up if some arrival acts on
it there, or retired if not. A registered instance's state never changes,
and only registered instances are on the timeout heap.

The automaton carries its executable plan (:mod:`cep.nfa`): a Runtime only
references those tables, compiles nothing, and never reads the automaton's
edges or branches.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Iterable, NamedTuple, Optional

from . import nfa as N
from .buffer import InputBuffer, iterate_fetch
from .events import Event, StreamDataError
from .metrics import Metrics
from .patterns import NegSpec
from .predicates import eval_atoms

NEG_INF = float("-inf")


class Match(NamedTuple):
    binding: dict  # role -> Event | tuple[Event, ...]
    detection_ts: int
    branch: int

    def key(self) -> tuple:
        return match_key(self.binding)


def match_key(binding: dict) -> tuple:
    return tuple([
        (role, tuple([(e.etype, e.ts, e.seq) for e in bound])
         if type(bound) is tuple else ((bound.etype, bound.ts, bound.seq),))
        for role, bound in sorted(binding.items())])


def match_line(m: Match) -> str:
    parts = []
    for role in sorted(m.binding):
        bound = m.binding[role]
        members = bound if isinstance(bound, tuple) else (bound,)
        parts.append(f"{role}=" + "+".join(str(e) for e in members))
    return "; ".join(parts)


class ShadowMismatch(AssertionError):
    """A buffer search diverged from the arrival log, a spawn spans more
    than the window, or a batch stamped at the instance's newest key binds
    a newer event (paired mode)."""


class Instance:
    __slots__ = ("iid", "sid", "branch", "binding", "anchor", "maxkey",
                 "floor", "alive")

    def __init__(self, iid, sid, branch, binding, anchor, maxkey, floor):
        self.iid = iid
        self.sid = sid
        self.branch = branch
        self.binding = binding
        self.anchor = anchor  # min bound ts; None for the seed
        self.maxkey = maxkey  # max bound (ts, seq); None for the seed
        # A match ending at or before ``floor`` has a window that reaches
        # back to a negated event found by a first-chance scan; NEG_INF
        # while no scan found one.
        self.floor = floor
        self.alive = True


class Runtime:
    """Single-threaded executor; feed events in arrival order, then flush."""

    def __init__(self, nfa: N.Nfa):
        self.nfa = nfa
        self.window = nfa.window
        self.metrics = Metrics()
        self.plans = nfa.plans
        self.storable = nfa.storable
        self.type_interest = nfa.type_interest
        self.buffer = InputBuffer()
        # The registered instances, by state: only the states that some
        # arrival acts on hold any.
        self.by_state = {sid: {} for sid in nfa.acted_on}
        self._registered = 0
        self.heap: list = []  # (deadline, iid, sid) of registered instances
        self._next_iid = 0
        self._pending: list = []
        self._last_key = None
        self._entering = 0  # instances whose entry is running
        self.seed = self._new_instance(None, 0, None, {}, None, None)
        self._register(self.seed)

    # -- instance bookkeeping ------------------------------------------------

    def _count_new(self, n: int = 1) -> int:
        """Number ``n`` new instances; count their creation and the live
        peak. Returns the first number.

        The peak counts a new instance with the registered instances and
        those whose entry is running. ``n`` > 1 only numbers bare clones,
        each retired before the next exists: each counts alone.
        """
        iid = self._next_iid
        self._next_iid = iid + n
        metrics = self.metrics
        metrics.instance_create += n
        live = self._registered + self._entering + 1
        if live > metrics.peak_live_instances:
            metrics.peak_live_instances = live
        return iid

    def _new_instance(self, parent: Optional[Instance], sid, branch, binding,
                      anchor, maxkey) -> Instance:
        floor = NEG_INF if parent is None else parent.floor
        return Instance(self._count_new(), sid, branch, binding, anchor,
                        maxkey, floor)

    def _enter(self, inst: Instance) -> None:
        """Run ``inst``'s entry, then register it if it is alive in a state
        that some arrival acts on, and retire it if it is alive elsewhere:
        nothing could act on it there."""
        self._entering += 1
        try:
            self._entry(inst)
        finally:
            self._entering -= 1
        if inst.alive:
            if inst.sid in self.by_state:
                self._register(inst)
            else:
                self._retire(inst)

    def _register(self, inst: Instance) -> None:
        self.by_state[inst.sid][inst.iid] = inst
        self._registered += 1
        if inst.anchor is not None:
            heapq.heappush(self.heap,
                           (inst.anchor + self.window, inst.iid, inst.sid))

    def _retire(self, inst: Instance) -> None:
        inst.alive = False
        # An instance retired by its own entry was never registered.
        insts = self.by_state.get(inst.sid)
        if insts is not None and insts.pop(inst.iid, None) is not None:
            self._registered -= 1
        self.metrics.instance_retire += 1

    def _emit(self, inst: Instance, detection_ts: int,
              keep: bool = False) -> None:
        """Emit ``inst``'s match and retire it; the match takes its binding.

        ``keep``: the instance stays live (it may still grow), so the match
        gets a copy of the binding instead.
        """
        binding = dict(inst.binding) if keep else inst.binding
        self._pending.append(Match(binding, detection_ts, inst.branch))
        self.metrics.matches += 1
        if not keep:
            self._retire(inst)

    # -- stream driving ------------------------------------------------------

    def step(self, e: Event) -> list:
        key = e.key
        ts, seq = key
        last = self._last_key
        if last is not None and (key <= last or seq <= last[1]):
            raise StreamDataError(f"stream out of order at {e}")
        self._last_key = key
        metrics = self.metrics
        metrics.events_processed += 1
        if self._pending:
            self._pending = []  # left over from a step that raised
        if self.heap and self.heap[0][0] < ts:
            self._fire_timeouts(ts)
        etype = e.etype
        sids = self.type_interest.get(etype)
        buffer = self.buffer
        oldest = buffer.oldest_ts
        if oldest is not None:
            # Expire before a step that may search, so that every search
            # sees one window; otherwise only once the oldest event is two
            # windows behind, which bounds the buffer by the window.
            watermark = ts - self.window
            if watermark > oldest and (sids is not None
                                       or watermark - self.window > oldest):
                metrics.buffer_remove += buffer.expire(watermark)
        if etype in self.storable:
            buffer.store(e)
            metrics.buffer_insert += 1
        if sids is None:
            # No state listens to this type: storing it was all the work.
            return self._drain() if self._pending else []
        # Snapshot before dispatch: instances spawned while this event is
        # being processed must not observe the event themselves.
        targets = []
        for sid in sids:
            insts = self.by_state[sid]
            if insts:
                targets.extend(insts.values())
        for inst in targets:
            if inst.alive:
                self._on_arrival(inst, e)
        return self._drain()

    def flush(self) -> list:
        self._pending = []
        if self._last_key is not None:
            # Catch expiry up to the last step's watermark.
            self.metrics.buffer_remove += self.buffer.expire(
                self._last_key[0] - self.window)
        self._fire_timeouts(None)
        return self._drain()

    def _drain(self) -> list:
        out = self._pending
        self._pending = []
        key = self.nfa.drain_key
        if key is not None and len(out) > 1:
            out.sort(key=key)
        return out

    def _fire_timeouts(self, now_ts: Optional[int]) -> None:
        while self.heap and (now_ts is None or self.heap[0][0] < now_ts):
            deadline, iid, sid = heapq.heappop(self.heap)
            inst = self.by_state[sid].get(iid)
            if inst is None:
                continue
            plan = self.plans[inst.sid]
            if plan.neg is not None:
                # All pending absence checks were already verified against
                # the buffer on entry to the tail and against every arrival
                # since; window expiry certifies the remaining ones.
                self._emit(inst, deadline)
            else:
                self._retire(inst)

    # -- arrivals ------------------------------------------------------------

    def _on_arrival(self, inst: Instance, e: Event) -> None:
        plan = self.plans[inst.sid]
        if plan.neg is not None:
            for chk in plan.neg.kill_map.get(e.etype, ()):
                if self._cond_ok(inst, chk, e):
                    self._retire(inst)
                    return
            return
        for tp in plan.stream_takes.get(e.etype, ()):
            self._stream_take(inst, tp, e)

    def _stream_take(self, inst: Instance, tp: N.Take, e: Event) -> None:
        if tp.append:
            members = inst.binding.get(tp.role, ())
            lo, hi, group = tp.iterate
            if hi is not None and len(members) >= hi:
                return
            if group is not None and members and e.attr(group) != members[0].attr(group):
                return
            self._spawn(inst, tp, members + (e,))
            return
        if tp.iterate is not None:
            self._iterate_candidates(inst, tp, new_event=e)
            return
        if tp.req_iter_min is not None:
            role, lo = tp.req_iter_min
            if len(inst.binding[role]) < lo:
                return
        if tp.cond:
            binding = dict(inst.binding)
            binding[tp.role] = e
            if not eval_atoms(tp.cond, binding, self.metrics):
                return
        self._spawn(inst, tp, e)

    # -- buffer searches -----------------------------------------------------

    def _entry(self, inst: Instance) -> None:
        plan = self.plans[inst.sid]
        if plan.neg is not None:
            self._tail_entry(inst, plan.neg)
            return
        for chk in plan.fc_checks:
            if self._fc_scan(inst, chk):
                return
        if plan.complete is not None and self._complete(inst, plan.complete):
            return
        for tp in plan.entry_takes:
            if tp.iterate is not None:
                self._iterate_candidates(inst, tp, new_event=None)
            else:
                for x in self._candidates(inst, tp):
                    self._spawn(inst, tp, x)

    def _query(self, inst: Instance, chk) -> list:
        """Every buffer search, one ``buffer_search`` each: the events of
        ``chk``'s type (a Take's or a NegSpec's) between the ordering
        bounds that ``inst``'s binding sets for it."""
        self.metrics.buffer_search += 1
        return self.buffer.query(chk.etype,
                                 self._lower_bound(inst, chk.prec_roles),
                                 self._upper_bound(inst, chk.succ_roles))

    def _candidates(self, inst: Instance, chk):
        """Lazily yield the buffered events that ``chk`` may bind in ``inst``.

        A candidate is yielded once it satisfies ``chk``'s condition, so a
        caller that stops at the first evaluates no more.
        """
        cands = self._query(inst, chk)
        if not chk.cond:
            yield from cands
            return
        # One scratch binding per search; _spawn copies the instance's own.
        scratch = dict(inst.binding)
        for x in cands:
            scratch[chk.role] = x
            if eval_atoms(chk.cond, scratch, self.metrics):
                yield x

    def _iterate_candidates(self, inst: Instance, tp: N.Take,
                            new_event: Optional[Event]) -> None:
        lo, hi, group = tp.iterate
        pool = self._query(inst, tp)
        found = iterate_fetch(pool, (lo, hi), group_attr=group,
                              new_event=new_event, condition=tp.kleene,
                              bound_roles=inst.binding, role=tp.role,
                              counter=self.metrics)
        if tp.emits:
            self._emit_bare(inst, tp, found)
            return
        for members in found:
            self._spawn(inst, tp, members)

    def _spawn(self, inst: Instance, tp: N.Take, bound) -> None:
        if tp.emits:
            self._emit_bare(inst, tp, (bound,))
            return
        binding = dict(inst.binding)
        binding[tp.role] = bound
        # Member tuples are ascending by key: the ends are the extremes.
        if type(bound) is tuple:
            lo_ts, hi_key = bound[0].ts, bound[-1].key
        else:
            lo_ts, hi_key = bound.ts, bound.key
        anchor = lo_ts if inst.anchor is None else min(inst.anchor, lo_ts)
        maxkey = hi_key if inst.maxkey is None else max(inst.maxkey, hi_key)
        self._enter(self._new_instance(inst, tp.dst, tp.branch, binding,
                                       anchor, maxkey))

    def _emit_bare(self, inst: Instance, tp: N.Take, bounds) -> None:
        """Emit the match of every bound that an ``emits`` take found.

        The take enters F, where no instance is built: count each match's
        instance as created and retired, and emit the match unless the
        first-chance floor rules it out. No instance is registered or
        retired in between, so the batch is counted at once.

        A take with successor roles searched every bound below a bound
        role, so every match of the batch ends at ``inst.maxkey``: the batch
        is stamped, and tested against the floor, once.
        """
        n = len(bounds)
        if not n:
            return
        self._count_new(n)
        metrics = self.metrics
        metrics.instance_retire += n
        base, role, branch = inst.binding, tp.role, tp.branch
        floor, maxkey = inst.floor, inst.maxkey
        pending = self._pending
        if tp.succ_roles:
            ts = maxkey[0]
            if ts <= floor:
                return
            for bound in bounds:
                binding = base.copy()
                binding[role] = bound
                pending.append(Match(binding, ts, branch))
            metrics.matches += n
            return
        emitted = 0
        for bound in bounds:
            # Member tuples are ascending by key: the last is the newest.
            key = bound[-1].key if type(bound) is tuple else bound.key
            if maxkey is not None and maxkey > key:
                key = maxkey
            if key[0] <= floor:
                continue
            binding = base.copy()
            binding[role] = bound
            pending.append(Match(binding, key[0], branch))
            emitted += 1
        metrics.matches += emitted

    # -- completion and negation ----------------------------------------------

    def _complete(self, inst: Instance, c: N.Completion) -> bool:
        """Every positive role of ``inst`` is bound on an eager full
        roleset: gate, then emit or hand on. An instance that may grow
        stays and hands a copy to the tail's state; any other runs the
        tail's entry itself, and waits, if it does, in the tail's state.

        Returns True when ``inst`` is finished with here: retired, emitted,
        or handed to the negative tail.
        """
        role, lo, atoms = c.gate
        if len(inst.binding[role]) < lo or (
                atoms and not eval_atoms(atoms, inst.binding, self.metrics)):
            if c.grow:
                return False  # a later member may still pass
            self._retire(inst)
            return True
        if c.tail_start is None:
            self._emit(inst, inst.maxkey[0], keep=c.grow)
            return True
        if c.grow:
            self._enter(self._new_instance(inst, c.tail_start, inst.branch,
                                           dict(inst.binding), inst.anchor,
                                           inst.maxkey))
            return False
        self._tail_entry(inst, self.plans[c.tail_start].neg)
        return True

    def _tail_entry(self, inst: Instance, neg: N.NegPlan) -> None:
        # Scan the buffered candidates of every negated type now: this is
        # the only moment all of them are both complete (for types that
        # must precede a positive) and not yet expired.
        for chk in neg.checks:
            if self._neg_scan(inst, chk):
                return
        # A first-chance scan found a negated event that the match's window
        # reaches back to.
        if inst.maxkey[0] <= inst.floor:
            self._retire(inst)
            return
        if neg.wait is None:
            self._emit(inst, inst.maxkey[0])
        else:
            inst.sid = neg.wait  # an eager hand-off waits in the tail's state

    def _neg_scan(self, inst: Instance, chk: NegSpec) -> bool:
        """Buffered-candidate absence check; retires the instance on a hit."""
        for _ in self._candidates(inst, chk):
            self._retire(inst)
            return True
        return False

    def _fc_scan(self, inst: Instance, chk: NegSpec) -> bool:
        if chk.prec_roles:
            return self._neg_scan(inst, chk)
        # No event is required to precede the negated one, so whether a
        # candidate invalidates a match depends on the final extent of the
        # match window; carry the latest candidate, as the floor one window
        # after it, and decide where the match is emitted: on the take into
        # F, or in the negative tail. Only the latest satisfying
        # candidate matters, so the scan runs from the newest down to the
        # one found before and stops at the first one.
        cands = self._query(inst, chk)
        window = self.window
        found = inst.floor - window
        for x in reversed(cands):
            if x.ts <= found:
                break
            if self._cond_ok(inst, chk, x):
                inst.floor = x.ts + window
                break
        return False

    def _cond_ok(self, inst: Instance, chk: NegSpec, x: Event) -> bool:
        if not chk.cond:
            return True
        binding = dict(inst.binding)
        binding[chk.role] = x
        return eval_atoms(chk.cond, binding, self.metrics)

    # -- helpers ---------------------------------------------------------------

    def _lower_bound(self, inst: Instance, roles) -> Optional[tuple]:
        lower = None
        for r in roles:
            bound = inst.binding[r]
            key = bound[-1].key if type(bound) is tuple else bound.key
            if lower is None or key > lower:
                lower = key
        return lower

    def _upper_bound(self, inst: Instance, roles) -> Optional[tuple]:
        upper = None
        for r in roles:
            bound = inst.binding[r]
            key = bound[0].key if type(bound) is tuple else bound.key
            if upper is None or key < upper:
                upper = key
        return upper


class PairedRuntime(Runtime):
    """A :class:`Runtime` that holds its shared buffer to a reference.

    Test machinery (the shadow-buffer check). It logs every arrival that
    ``Runtime.step`` accepts, of every type. A buffer search that returns
    other events than the log holds of its type within the window and the
    search's ordering bounds, a spawn spanning more than the window, or an
    emitted bound of a take with successor roles that is not older than
    the instance's newest event, raises :class:`ShadowMismatch`. Matches
    and counters are unchanged.
    """

    def __init__(self, nfa: N.Nfa):
        super().__init__(nfa)
        self.log: dict = defaultdict(list)  # etype -> [Event, ...]

    def step(self, e: Event) -> list:
        # Logged before the step, whose searches may return e, and taken
        # back if the step rejects e as out of order.
        log = self.log[e.etype]
        log.append(e)
        processed = self.metrics.events_processed
        try:
            return super().step(e)
        finally:
            if self.metrics.events_processed == processed:
                log.pop()

    def _check_span(self, inst: Instance, tp: N.Take, bound) -> None:
        stamps = [x.ts for b in (*inst.binding.values(), bound)
                  for x in (b if type(b) is tuple else (b,))]
        span = max(stamps) - min(stamps)
        if span > self.window:
            raise ShadowMismatch(f"instance spawned in state {tp.dst} spans "
                                 f"{span} > window {self.window}")

    def _spawn(self, inst: Instance, tp: N.Take, bound) -> None:
        if not tp.emits:  # _emit_bare checks the bounds it is handed
            self._check_span(inst, tp, bound)
        super()._spawn(inst, tp, bound)

    def _emit_bare(self, inst: Instance, tp: N.Take, bounds) -> None:
        for bound in bounds:
            self._check_span(inst, tp, bound)
            if not tp.succ_roles:
                continue
            # Runtime._emit_bare stamps this batch at the instance's maxkey.
            newest = bound[-1].key if type(bound) is tuple else bound.key
            if newest >= inst.maxkey:
                raise ShadowMismatch(
                    f"take into state {tp.dst} with successor roles "
                    f"{sorted(tp.succ_roles)} bound an event at {newest}, "
                    f"not before the instance's newest {inst.maxkey}")
        super()._emit_bare(inst, tp, bounds)

    def _query(self, inst: Instance, chk) -> list:
        got = super()._query(inst, chk)
        lower = self._lower_bound(inst, chk.prec_roles)
        upper = self._upper_bound(inst, chk.succ_roles)
        keys = [x.key for x in got]
        # Every search runs while a step dispatches the last accepted event.
        watermark = self._last_key[0] - self.window
        logged = [x.key for x in self.log.get(chk.etype, ())
                  if x.ts >= watermark
                  and (lower is None or x.key > lower)
                  and (upper is None or x.key < upper)]
        if keys != logged:
            raise ShadowMismatch(
                f"shared buffer returned {keys} but the arrival log holds "
                f"{logged} (type {chk.etype}, state {inst.sid})")
        return got


def run_stream(runtime, events: Iterable[Event]) -> list:
    """Convenience driver: step every event, flush, return all matches."""
    out = []
    for e in events:
        out.extend(runtime.step(e))
    out.extend(runtime.flush())
    return out
