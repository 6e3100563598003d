"""Predicate expression trees evaluated against partial or full role bindings.

A parsed WHERE clause is split into a conjunction of *atoms*. Each atom is a
boolean expression tree, compiled once into an :class:`Atom` by
:func:`cep.patterns.to_dnf`, which every chain, builder, runtime and the
oracle share; the runtime evaluates it as soon as every role it references
is bound. Atoms referencing an iterated role are implicitly universally
quantified over the members of the bound subset (adjacent-pair references
``r[i-1]`` shift the quantification range accordingly).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from decimal import Decimal
from typing import NamedTuple, Optional, Sequence, Union

from .events import Event, StreamDataError
from .stats import UndefinedCorrelationError, pearson

Binding = dict  # role name -> Event | tuple[Event, ...]


class PredicateError(ValueError):
    """Semantic error inside a WHERE clause."""


@dataclass(frozen=True)
class Literal:
    value: float

    def render(self) -> str:
        # Positional, never an exponent, which the parser does not read.
        v = self.value
        return (str(int(v)) if float(v).is_integer()
                else format(Decimal(repr(v)), "f"))


@dataclass(frozen=True)
class AttrRef:
    """``role.attr`` or, for iterated roles, ``role[i].attr`` / ``role[i-1].attr``."""

    role: str
    attr: str
    index: Optional[str] = None  # None | "i" | "i-1"

    def render(self) -> str:
        if self.index is None:
            return f"{self.role}.{self.attr}"
        return f"{self.role}[{self.index}].{self.attr}"


@dataclass(frozen=True)
class Agg:
    """Aggregate over an iterated role's attribute: AVG/SUM/MIN/MAX/COUNT."""

    fn: str
    ref: AttrRef

    def render(self) -> str:
        return f"{self.fn}({self.ref.render()})"


@dataclass(frozen=True)
class Corr:
    """Pearson correlation between two history-valued attributes."""

    left: AttrRef
    right: AttrRef

    def render(self) -> str:
        return f"corr({self.left.render()}, {self.right.render()})"


@dataclass(frozen=True)
class Arith:
    op: str  # + - * /
    left: "ValueExpr"
    right: "ValueExpr"

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


ValueExpr = Union[Literal, AttrRef, Agg, Corr, Arith]


@dataclass(frozen=True)
class Cmp:
    op: str  # < > <= >= = !=
    left: ValueExpr
    right: ValueExpr

    def render(self) -> str:
        return f"{self.left.render()} {self.op} {self.right.render()}"


@dataclass(frozen=True)
class Not:
    child: "BoolExpr"

    def render(self) -> str:
        return f"not ({self.child.render()})"


@dataclass(frozen=True)
class BoolOp:
    op: str  # and | or
    children: tuple

    def render(self) -> str:
        sep = f" {self.op} "
        return "(" + sep.join(c.render() for c in self.children) + ")"


BoolExpr = Union[Cmp, Not, BoolOp]


def nodes(expr):
    """Every node of an expression tree, in pre-order: the sides of a
    comparison, an arithmetic or a correlation, a negated or combined
    child, an aggregate's reference."""
    yield expr
    if isinstance(expr, (Cmp, Arith, Corr)):
        yield from nodes(expr.left)
        yield from nodes(expr.right)
    elif isinstance(expr, Not):
        yield from nodes(expr.child)
    elif isinstance(expr, BoolOp):
        for c in expr.children:
            yield from nodes(c)
    elif isinstance(expr, Agg):
        yield expr.ref


def split_conjunction(expr: Optional[BoolExpr]) -> list:
    """Flatten top-level ANDs into the list of atoms the runtime schedules."""
    if expr is None:
        return []
    if isinstance(expr, BoolOp) and expr.op == "and":
        out = []
        for c in expr.children:
            out.extend(split_conjunction(c))
        return out
    return [expr]


# Quantifier kinds of an atom over an iterated role (``Atom.kind``).
MEMBER = "member"  # only r[i] references: holds per member
PAIR = "pair"  # some r[i-1] reference: holds per adjacent pair
SUBSET = "subset"  # an aggregate, or several iterated roles: whole subset


class Atom:
    """A WHERE atom compiled once, by :func:`compile_atom`.

    ``test(binding)`` evaluates it. The roles it references, the quantifier
    kind, the quantified role, the ``i``/``i-1`` index shifts and the
    attribute names were resolved when it was compiled; error messages are
    rendered only when an error is raised. ``roles`` is the set of roles
    the atom references, ``role`` the quantified role and ``kind`` one of
    MEMBER, PAIR and SUBSET; both are None for an unquantified atom.
    """

    __slots__ = ("expr", "test", "roles", "kind", "role")

    def __init__(self, expr: BoolExpr, test, roles: frozenset, kind=None,
                 role=None):
        self.expr = expr
        self.test = test
        self.roles = roles
        self.kind = kind
        self.role = role

    def render(self) -> str:
        return self.expr.render()

    def __repr__(self) -> str:
        return f"Atom({self.render()})"


def compile_atom(expr: BoolExpr) -> Atom:
    """Lower one atom into a closure over a binding.

    Atoms with bare iterated references hold iff they hold for every member
    (or every adjacent pair, when some reference is ``r[i-1]``) of the
    quantified role, the role of the first indexed reference; aggregates see
    the whole subset. One walk of the tree finds the references, their
    roles and the aggregates.
    """
    roles, indexed, aggregate = set(), [], False
    for n in nodes(expr):
        if isinstance(n, AttrRef):
            roles.add(n.role)
            if n.index is not None:
                indexed.append(n)
        elif isinstance(n, Agg):
            aggregate = True
    roles = frozenset(roles)
    if not indexed:
        return Atom(expr, _bool(expr, False), roles)
    first = indexed[0]
    pair = any(ref.index == "i-1" for ref in indexed)
    role, start = first.role, 1 if pair else 0
    if aggregate or any(ref.role != role for ref in indexed):
        kind = SUBSET
    else:
        kind = PAIR if pair else MEMBER
    body = _bool(expr, True)

    def each(binding: Binding) -> bool:
        bound = binding[role]
        if not isinstance(bound, tuple):
            raise PredicateError(f"{first.render()}: role is not iterated")
        # A while loop: a range per evaluation costs about as much as the body.
        i, n = start, len(bound)
        while i < n:
            if not body(binding, i):
                return False
            i += 1
        return True

    return Atom(expr, each, roles, kind, role)


class KleeneAtoms(NamedTuple):
    """The atoms of an iterate take, split by what they need to be decided.

    ``member`` atoms hold for a subset iff they hold for each of its members
    alone, and are tested on the member event itself; ``pair`` atoms hold
    iff they hold for each adjacent pair, and ``whole`` atoms are decided
    on the complete subset only.
    """

    member: tuple
    pair: tuple
    whole: tuple


def split_kleene(atoms: Sequence[Atom], role: str,
                 group_by: Optional[str] = None) -> KleeneAtoms:
    """Split the compiled atoms of an iterate take on ``role`` by
    quantifier kind.

    The ``member`` atoms come in their one-member form, built from the
    compiled atom without analysing it again: ``iterate_fetch`` binds the
    role to the candidate event itself, which the references read as they
    read a plain role's. It holds for an event iff the quantified form
    holds for the tuple of that event alone.

    With ``group_by`` set, an equality ``role[i].A = role[i-1].A`` on that
    attribute is dropped: every group-homogeneous subset satisfies it.
    """
    member, pair, whole = [], [], []
    for atom in atoms:
        kind = atom.kind if atom.role == role else SUBSET
        if kind == MEMBER:
            member.append(Atom(atom.expr, _bool(atom.expr, False),
                               atom.roles, MEMBER, role))
        elif kind == PAIR:
            if not _is_group_equality(atom.expr, role, group_by):
                pair.append(atom)
        else:
            whole.append(atom)
    return KleeneAtoms(tuple(member), tuple(pair), tuple(whole))


def _is_group_equality(expr, role: str, group_by: Optional[str]) -> bool:
    if group_by is None or not isinstance(expr, Cmp) or expr.op != "=":
        return False
    sides = (expr.left, expr.right)
    return (all(isinstance(r, AttrRef) and r.role == role and r.attr == group_by
                for r in sides)
            and {r.index for r in sides} == {"i", "i-1"})


def eval_atoms(atoms: Sequence[Atom], binding: Binding, counter=None) -> bool:
    """True iff every compiled atom holds against ``binding`` (role ->
    Event or member tuple); stops at the first that does not.

    ``counter.predicate_evaluations`` counts the atoms evaluated.
    """
    for atom in atoms:
        if counter is not None:
            counter.predicate_evaluations += 1
        if not atom.test(binding):
            return False
    return True


# Each node below compiles into ``f(binding, i)``, where ``i`` is the member
# index of a quantified atom and None otherwise. ``quantified`` tells the
# references which of the two they are compiled for. Building a PatternAst
# checks every node against the grammar (:mod:`cep.patterns`), so each
# node, operator and function name here is a known one.


def _bool(expr: BoolExpr, quantified: bool):
    if isinstance(expr, Cmp):
        return _cmp(expr, quantified)
    if isinstance(expr, Not):
        child = _bool(expr.child, quantified)
        return lambda b, i=None: not child(b, i)
    children = tuple(_bool(c, quantified) for c in expr.children)  # BoolOp
    if expr.op == "and":
        return lambda b, i=None: all(c(b, i) for c in children)
    return lambda b, i=None: any(c(b, i) for c in children)


_ORDERING = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
             ">=": operator.ge}


def _cmp(expr: Cmp, quantified: bool):
    threshold = _corr_threshold(expr)
    if threshold is not None:
        return _corr(*threshold, quantified)
    left = _value(expr.left, quantified)
    right = _value(expr.right, quantified)
    op = expr.op
    order = _ORDERING.get(op)
    if order is not None:
        def cmp(b, i=None):
            x = left(b, i)
            y = right(b, i)
            if x is None or y is None:
                return False
            try:
                return order(x, y)
            except TypeError:  # a history against a number, say
                raise _mismatch(op, x, y) from None
        return cmp
    equal = op == "="

    def cmp(b, i=None):
        x = left(b, i)
        y = right(b, i)
        if x is None or y is None:
            return False
        if type(x) is not type(y) and isinstance(x, str) != isinstance(y, str):
            raise _mismatch(op, x, y)
        return x == y if equal else x != y

    return cmp


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
_TESTS = dict(_ORDERING, **{"=": operator.eq, "!=": operator.ne})


def _corr_threshold(expr: Cmp):
    """``(corr, op, k)`` for ``corr(..) op k`` or ``k op corr(..)`` with a
    number ``k``, the literal moved to the right; None for any other
    comparison."""
    corr, k, op = expr.left, expr.right, expr.op
    if isinstance(k, Corr):
        corr, k, op = k, corr, _FLIPPED.get(op)
    if op in _FLIPPED and isinstance(corr, Corr) and isinstance(k, Literal):
        return corr, op, k.value
    return None


def _decisive_sign(op: Optional[str], k) -> int:
    """1 (-1) when ``corr op k`` fails for every coefficient that is not
    positive (not negative), and for an undefined one; 0 otherwise."""
    if op == ">" and k >= 0 or op in (">=", "=") and k > 0:
        return 1
    if op == "<" and k <= 0 or op in ("<=", "=") and k < 0:
        return -1
    return 0


def _mismatch(op: str, a, b) -> StreamDataError:
    return StreamDataError(f"type mismatch comparing {a!r} {op} {b!r}")


def _value(expr: ValueExpr, quantified: bool):
    if isinstance(expr, Literal):
        value = expr.value
        return lambda b, i=None: value
    if isinstance(expr, AttrRef):
        return _ref(expr, quantified)
    if isinstance(expr, Agg):
        return _agg(expr)
    if isinstance(expr, Corr):
        return _corr(expr, None, None, quantified)
    return _arith(expr, quantified)


def _ref(ref: AttrRef, quantified: bool):
    role, name = ref.role, ref.attr
    if not quantified or ref.index is None:
        # A plain role's event is read directly, inside a quantified atom
        # too; only a member tuple bound to it goes to _event.
        def get(b, i=None):
            try:
                return b[role].attrs[name]
            except (AttributeError, KeyError):
                return _event(b, ref, i).attr(name)  # a tuple, or the error
        return get
    shift = 1 if ref.index == "i-1" else 0

    def get_member(b, i):
        try:
            return b[role][i - shift].attrs[name]
        except (TypeError, KeyError):
            return _event(b, ref, i).attr(name)  # an Event bound, or the error

    return get_member


def _event(binding: Binding, ref: AttrRef, i: Optional[int]) -> Event:
    bound = binding[ref.role]
    if isinstance(bound, tuple):
        if i is None:
            raise PredicateError(
                f"{ref.render()}: iterated reference outside quantified atom"
            )
        return bound[i - 1 if ref.index == "i-1" else i]
    return bound


_REDUCERS = {"avg": lambda vals: sum(vals) / len(vals), "sum": sum,
             "min": min, "max": max}


def _agg(expr: Agg):
    role, name = expr.ref.role, expr.ref.attr
    count = expr.fn == "count"
    reduce = None if count else _REDUCERS[expr.fn]

    def agg(b, i=None):
        bound = b[role]
        if not isinstance(bound, tuple):
            raise PredicateError(f"{expr.render()}: role is not iterated")
        if count:
            return float(len(bound))
        vals = [_as_number(e.attr(name)) for e in bound]
        if None in vals:
            raise StreamDataError(f"{expr.render()} over a member valued None")
        return reduce(vals)

    return agg


def _corr(expr: Corr, op: Optional[str], k, quantified: bool):
    """The coefficient, None when it is undefined; or, given a comparison
    ``op`` with the number ``k``, its verdict.

    Where the covariance's sign can decide the verdict (``_decisive_sign``),
    ``pearson`` is asked to stop at the covariance when it does. Each node
    keeps its own memo of the last history tuple on each side.
    """
    left = _ref(expr.left, quantified)
    right = _ref(expr.right, quantified)
    test, sign = _TESTS.get(op), _decisive_sign(op, k)
    memo = [None, None]

    def corr(b, i=None):
        x = left(b, i)
        y = right(b, i)
        if not isinstance(x, (tuple, list)) or not isinstance(y, (tuple, list)):
            raise StreamDataError("corr() arguments must be history lists")
        try:
            r = pearson(x, y, memo, sign)  # looked up at call time
        except UndefinedCorrelationError:
            r = None  # undefined correlation: comparisons treat as false
        except ValueError as exc:  # histories of different lengths
            raise StreamDataError(f"{expr.render()}: {exc}") from None
        if test is None:
            return r
        return r is not None and test(r, k)

    return corr


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}


def _arith(expr: Arith, quantified: bool):
    left = _value(expr.left, quantified)
    right = _value(expr.right, quantified)
    divide = expr.op == "/"
    fn = _ARITH[expr.op]

    def arith(b, i=None):
        x = _as_number(left(b, i))
        y = _as_number(right(b, i))
        if x is None or y is None:
            return None
        if divide and y == 0:
            raise StreamDataError("division by zero in predicate")
        return fn(x, y)

    return arith


def _as_number(v):
    if v is None or isinstance(v, float):
        return v
    if isinstance(v, int):
        return float(v)
    raise StreamDataError(f"expected a number, got {v!r}")
