"""Predicate expression trees evaluated against partial or full role bindings.

A parsed WHERE clause is split into a conjunction of *atoms*. Each atom is a
boolean expression tree, compiled once into an :class:`Atom` when the
automata are built, that the runtime evaluates as soon as every role it
references is bound. Atoms referencing an iterated role are implicitly
universally quantified over the members of the bound subset (adjacent-pair
references ``r[i-1]`` shift the quantification range accordingly).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .events import Event, StreamDataError
from .stats import UndefinedCorrelationError, pearson

Binding = dict  # role name -> Event | tuple[Event, ...]


class PredicateError(ValueError):
    """Semantic error inside a WHERE clause."""


@dataclass(frozen=True)
class Literal:
    value: float

    def render(self) -> str:
        v = self.value
        return str(int(v)) if float(v).is_integer() else repr(v)


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


def value_refs(expr: ValueExpr):
    if isinstance(expr, AttrRef):
        yield expr
    elif isinstance(expr, Agg):
        yield expr.ref
    elif isinstance(expr, Corr):
        yield expr.left
        yield expr.right
    elif isinstance(expr, Arith):
        yield from value_refs(expr.left)
        yield from value_refs(expr.right)


def bool_refs(expr: BoolExpr):
    if isinstance(expr, Cmp):
        yield from value_refs(expr.left)
        yield from value_refs(expr.right)
    elif isinstance(expr, Not):
        yield from bool_refs(expr.child)
    elif isinstance(expr, BoolOp):
        for c in expr.children:
            yield from bool_refs(c)


def atom_roles(expr: BoolExpr) -> frozenset:
    return frozenset(r.role for r in bool_refs(expr))


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




class Atom:
    """A WHERE atom compiled once, by :func:`compile_atom`.

    ``test(binding)`` evaluates it. The quantifier kind, the quantified
    role, the ``i``/``i-1`` index shifts and the attribute names were
    resolved when it was compiled; error messages are rendered only when an
    error is raised.
    """

    __slots__ = ("expr", "test")

    def __init__(self, expr: BoolExpr, test):
        self.expr = expr
        self.test = test

    def render(self) -> str:
        return self.expr.render()

    def __repr__(self) -> str:
        return f"Atom({self.render()})"


def compile_atom(expr: BoolExpr) -> Atom:
    """Lower one atom into a closure over a binding.

    Atoms with bare iterated references hold iff they hold for every member
    (or every adjacent pair, when some reference is ``r[i-1]``) of the
    quantified role, the role of the first indexed reference; aggregates see
    the whole subset.
    """
    first, pair = None, False
    for ref in bool_refs(expr):
        if ref.index is None:
            continue
        if first is None:
            first = ref
        if ref.index == "i-1":
            pair = True
            break
    if first is None:
        return Atom(expr, _bool(expr, False))
    body = _bool(expr, True)
    role, start = first.role, 1 if pair else 0

    def each(binding: Binding) -> bool:
        bound = binding[role]
        if not isinstance(bound, tuple):
            raise PredicateError(f"{first.render()}: role is not iterated")
        for i in range(start, len(bound)):
            if not body(binding, i):
                return False
        return True

    return Atom(expr, each)


def compile_atoms(atoms: Sequence[BoolExpr]) -> tuple:
    return tuple(compile_atom(a) for a in atoms)


def eval_atoms(atoms: Sequence, binding: Binding, counter=None) -> bool:
    """True iff every atom holds; stops at the first that does not.

    ``counter.predicate_evaluations`` counts the atoms evaluated. Atoms not
    yet compiled (raw expression trees) are compiled on the spot.
    """
    for atom in atoms:
        if counter is not None:
            counter.predicate_evaluations += 1
        if type(atom) is not Atom:
            atom = compile_atom(atom)
        if not atom.test(binding):
            return False
    return True


def eval_atom(expr, binding: Binding, counter=None) -> bool:
    """Evaluate one atom against a binding (role -> Event or member tuple)."""
    return eval_atoms((expr,), binding, counter)


# Each node below compiles into ``f(binding, i)``, where ``i`` is the member
# index of a quantified atom and None otherwise. ``quantified`` tells the
# references which of the two they are compiled for.


def _bool(expr: BoolExpr, quantified: bool):
    if isinstance(expr, Cmp):
        return _cmp(expr, quantified)
    if isinstance(expr, Not):
        child = _bool(expr.child, quantified)
        return lambda b, i=None: not child(b, i)
    if isinstance(expr, BoolOp):
        children = tuple(_bool(c, quantified) for c in expr.children)
        if expr.op == "and":
            return lambda b, i=None: all(c(b, i) for c in children)
        return lambda b, i=None: any(c(b, i) for c in children)

    def unknown(b, i=None):
        raise PredicateError(f"unknown boolean node {expr!r}")

    return unknown


_ORDERING = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
             ">=": operator.ge}


def _cmp(expr: Cmp, quantified: bool):
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
            except TypeError:
                if isinstance(x, str) != isinstance(y, str):
                    raise _mismatch(op, x, y) from None
                raise
        return cmp
    equal = op == "="

    def cmp(b, i=None):
        x = left(b, i)
        y = right(b, i)
        if x is None or y is None:
            return False
        if type(x) is not type(y) and isinstance(x, str) != isinstance(y, str):
            raise _mismatch(op, x, y)
        if equal:
            return x == y
        if op == "!=":
            return x != y
        raise PredicateError(f"unknown comparison {op}")

    return cmp


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
        return _corr(expr, quantified)
    if isinstance(expr, Arith):
        return _arith(expr, quantified)

    def unknown(b, i=None):
        raise PredicateError(f"unknown value node {expr!r}")

    return unknown


def _ref(ref: AttrRef, quantified: bool):
    role, name = ref.role, ref.attr
    if not quantified:
        def get(b, i=None):
            try:
                return b[role].attrs[name]
            except (AttributeError, KeyError):
                return _event(b, ref, None).attr(name)  # raises the typed error
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
    reduce = _REDUCERS.get(expr.fn)

    def agg(b, i=None):
        bound = b[role]
        if not isinstance(bound, tuple):
            raise PredicateError(f"{expr.render()}: role is not iterated")
        if count:
            return float(len(bound))
        vals = [_as_number(e.attr(name)) for e in bound]
        if reduce is None:
            raise PredicateError(f"unknown aggregate {expr.fn}")
        return reduce(vals)

    return agg


def _corr(expr: Corr, quantified: bool):
    left = _ref(expr.left, quantified)
    right = _ref(expr.right, quantified)

    def corr(b, i=None):
        x = left(b, i)
        y = right(b, i)
        if not isinstance(x, (tuple, list)) or not isinstance(y, (tuple, list)):
            raise StreamDataError("corr() arguments must be history lists")
        try:
            return pearson(x, y)  # looked up at call time
        except UndefinedCorrelationError:
            return None  # undefined correlation: comparisons treat as false

    return corr


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _arith(expr: Arith, quantified: bool):
    left = _value(expr.left, quantified)
    right = _value(expr.right, quantified)
    divide = expr.op == "/"
    fn = _ARITH.get(expr.op)

    def arith(b, i=None):
        x = _as_number(left(b, i))
        y = _as_number(right(b, i))
        if x is None or y is None:
            return None
        if divide:
            if y == 0:
                raise StreamDataError("division by zero in predicate")
            return x / y
        if fn is None:
            raise PredicateError(f"unknown value node {expr!r}")
        return fn(x, y)

    return arith


def _as_number(v):
    if v is None or isinstance(v, float):
        return v
    if isinstance(v, int):
        return float(v)
    raise StreamDataError(f"expected a number, got {v!r}")
