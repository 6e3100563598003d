"""Pattern language: parser, AST, validation, and DNF chain normalization.

A pattern file has the shape::

    PATTERN SEQ(A a, B+ b[], NOT(C c), AND(D d, E e))
    WHERE skip_till_any_match { a.x > 3 and avg(b[i].x) < d.y }
    WITHIN 20 min

``#`` starts a comment. Keywords are case-insensitive; type and role names
are case-sensitive. Composite patterns are normalized to a disjunction of
chains: each chain is a conjunction of typed roles plus a partial temporal
order, per-chain negations, and at most one iterated role. A chain keeps
its alternative's text as written, for :func:`render_chain`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import predicates as P
from .events import EventType

KEYWORDS = {"pattern", "seq", "and", "or", "not", "where", "within"}
UNITS_MS = {"msec": 1, "sec": 1000, "min": 60_000, "hour": 3_600_000}
STRATEGY = "skip_till_any_match"


class ParseError(ValueError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.line = line
        self.col = col


class PatternError(ValueError):
    """Semantic error in a syntactically valid pattern."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Leaf:
    etype: EventType
    role: str


@dataclass(frozen=True)
class Kleene:
    leaf: Leaf
    lo: int = 1
    hi: Optional[int] = None  # None = unbounded

    def render(self) -> str:
        if self.lo == 1 and self.hi is None:
            return f"{self.leaf.etype}+ {self.leaf.role}[]"
        return f"{self.leaf.etype}{{{self.lo},{self.hi}}} {self.leaf.role}[]"


@dataclass(frozen=True)
class NotItem:
    leaf: Leaf


@dataclass(frozen=True)
class OpNode:
    op: str  # seq | and | or
    children: tuple


AstNode = object  # Leaf | Kleene | NotItem | OpNode


@dataclass(frozen=True)
class PatternAst:
    root: AstNode
    where: Optional[P.BoolExpr]
    window: int  # milliseconds

    def __post_init__(self):
        _validate_ast(self)


@dataclass(frozen=True)
class NegSpec:
    """One negated role: its local predicate and temporal neighbours."""

    role: str
    etype: EventType
    cond: tuple  # the chain's compiled atoms over this role (plus positives)
    prec_roles: frozenset  # positive/iterated roles that must precede it
    succ_roles: frozenset  # positive/iterated roles that must succeed it

    def key(self):
        return (
            self.role,
            self.etype,
            tuple(a.render() for a in self.cond),
            tuple(sorted(self.prec_roles)),
            tuple(sorted(self.succ_roles)),
        )


@dataclass(frozen=True)
class IterSpec:
    role: str
    etype: EventType
    lo: int
    hi: Optional[int]
    group_by: Optional[str] = None  # attribute name


@dataclass(frozen=True)
class ChainPattern:
    """One DNF conjunct: typed roles + partial order + negations + window."""

    positives: tuple  # ((role, etype), ...) in declaration order, incl. iterated
    temporal_order: frozenset  # (role_u, role_v) pairs, transitively closed
    negations: tuple  # NegSpec, declaration order
    iterated: Optional[IterSpec]
    atoms: tuple  # compiled predicate atoms over positive/iterated roles
    window: int
    # The alternative as written, without WHERE and WITHIN (render_chain).
    text: Optional[str] = field(compare=False, repr=False, default=None)

    @property
    def roles(self) -> tuple:
        return tuple(r for r, _ in self.positives)

    @property
    def types(self) -> dict:
        d = {r: t for r, t in self.positives}
        d.update({n.role: n.etype for n in self.negations})
        return d

    def prec_of(self, role: str) -> frozenset:
        return frozenset(u for u, v in self.temporal_order if v == role)

    def succ_of(self, role: str) -> frozenset:
        return frozenset(v for u, v in self.temporal_order if u == role)

    def nearest(self, before, after) -> tuple:
        """The roles of ``before`` that no other of them follows and the
        roles of ``after`` that no other of them precedes.

        A binding that keeps the temporal order puts the latest event of
        ``before`` on one of the first and the earliest event of ``after``
        on one of the second, so these bound a search as tightly as the
        full sets.
        """
        order = self.temporal_order
        return (frozenset(u for u in before
                          if not any((u, v) in order for v in before)),
                frozenset(v for v in after
                          if not any((u, v) in order for u in after)))

    def key(self):
        """Canonical structural identity (used by the DNF idempotence check)."""
        return (
            tuple(sorted(self.positives)),
            tuple(sorted(self.temporal_order)),
            tuple(sorted(n.key() for n in self.negations)),
            self.iterated,
            tuple(sorted(a.render() for a in self.atoms)),
            self.window,
        )


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    \s+ | \#[^\n]*
  | (?P<num>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|[-+*/(){},.<>=\[\]])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _error_at(text: str, offset: int, msg: str) -> ParseError:
    """A ParseError for ``msg`` at character ``offset`` of ``text``."""
    return ParseError(msg, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list:
    """The ``(kind, text, offset)`` tokens of ``text`` in one scan, ending
    with an ``eof`` token; whitespace and comments yield none."""
    tokens = [(m.lastgroup, m.group(), m.start())
              for m in _TOKEN_RE.finditer(text) if m.lastgroup]
    for kind, tok, offset in tokens:
        if kind == "bad":
            raise _error_at(text, offset, f"unexpected character {tok!r}")
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    # Tokens are (kind, text, offset) tuples; kind is num | ident | op | eof.
    # No other kind of token has an operator's text, so a test of the text
    # alone finds an operator.

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> tuple:
        return self.tokens[self.i]

    def next(self) -> tuple:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def error(self, msg: str, tok: Optional[tuple] = None):
        raise _error_at(self.text, (tok or self.tokens[self.i])[2], msg)

    def checked(self, tok: tuple, node, check, *args):
        """``node``, once ``check(node, *args)`` passes; its PatternError
        is raised as a ParseError at ``tok``."""
        try:
            check(node, *args)
        except PatternError as exc:
            raise _error_at(self.text, tok[2], str(exc)) from None
        return node

    def expect_op(self, text: str) -> None:
        got = self.tokens[self.i][1]
        if got != text:
            self.error(f"expected {text!r}, got {got!r}")
        self.i += 1

    def at_keyword(self, word: str) -> bool:
        kind, text, _ = self.tokens[self.i]
        return kind == "ident" and text.lower() == word

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            self.error(f"expected {word.upper()}, got {self.peek()[1]!r}")
        self.i += 1

    def ident(self, what: str) -> str:
        kind, text, _ = self.tokens[self.i]
        if kind != "ident":
            self.error(f"expected {what}, got {text!r}")
        if text.lower() in KEYWORDS:
            self.error(f"{text!r} is a reserved word")
        self.i += 1
        return text

    # -- pattern grammar ----------------------------------------------------

    def parse(self) -> PatternAst:
        self.expect_keyword("pattern")
        root = self.elem()
        where = None
        if self.at_keyword("where"):
            self.next()
            strat = self.next()
            if strat[1] != STRATEGY:
                self.error(f"unsupported selection strategy {strat[1]!r}", strat)
            self.expect_op("{")
            where = self.or_expr()
            self.expect_op("}")
        self.expect_keyword("within")
        return PatternAst(root=root, where=where, window=self.window())

    def window(self, bare_unit: Optional[str] = None) -> int:
        """The window, which ends the input, in whole milliseconds (at least
        1, and never rounded): a number and a unit of UNITS_MS in any case,
        with at most one trailing ``s``. A bare number is in ``bare_unit``
        when given."""
        t = self.peek()
        value = self.number("duration value")
        unit = self.next() if self.peek()[0] == "ident" else None
        if unit is None and bare_unit is None:
            self.error("expected a time unit (msec|sec|min|hour)")
        # No unit ends in "s", so a trailing "s" can only be a plural.
        name = unit[1].lower().removesuffix("s") if unit else bare_unit
        if name not in UNITS_MS:
            self.error(f"unknown time unit {unit[1]!r}", unit)
        if value * UNITS_MS[name] == math.inf:
            self.error("the window is too large", t)
        # Scaled exactly: as floats, 1.005 sec falls short of 1005 msec.
        exact = Fraction(t[1]) if "." in t[1] else int(t[1])
        ms = self.checked(t, exact * UNITS_MS[name], _check_window)
        kind, text, _ = self.peek()
        if kind != "eof":
            self.error(f"trailing input {text!r}")
        return int(ms)

    def elem(self, parent_op: str = "") -> AstNode:
        t = self.peek()
        if t[0] == "ident" and t[1].lower() in ("seq", "and", "or"):
            op = self.next()[1].lower()
            self.expect_op("(")
            children = [self.elem(op)]
            while self.peek()[1] == ",":
                self.next()
                children.append(self.elem(op))
            self.expect_op(")")
            return self.checked(t, OpNode(op, tuple(children)), _check_item)
        return self.item(parent_op)

    def item(self, parent_op: str = "") -> AstNode:
        t = self.peek()
        if self.at_keyword("not"):
            self.next()
            self.expect_op("(")
            node = self.checked(t, NotItem(self.item()), _check_item,
                                parent_op)
            self.expect_op(")")
            return node
        etype = self.ident("an event type")
        nxt = self.peek()
        if nxt[1] not in ("+", "{"):
            return Leaf(etype, self.ident("a role name"))
        self.next()
        lo, hi = 1, None  # Kleene closure: TYPE+ role[]
        if nxt[1] == "{":  # bounded repetition: TYPE{l,m} role[]
            lo = self.number("lower repetition bound", integer=True)
            self.expect_op(",")
            hi = self.number("upper repetition bound", integer=True)
            self.expect_op("}")
        role = self.ident("a role name")
        self.expect_op("[")
        self.expect_op("]")
        return self.checked(nxt, Kleene(Leaf(etype, role), lo, hi), _check_item)

    def number(self, what: str, integer: bool = False):
        """The number that the ``num`` token at the cursor names: an int
        when ``integer``, else a finite float; a ParseError if none fits."""
        kind, text, _ = self.peek()
        if kind != "num" or integer and "." in text:
            self.error(f"expected {'an integer' if integer else 'a'} {what}")
        try:  # float() overflows to inf; int() has a limit on digits
            value = int(text) if integer else float(text)
        except ValueError:
            value = math.inf
        if value == math.inf:
            self.error(f"the {what} is too large")
        self.i += 1
        return value

    # -- WHERE grammar: not > comparison > and > or; arithmetic binds tighter

    def or_expr(self) -> P.BoolExpr:
        children = [self.and_expr()]
        while self.at_keyword("or"):
            self.next()
            children.append(self.and_expr())
        return children[0] if len(children) == 1 else P.BoolOp("or", tuple(children))

    def and_expr(self) -> P.BoolExpr:
        children = [self.not_expr()]
        while self.at_keyword("and"):
            self.next()
            children.append(self.not_expr())
        return children[0] if len(children) == 1 else P.BoolOp("and", tuple(children))

    def not_expr(self) -> P.BoolExpr:
        if self.at_keyword("not"):
            self.next()
            if self.peek()[1] == "(":
                self.next()
                inner = self.or_expr()
                self.expect_op(")")
                return P.Not(inner)
            return P.Not(self.not_expr())
        return self.cmp_expr()

    def cmp_expr(self) -> P.BoolExpr:
        if self.peek()[1] == "(":
            # Either a parenthesized boolean or a parenthesized value; decide
            # by attempting the boolean first and falling back on failure.
            save = self.i
            try:
                self.next()
                inner = self.or_expr()
                self.expect_op(")")
                return inner
            except ParseError:
                self.i = save
        left = self.add_expr()
        op_tok = self.peek()
        op = op_tok[1]
        if op in P.CMP_OPS:
            self.next()
            return P.Cmp(op, left, self.add_expr())
        self.error("expected a comparison", op_tok)

    def add_expr(self) -> P.ValueExpr:
        node = self.mul_expr()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = P.Arith(op, node, self.mul_expr())
        return node

    def mul_expr(self) -> P.ValueExpr:
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = P.Arith(op, node, self.unary())
        return node

    def unary(self) -> P.ValueExpr:
        if self.peek()[1] == "-":
            self.next()
            node = self.unary()
            if isinstance(node, P.Literal):
                return P.Literal(-node.value)
            return P.Arith("-", P.Literal(0.0), node)
        return self.primary()

    def primary(self) -> P.ValueExpr:
        t = self.peek()
        kind, text, _ = t
        if text == "(":
            self.next()
            node = self.add_expr()
            self.expect_op(")")
            return node
        if kind == "num":
            return P.Literal(self.number("literal"))
        if kind == "ident":
            low = text.lower()
            if low in P.AGG_FNS and self.tokens[self.i + 1][1] == "(":
                self.i += 2
                node = self.checked(t, P.Agg(low, self.attr_ref()),
                                    _check_value)
                self.expect_op(")")
                return node
            if low == "corr" and self.tokens[self.i + 1][1] == "(":
                self.i += 2
                left = self.attr_ref()
                self.expect_op(",")
                right = self.attr_ref()
                self.expect_op(")")
                return self.checked(t, P.Corr(left, right), _check_value)
            return self.attr_ref()
        self.error(f"expected a value, got {text!r}")

    def attr_ref(self) -> P.AttrRef:
        role = self.ident("a role name")
        index = None
        if self.peek()[1] == "[":
            self.next()
            idx = self.peek()  # the token an index error names
            index = self.ident("an iteration index")
            if index == "i" and self.peek()[1] == "-":
                self.next()
                idx = self.next()
                index += "-" + idx[1]
            # Checked before the tokens after it: the attribute is unread.
            self.checked(idx, P.AttrRef(role, "", index), _check_ref)
            self.expect_op("]")
        self.expect_op(".")
        return P.AttrRef(role, self.ident("an attribute name"), index)


# ---------------------------------------------------------------------------
# Validation and DNF conversion


def _iter_items(node: AstNode, parent_op: str = ""):
    """The items under ``node`` in declaration order; checks each node."""
    _check_item(node, parent_op)
    if isinstance(node, OpNode):
        for c in node.children:
            yield from _iter_items(c, node.op)
    else:
        yield node


def _check_item(node: AstNode, parent_op: str = "") -> None:
    """A PatternError unless ``node``, its children aside, is a pattern
    node that may sit under the operator ``parent_op``."""
    if isinstance(node, OpNode):
        if node.op not in ("seq", "and", "or"):
            raise PatternError(f"unknown operator {node.op!r}")
        if node.op == "or" and len(node.children) < 2:
            raise PatternError("OR needs at least two alternatives")
    elif isinstance(node, NotItem):
        if parent_op == "or":
            # A negation sits directly under a SEQ or an AND, so that its
            # temporal scope is well defined.
            raise PatternError("NOT is only supported directly under SEQ or AND")
        if not isinstance(node.leaf, Leaf):
            raise PatternError("NOT applies to a single typed event")
    elif isinstance(node, Kleene):
        lo, hi = node.lo, node.hi
        if not isinstance(node.leaf, Leaf):
            raise PatternError("repetition applies to a single typed event")
        if not ((lo, hi) == (1, None) or hi is not None and 1 <= lo <= hi):
            raise PatternError(f"invalid repetition bounds {{{lo},{hi}}}")
    elif not isinstance(node, Leaf):
        raise PatternError(f"not a pattern node: {node!r}")


def _role_type(item) -> tuple:
    leaf = item if isinstance(item, Leaf) else item.leaf
    return leaf.role, leaf.etype


def _check_window(window) -> None:
    if not window >= 1:
        raise PatternError("window must be positive")
    if window % 1:
        raise PatternError(f"window must be a whole number of milliseconds, "
                           f"got {float(window):g} ms")


def _validate_ast(ast: PatternAst) -> None:
    _check_window(ast.window)
    role_types: dict = {}
    iter_roles = set()
    neg_roles = set()
    for item in _iter_items(ast.root):
        role, etype = _role_type(item)
        if role in role_types and role_types[role] != etype:
            raise PatternError(
                f"role {role!r} declared with types {role_types[role]!r} and {etype!r}"
            )
        role_types[role] = etype
        if isinstance(item, Kleene):
            iter_roles.add(role)
        if isinstance(item, NotItem):
            neg_roles.add(role)
    if not (set(role_types) - neg_roles):
        raise PatternError("pattern must contain at least one positive event")
    if iter_roles & neg_roles:
        raise PatternError("a negated event cannot be iterated")

    if ast.where is not None:
        _check_bool(ast.where)
    for atom in P.split_conjunction(ast.where):
        refs = [sub for sub in P.nodes(atom) if isinstance(sub, P.AttrRef)]
        if not refs:
            raise PatternError(f"predicate {atom.render()} names no event")
        negs_in_atom = set()
        for ref in refs:
            if ref.role not in role_types:
                raise PatternError(f"unknown role {ref.role!r} in WHERE clause")
            if ref.index is not None and ref.role not in iter_roles:
                raise PatternError(
                    f"{ref.render()}: indexed references require an iterated role"
                )
            if ref.index is None and ref.role in iter_roles:
                raise PatternError(
                    f"{ref.render()}: iterated roles must be referenced as "
                    f"{ref.role}[i].{ref.attr} or via an aggregate"
                )
            if ref.role in neg_roles:
                negs_in_atom.add(ref.role)
        if len(negs_in_atom) > 1:
            raise PatternError(
                f"predicate {atom.render()} links two negated events; "
                "conditions may reference at most one negated role"
            )


def _check_bool(expr) -> None:
    """A PatternError unless ``expr`` is a boolean node of the WHERE
    grammar over grammatical children."""
    if isinstance(expr, P.Cmp):
        if expr.op not in P.CMP_OPS:
            raise PatternError(f"unknown comparison {expr.op!r}")
        _check_value(expr.left)
        _check_value(expr.right)
    elif isinstance(expr, P.Not):
        _check_bool(expr.child)
    elif isinstance(expr, P.BoolOp):
        if expr.op not in ("and", "or"):
            raise PatternError(f"unknown boolean operator {expr.op!r}")
        if len(expr.children) < 2:
            raise PatternError(f"{expr.op} needs at least two operands")
        for child in expr.children:
            _check_bool(child)
    else:
        raise PatternError(f"not a boolean expression: {expr!r}")


def _check_value(expr) -> None:
    """A PatternError unless ``expr`` is a value node of the WHERE grammar
    over grammatical children."""
    if isinstance(expr, P.Literal):
        v = expr.value
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not math.isfinite(v)):
            raise PatternError(f"a literal must be a finite number, got {v!r}")
    elif isinstance(expr, P.Agg):
        if expr.fn not in P.AGG_FNS:
            raise PatternError(f"unknown aggregate {expr.fn!r}")
        _check_ref(expr.ref)
        if expr.ref.index is None:
            raise PatternError(
                f"{expr.fn}() requires an iterated reference like r[i].x")
    elif isinstance(expr, P.Corr):
        _check_ref(expr.left)
        _check_ref(expr.right)
        if expr.left.index is not None or expr.right.index is not None:
            raise PatternError("corr() takes plain role.attr references")
    elif isinstance(expr, P.Arith):
        if expr.op not in P.ARITH_OPS:
            raise PatternError(f"unknown arithmetic operator {expr.op!r}")
        _check_value(expr.left)
        _check_value(expr.right)
    elif isinstance(expr, P.AttrRef):
        _check_ref(expr)
    else:
        raise PatternError(f"not a value expression: {expr!r}")


def _check_ref(ref) -> None:
    if not isinstance(ref, P.AttrRef):
        raise PatternError(f"not an attribute reference: {ref!r}")
    if ref.index not in (None, "i", "i-1"):
        raise PatternError("iteration index must be 'i' or 'i-1'")


@dataclass(frozen=True)
class _Block:
    items: tuple  # AST items in declaration order
    pairs: frozenset  # (role_u, role_v) over all item roles
    text: str  # the alternative as written


def _normalize(node: AstNode) -> list:
    """Return the list of DNF alternatives for an AST subtree."""
    if isinstance(node, (Leaf, Kleene, NotItem)):
        return [_Block((node,), frozenset(), _render_node(node))]
    assert isinstance(node, OpNode)
    if node.op == "or":
        return [blk for c in node.children for blk in _normalize(c)]
    # seq / and: cartesian product of child alternatives. For seq, every role
    # of an earlier child precedes every role of a later one; nested closures
    # make the resulting union transitively closed.
    out = []
    for combo in _product_blocks(node.children):
        items: tuple = ()
        pairs: set = set()
        groups = []
        for blk in combo:
            groups.append([_role_type(it)[0] for it in blk.items])
            items += blk.items
            pairs |= blk.pairs
        if node.op == "seq":
            for gi, earlier in enumerate(groups):
                pairs.update((u, v) for later in groups[gi + 1:]
                             for u in earlier for v in later)
        text = ", ".join(blk.text for blk in combo)
        out.append(_Block(items, frozenset(pairs), f"{node.op.upper()}({text})"))
    return out


def _product_blocks(children) -> list:
    combos = [()]
    for child in children:
        alts = _normalize(child)
        combos = [base + (alt,) for base in combos for alt in alts]
    return combos


def to_dnf(ast: PatternAst) -> list:
    """Normalize a pattern to its list of chains, in deterministic order.

    Each WHERE atom is compiled here, once, by
    :func:`cep.predicates.compile_atom`: every chain shares the compiled
    atoms, and the builders, the runtimes and the oracle read them as they
    are.
    """
    atoms = tuple(map(P.compile_atom, P.split_conjunction(ast.where)))
    return sorted((_block_to_chain(block, atoms, ast.window)
                   for block in _normalize(ast.root)),
                  key=lambda c: tuple(sorted(c.types)))


def _block_to_chain(block: _Block, atoms: tuple, window: int) -> ChainPattern:
    positives = []
    negated = []
    iterated: Optional[IterSpec] = None
    types_seen: dict = {}
    for item in block.items:
        role, etype = _role_type(item)
        if role in types_seen:
            raise PatternError(f"role {role!r} appears twice in one conjunct")
        types_seen[role] = etype
        if isinstance(item, NotItem):
            negated.append((role, etype))
        elif isinstance(item, Kleene):
            if iterated is not None:
                raise PatternError("at most one iterated event per conjunct is supported")
            iterated = IterSpec(role, etype, item.lo, item.hi)
            positives.append((role, etype))
        else:
            positives.append((role, etype))
    if len(set(t for _, t in positives + negated)) != len(positives) + len(negated):
        raise PatternError(
            f"event types must be distinct within one conjunct: {sorted(types_seen.values())}"
        )
    if not positives:
        raise PatternError("every alternative must contain at least one positive event")
    pos_roles = {r for r, _ in positives}
    neg_roles = {r for r, _ in negated}

    order = frozenset(
        (u, v) for (u, v) in block.pairs if u in pos_roles and v in pos_roles
    )

    chain_roles = pos_roles | neg_roles
    chain_atoms = []
    neg_conds = {r: [] for r in neg_roles}
    for atom in atoms:
        roles = atom.roles
        if not roles <= chain_roles:
            missing = sorted(roles - chain_roles)
            raise PatternError(
                f"predicate {atom.render()} references {missing} outside this "
                "conjunct; conditions must apply within every alternative"
            )
        hit = roles & neg_roles
        if hit:
            neg_conds[next(iter(hit))].append(atom)
        else:
            chain_atoms.append(atom)

    negs = tuple(
        NegSpec(
            role=r,
            etype=t,
            cond=tuple(neg_conds[r]),
            prec_roles=frozenset(u for (u, v) in block.pairs if v == r and u in pos_roles),
            succ_roles=frozenset(v for (u, v) in block.pairs if u == r and v in pos_roles),
        )
        for r, t in negated
    )
    return ChainPattern(
        positives=tuple(positives),
        temporal_order=order,
        negations=negs,
        iterated=iterated,
        atoms=tuple(chain_atoms),
        window=window,
        text=block.text,
    )


# ---------------------------------------------------------------------------
# Rendering (round-trip support)


def parse_pattern(text: str) -> PatternAst:
    return _Parser(text).parse()


def parse_window(text: str) -> int:
    """A window given alone, as ``cep run --window`` takes one: as
    ``WITHIN`` reads it, or a bare number of msec."""
    return _Parser(text).window(bare_unit="msec")


def render_pattern(ast: PatternAst) -> str:
    where = "" if ast.where is None else ast.where.render()
    return _pattern_text(_render_node(ast.root), where, ast.window)


def _render_node(node: AstNode) -> str:
    if isinstance(node, Leaf):
        return f"{node.etype} {node.role}"
    if isinstance(node, Kleene):
        return node.render()
    if isinstance(node, NotItem):
        return f"NOT({node.leaf.etype} {node.leaf.role})"
    assert isinstance(node, OpNode)
    return f"{node.op.upper()}({', '.join(_render_node(c) for c in node.children)})"


def render_chain(chain: ChainPattern) -> str:
    """One chain as pattern text: its alternative as written, with the
    chain's atoms and those of its negations, and its window."""
    if chain.text is None:
        raise PatternError("only a chain built by to_dnf can be rendered")
    atoms = chain.atoms + tuple(a for n in chain.negations for a in n.cond)
    return _pattern_text(chain.text, " and ".join(a.render() for a in atoms),
                         chain.window)


def _pattern_text(body: str, where: str, window: int) -> str:
    where = f"\nWHERE {STRATEGY} {{ {where} }}" if where else ""
    return f"PATTERN {body}{where}\nWITHIN {window} msec"
