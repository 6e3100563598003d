"""Pattern language: parser, AST, validation, and DNF chain normalization.

A pattern file has the shape::

    PATTERN SEQ(A a, B+ b[], NOT(C c), AND(D d, E e))
    WHERE skip_till_any_match { a.x > 3 and avg(b[i].x) < d.y }
    WITHIN 20 min

``#`` starts a comment. Keywords are case-insensitive; type and role names
are case-sensitive. Composite patterns are normalized to a disjunction of
chains: each chain is a conjunction of typed roles plus a partial temporal
order, per-chain negations, and at most one iterated role.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional

from . import predicates as P
from .events import EventType

KEYWORDS = {"pattern", "seq", "and", "or", "not", "where", "within"}
AGG_FNS = {"avg", "sum", "min", "max", "count"}
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
    strategy: str = STRATEGY


@dataclass(frozen=True)
class NegSpec:
    """One negated role: its local predicate and temporal neighbours."""

    role: str
    etype: EventType
    cond: tuple  # atoms referencing this role (plus positives)
    prec_roles: frozenset  # positive/iterated roles that must precede it
    succ_roles: frozenset  # positive/iterated roles that must succeed it

    def compiled(self) -> "NegSpec":
        """This check with its condition atoms compiled."""
        return replace(self, cond=P.compile_atoms(self.cond))

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
    atoms: tuple  # predicate atoms over positive/iterated roles
    window: int
    # Full pair set over all items (incl. negated-negated pairs) retained so
    # the chain can be rendered back to a series-parallel pattern text.
    render_pairs: frozenset = field(compare=False, repr=False, default=frozenset())

    @property
    def roles(self) -> tuple:
        return tuple(r for r, _ in self.positives)

    @property
    def types(self) -> dict:
        d = {r: t for r, t in self.positives}
        d.update({n.role: n.etype for n in self.negations})
        return d

    def etype_of(self, role: str) -> EventType:
        return self.types[role]

    def prec_of(self, role: str) -> frozenset:
        return frozenset(u for u, v in self.temporal_order if v == role)

    def succ_of(self, role: str) -> frozenset:
        return frozenset(v for u, v in self.temporal_order if u == role)

    def is_total_order(self) -> bool:
        n = len(self.positives)
        return len(self.temporal_order) == n * (n - 1) // 2

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
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|[-+*/(){},.<>=\[\]])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # num | ident | op | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list:
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            tokens.append(Token(kind, tok, line, m.start() - line_start + 1))
        line += tok.count("\n")
        if "\n" in tok:
            line_start = m.start() + tok.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def error(self, msg: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def expect_op(self, text: str) -> Token:
        t = self.peek()
        if t.kind != "op" or t.text != text:
            self.error(f"expected {text!r}, got {t.text!r}")
        return self.next()

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text.lower() == word

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            self.error(f"expected {word.upper()}, got {self.peek().text!r}")
        return self.next()

    def ident(self, what: str) -> Token:
        t = self.peek()
        if t.kind != "ident":
            self.error(f"expected {what}, got {t.text!r}")
        if t.text.lower() in KEYWORDS:
            self.error(f"{t.text!r} is a reserved word")
        return self.next()

    # -- pattern grammar ----------------------------------------------------

    def parse(self) -> PatternAst:
        self.expect_keyword("pattern")
        root = self.elem()
        where = None
        if self.at_keyword("where"):
            self.next()
            strat = self.next()
            if strat.text != STRATEGY:
                self.error(f"unsupported selection strategy {strat.text!r}", strat)
            self.expect_op("{")
            where = self.or_expr()
            self.expect_op("}")
        self.expect_keyword("within")
        window = self.duration()
        t = self.peek()
        if t.kind != "eof":
            self.error(f"trailing input {t.text!r}")
        return PatternAst(root=root, where=where, window=window)

    def duration(self) -> int:
        t = self.peek()
        if t.kind != "num":
            self.error("expected a duration value")
        value = float(self.next().text)
        unit = self.peek()
        if unit.kind != "ident":
            self.error("expected a time unit (msec|sec|min|hour)")
        name = self.next().text.lower().rstrip("s") or "s"
        if name not in UNITS_MS:
            self.error(f"unknown time unit {unit.text!r}", unit)
        ms = int(round(value * UNITS_MS[name]))
        if ms <= 0:
            self.error("window must be positive", t)
        return ms

    def elem(self) -> AstNode:
        t = self.peek()
        if t.kind == "ident" and t.text.lower() in ("seq", "and", "or"):
            op = self.next().text.lower()
            self.expect_op("(")
            children = [self.elem_or_item(op)]
            while self.peek().text == ",":
                self.next()
                children.append(self.elem_or_item(op))
            self.expect_op(")")
            if op == "or" and len(children) < 2:
                self.error("OR needs at least two alternatives", t)
            return OpNode(op, tuple(children))
        return self.item()

    def elem_or_item(self, parent_op: str) -> AstNode:
        t = self.peek()
        if self.at_keyword("not"):
            if parent_op == "or":
                # Spec'd restriction: a negation must sit directly under a
                # SEQ or AND so its temporal scope is well defined.
                self.error("NOT is only supported directly under SEQ or AND", t)
            return self.item()
        return self.elem()

    def item(self) -> AstNode:
        t = self.peek()
        if self.at_keyword("not"):
            self.next()
            self.expect_op("(")
            inner = self.item()
            if not isinstance(inner, Leaf):
                self.error("NOT applies to a single typed event", t)
            self.expect_op(")")
            return NotItem(inner)
        etype = self.ident("an event type").text
        nxt = self.peek()
        if nxt.text == "+":  # Kleene closure: TYPE+ role[]
            self.next()
            role = self.ident("a role name").text
            self.expect_op("[")
            self.expect_op("]")
            return Kleene(Leaf(etype, role))
        if nxt.text == "{":  # bounded repetition: TYPE{l,m} role[]
            self.next()
            lo = self.int_tok("lower repetition bound")
            self.expect_op(",")
            hi = self.int_tok("upper repetition bound")
            self.expect_op("}")
            role = self.ident("a role name").text
            self.expect_op("[")
            self.expect_op("]")
            if not (1 <= lo <= hi):
                self.error(f"invalid repetition bounds {{{lo},{hi}}}", nxt)
            return Kleene(Leaf(etype, role), lo, hi)
        role = self.ident("a role name").text
        return Leaf(etype, role)

    def int_tok(self, what: str) -> int:
        t = self.peek()
        if t.kind != "num" or "." in t.text:
            self.error(f"expected an integer {what}")
        return int(self.next().text)

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
            t = self.next()
            if self.peek().text == "(":
                self.next()
                inner = self.or_expr()
                self.expect_op(")")
                return P.Not(inner)
            return P.Not(self.not_expr())
        return self.cmp_expr()

    def cmp_expr(self) -> P.BoolExpr:
        t = self.peek()
        if t.text == "(":
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
        if op_tok.text in ("<", ">", "<=", ">=", "=", "!="):
            self.next()
            right = self.add_expr()
            return P.Cmp(op_tok.text, left, right)
        self.error("expected a comparison", op_tok)

    def add_expr(self) -> P.ValueExpr:
        node = self.mul_expr()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            node = P.Arith(op, node, self.mul_expr())
        return node

    def mul_expr(self) -> P.ValueExpr:
        node = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            node = P.Arith(op, node, self.unary())
        return node

    def unary(self) -> P.ValueExpr:
        if self.peek().text == "-":
            self.next()
            node = self.unary()
            if isinstance(node, P.Literal):
                return P.Literal(-node.value)
            return P.Arith("-", P.Literal(0.0), node)
        return self.primary()

    def primary(self) -> P.ValueExpr:
        t = self.peek()
        if t.text == "(":
            self.next()
            node = self.add_expr()
            self.expect_op(")")
            return node
        if t.kind == "num":
            self.next()
            return P.Literal(float(t.text))
        if t.kind == "ident":
            low = t.text.lower()
            if low in AGG_FNS and self.tokens[self.i + 1].text == "(":
                self.next()
                self.next()
                ref = self.attr_ref()
                if ref.index is None:
                    self.error(f"{low}() requires an iterated reference like r[i].x", t)
                self.expect_op(")")
                return P.Agg(low, ref)
            if low == "corr" and self.tokens[self.i + 1].text == "(":
                self.next()
                self.next()
                left = self.attr_ref()
                self.expect_op(",")
                right = self.attr_ref()
                self.expect_op(")")
                if left.index is not None or right.index is not None:
                    self.error("corr() takes plain role.attr references", t)
                return P.Corr(left, right)
            return self.attr_ref()
        self.error(f"expected a value, got {t.text!r}")

    def attr_ref(self) -> P.AttrRef:
        role = self.ident("a role name").text
        index = None
        if self.peek().text == "[":
            self.next()
            idx = self.ident("an iteration index")
            if idx.text != "i":
                self.error("iteration index must be 'i' or 'i-1'", idx)
            index = "i"
            if self.peek().text == "-":
                self.next()
                one = self.peek()
                if one.kind != "num" or one.text != "1":
                    self.error("iteration index must be 'i' or 'i-1'", one)
                self.next()
                index = "i-1"
            self.expect_op("]")
        self.expect_op(".")
        attr = self.ident("an attribute name").text
        return P.AttrRef(role, attr, index)


# ---------------------------------------------------------------------------
# Validation and DNF conversion


def _iter_items(node: AstNode):
    if isinstance(node, (Leaf, Kleene, NotItem)):
        yield node
    elif isinstance(node, OpNode):
        for c in node.children:
            yield from _iter_items(c)


def _item_role(item) -> str:
    if isinstance(item, Leaf):
        return item.role
    if isinstance(item, Kleene):
        return item.leaf.role
    return item.leaf.role


def _item_type(item) -> str:
    if isinstance(item, Leaf):
        return item.etype
    return item.leaf.etype


def _validate_ast(ast: PatternAst) -> None:
    role_types: dict = {}
    iter_roles = set()
    neg_roles = set()
    for item in _iter_items(ast.root):
        role, etype = _item_role(item), _item_type(item)
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

    for atom in P.split_conjunction(ast.where):
        negs_in_atom = set()
        for ref in P.bool_refs(atom):
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
        for sub in _walk_values(atom):
            if isinstance(sub, P.Agg) and sub.ref.role not in iter_roles:
                raise PatternError(f"{sub.render()}: aggregates require an iterated role")
        if len(negs_in_atom) > 1:
            raise PatternError(
                f"predicate {atom.render()} links two negated events; "
                "conditions may reference at most one negated role"
            )


def _walk_values(expr):
    if isinstance(expr, P.Cmp):
        yield from _walk_value_tree(expr.left)
        yield from _walk_value_tree(expr.right)
    elif isinstance(expr, P.Not):
        yield from _walk_values(expr.child)
    elif isinstance(expr, P.BoolOp):
        for c in expr.children:
            yield from _walk_values(c)


def _walk_value_tree(v):
    yield v
    if isinstance(v, P.Arith):
        yield from _walk_value_tree(v.left)
        yield from _walk_value_tree(v.right)


@dataclass(frozen=True)
class _Block:
    items: tuple  # AST items in declaration order
    pairs: frozenset  # (role_u, role_v) over all item roles


def _normalize(node: AstNode) -> list:
    """Return the list of DNF alternatives for an AST subtree."""
    if isinstance(node, (Leaf, Kleene, NotItem)):
        return [_Block((node,), frozenset())]
    assert isinstance(node, OpNode)
    if node.op == "or":
        out = []
        for c in node.children:
            out.extend(_normalize(c))
        return out
    # seq / and: cartesian product of child alternatives. For seq, every role
    # of an earlier child precedes every role of a later one; nested closures
    # make the resulting union transitively closed.
    out = []
    for combo in _product_blocks(node.children):
        items: tuple = ()
        pairs: set = set()
        groups = []
        for blk in combo:
            groups.append([_item_role(it) for it in blk.items])
            items += blk.items
            pairs |= blk.pairs
        if node.op == "seq":
            for gi in range(len(groups)):
                for gj in range(gi + 1, len(groups)):
                    for u in groups[gi]:
                        for v in groups[gj]:
                            pairs.add((u, v))
        out.append(_Block(items, frozenset(pairs)))
    return out


def _product_blocks(children) -> list:
    combos = [()]
    for child in children:
        alts = _normalize(child)
        combos = [base + (alt,) for base in combos for alt in alts]
    return combos


def to_dnf(ast: PatternAst) -> list:
    """Normalize a pattern to its list of chains, in deterministic order."""
    _validate_ast(ast)
    atoms = tuple(P.split_conjunction(ast.where))
    chains = []
    for block in _normalize(ast.root):
        chains.append(_block_to_chain(block, atoms, ast.window))
    chains.sort(key=lambda c: tuple(sorted(c.types)))
    return chains


def _block_to_chain(block: _Block, atoms: tuple, window: int) -> ChainPattern:
    positives = []
    negated = []
    iterated: Optional[IterSpec] = None
    types_seen: dict = {}
    for item in block.items:
        role, etype = _item_role(item), _item_type(item)
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
    pos_roles = {r for r, _ in positives}
    neg_roles = {r for r, _ in negated}

    order = frozenset(
        (u, v) for (u, v) in block.pairs if u in pos_roles and v in pos_roles
    )

    chain_roles = pos_roles | neg_roles
    chain_atoms = []
    neg_conds = {r: [] for r in neg_roles}
    for atom in atoms:
        roles = P.atom_roles(atom)
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
        render_pairs=block.pairs,
    )


# ---------------------------------------------------------------------------
# Rendering (round-trip support)


def parse_pattern(text: str) -> PatternAst:
    ast = _Parser(text).parse()
    _validate_ast(ast)
    return ast


def render_pattern(ast: PatternAst) -> str:
    body = _render_node(ast.root)
    where = ""
    if ast.where is not None:
        where = f"\nWHERE {STRATEGY} {{ {ast.where.render()} }}"
    return f"PATTERN {body}{where}\nWITHIN {ast.window} msec"


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
    """Render one chain back to pattern text (series-parallel reconstruction)."""
    items = {}
    for role, etype in chain.positives:
        if chain.iterated is not None and role == chain.iterated.role:
            it = chain.iterated
            items[role] = Kleene(Leaf(etype, role), it.lo, it.hi)
        else:
            items[role] = Leaf(etype, role)
    for n in chain.negations:
        items[n.role] = NotItem(Leaf(n.etype, n.role))
    order = list(items)
    node = _sp_tree(order, set(chain.render_pairs), items)
    atoms = list(chain.atoms)
    for n in chain.negations:
        atoms.extend(n.cond)
    where = ""
    if atoms:
        rendered = " and ".join(a.render() for a in atoms)
        where = f"\nWHERE {STRATEGY} {{ {rendered} }}"
    return f"PATTERN {_render_node(node)}{where}\nWITHIN {chain.window} msec"


def _sp_tree(roles: list, pairs: set, items: dict) -> AstNode:
    if len(roles) == 1:
        return items[roles[0]]
    # Series decomposition: grow a topological prefix; cut where the prefix
    # precedes everything that remains.
    layers = _series_layers(roles, pairs)
    if len(layers) > 1:
        children = tuple(_sp_tree(layer, _restrict(pairs, layer), items) for layer in layers)
        return OpNode("seq", children)
    comps = _parallel_components(roles, pairs)
    if len(comps) > 1:
        children = tuple(_sp_tree(comp, _restrict(pairs, comp), items) for comp in comps)
        return OpNode("and", children)
    raise PatternError("temporal constraints are not series-parallel")


def _restrict(pairs: set, roles: list) -> set:
    rs = set(roles)
    return {(u, v) for (u, v) in pairs if u in rs and v in rs}


def _series_layers(roles: list, pairs: set) -> list:
    remaining = list(_topo_sorted(roles, pairs))
    layers = []
    current: list = []
    for idx, r in enumerate(remaining):
        current.append(r)
        rest = remaining[idx + 1 :]
        if rest and all((u, v) in pairs for u in current for v in rest):
            layers.append(current)
            current = []
    layers.append(current)
    return layers


def _topo_sorted(roles: list, pairs: set) -> list:
    order = []
    pending = list(roles)
    placed: set = set()
    while pending:
        for r in pending:
            if all(u in placed for (u, v) in pairs if v == r):
                order.append(r)
                placed.add(r)
                pending.remove(r)
                break
        else:
            raise PatternError("temporal constraints contain a cycle")
    return order


def _parallel_components(roles: list, pairs: set) -> list:
    adj = {r: set() for r in roles}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    comps = []
    seen: set = set()
    for r in roles:
        if r in seen:
            continue
        comp, stack = [], [r]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            comp.append(x)
            stack.extend(adj[x] - seen)
        comps.append(sorted(comp, key=roles.index))
    return comps
