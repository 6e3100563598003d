import random
from dataclasses import replace
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep.oracle import enumerate_matches_chains
from cep.patterns import (ChainPattern, Kleene, Leaf, NotItem, OpNode,
                          ParseError, PatternAst, PatternError, parse_pattern,
                          render_chain, to_dnf)
from cep.predicates import (Agg, Arith, AttrRef, BoolOp, Cmp, Corr, Literal,
                            compile_atom, eval_atoms, split_conjunction)
from cep.runtime import match_key

PATTERN_1 = """
# high prices of three stocks in order
PATTERN SEQ(A a, B b, C c)
WHERE skip_till_any_match {
    a.price > 10 AND b.price > 10 AND c.price > 10
}
WITHIN 1 hour
"""

# SEQ(A a, NOT(C c), NOT(D d), B b), and a value over both negated roles.
_TWO_NEGATIONS = OpNode("seq", (Leaf("A", "a"), NotItem(Leaf("C", "c")),
                                NotItem(Leaf("D", "d")), Leaf("B", "b")))
_NEGATED_SUM = Arith("+", AttrRef("c", "x"), AttrRef("d", "x"))
_AB = OpNode("seq", (Leaf("A", "a"), Leaf("B", "b")))
_A_B_ITER = OpNode("seq", (Leaf("A", "a"), Kleene(Leaf("B", "b"))))
_A_X_GT_1 = Cmp(">", AttrRef("a", "x"), Literal(1.0))


class TestParse:
    def test_pattern_1(self):
        ast = parse_pattern(PATTERN_1)
        assert isinstance(ast.root, OpNode) and ast.root.op == "seq"
        assert [c for c in ast.root.children] == [
            Leaf("A", "a"), Leaf("B", "b"), Leaf("C", "c")]
        assert ast.window == 3_600_000
        assert len(split_conjunction(ast.where)) == 3

    def test_minimal_pattern(self):
        ast = parse_pattern("PATTERN SEQ(A a) WITHIN 1 hour")
        assert ast.root.children == (Leaf("A", "a"),)
        assert ast.where is None

    def test_pattern_5_kleene(self):
        ast = parse_pattern("PATTERN SEQ(A a, B+ b[], C c) WITHIN 1 hour")
        assert ast.root.children[1] == Kleene(Leaf("B", "b"))

    def test_repeat_syntax(self):
        ast = parse_pattern("PATTERN SEQ(A a, B{2,3} b[]) WITHIN 5 min")
        assert ast.root.children[1] == Kleene(Leaf("B", "b"), 2, 3)

    def test_time_units(self):
        for text, ms in [("1 hour", 3_600_000), ("2 min", 120_000),
                         ("3 sec", 3000), ("250 msec", 250)]:
            assert parse_pattern(f"PATTERN A a WITHIN {text}").window == ms

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_pattern("PATTERN SEQ(A a,\n B) WITHIN 1 hour")
        assert err.value.line == 2

    @pytest.mark.parametrize("text, message", [
        ("# stocks\nPATTERN SEQ(A a,\n\n\t# tab-indented comment\n"
         "\tB b; C c)\nWITHIN 1 hour\n",
         "5:5: unexpected character ';'"),
        ("PATTERN SEQ(A a)\n# window\nWITHIN 1 hour\n\n\t  extra # not a clause\n",
         "5:4: trailing input 'extra'"),
        ("PATTERN SEQ(A a, B b)\n\t# the clause is misspelt\n"
         "WHEN skip_till_any_match { a.x > 1 }\nWITHIN 1 hour",
         "3:1: expected WITHIN, got 'WHEN'"),
        ("PATTERN SEQ(A a)\n\nWITHIN\t# long\n\t5 days",
         "4:4: unknown time unit 'days'"),
        ("PATTERN SEQ(\n\tA a,  # first\n\tB and\n) WITHIN 1 hour",
         "3:4: 'and' is a reserved word"),
        ("PATTERN SEQ(A a,\n# bounded\n\tB{1.5,3} b[])\nWITHIN 1 hour",
         "3:4: expected an integer lower repetition bound"),
        ("PATTERN SEQ(A a)\nWITHIN 5 # no unit\n",
         "3:1: expected a time unit (msec|sec|min|hour)"),
        ("PATTERN SEQ(A a)\n\tWITHIN 5 # no unit",
         "2:20: expected a time unit (msec|sec|min|hour)"),
    ])
    def test_parse_error_positions(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_pattern(text)
        assert str(err.value) == message
        line, col = message.split(":")[:2]
        assert (err.value.line, err.value.col) == (int(line), int(col))

    @pytest.mark.parametrize("text, message", [
        (f"PATTERN SEQ(A a)\nWITHIN {'9' * 400} msec",
         "2:8: the duration value is too large"),
        # Finite as written, but not once scaled to milliseconds.
        (f"PATTERN SEQ(A a)\nWITHIN 1{'0' * 305} hours",
         "2:8: the window is too large"),
        # More digits than int() converts.
        (f"PATTERN SEQ(A a, B{{1,{'9' * 5000}}} b[])\nWITHIN 1 hour",
         "1:22: the upper repetition bound is too large"),
        (f"PATTERN SEQ(A a)\nWHERE skip_till_any_match {{ a.x > -{'9' * 400} }}"
         "\nWITHIN 1 hour", "2:36: the literal is too large"),
    ], ids=["window", "scaled-window", "repetition-bound", "literal"])
    def test_a_number_that_does_not_fit_is_a_parse_error(self, text,
                                                        message):
        with pytest.raises(ParseError) as err:
            parse_pattern(text)
        assert str(err.value) == message

    def test_duplicate_role_same_conjunct(self):
        with pytest.raises(PatternError, match="twice"):
            to_dnf(parse_pattern("PATTERN SEQ(A a, A a) WITHIN 1 hour"))

    def test_role_with_conflicting_types(self):
        with pytest.raises(PatternError, match="declared with types"):
            parse_pattern("PATTERN SEQ(A a, B a) WITHIN 1 hour")

    def test_duplicate_type_same_conjunct(self):
        with pytest.raises(PatternError, match="distinct"):
            to_dnf(parse_pattern("PATTERN SEQ(A a, A b) WITHIN 1 hour"))

    def test_unknown_role_in_where(self):
        with pytest.raises(PatternError, match="unknown role"):
            parse_pattern(
                "PATTERN SEQ(A a) WHERE skip_till_any_match { z.x > 1 } "
                "WITHIN 1 hour")

    def test_aggregate_needs_iterated_role(self):
        with pytest.raises(PatternError, match="iterated"):
            parse_pattern(
                "PATTERN SEQ(A a, B b) WHERE skip_till_any_match "
                "{ avg(b[i].x) > 1 } WITHIN 1 hour")

    def test_bad_repeat_bounds(self):
        with pytest.raises(ParseError, match="bounds"):
            parse_pattern("PATTERN SEQ(A a, B{3,2} b[]) WITHIN 1 hour")

    def test_not_under_or_rejected(self):
        with pytest.raises(ParseError, match="NOT"):
            parse_pattern("PATTERN OR(NOT(B b), A a) WITHIN 1 hour")

    def test_negated_iteration_rejected(self):
        with pytest.raises(ParseError):
            parse_pattern("PATTERN SEQ(A a, NOT(B+ b[])) WITHIN 1 hour")

    def test_wrong_strategy_rejected(self):
        with pytest.raises(ParseError, match="strategy"):
            parse_pattern(
                "PATTERN SEQ(A a) WHERE strict_contiguity { a.x > 1 } "
                "WITHIN 1 hour")

    def test_all_negative_rejected(self):
        with pytest.raises(PatternError, match="positive"):
            parse_pattern("PATTERN AND(NOT(A a), NOT(B b)) WITHIN 1 hour")

    @pytest.mark.parametrize("where", ["1 > 2", "not (1 > 2)",
                                       "a.x > 1 and 2 < 3"])
    def test_atom_naming_no_event_rejected(self, where):
        with pytest.raises(PatternError, match="names no event"):
            parse_pattern("PATTERN SEQ(A a, B b) WHERE skip_till_any_match "
                          f"{{ {where} }} WITHIN 1 hour")

    @pytest.mark.parametrize("root, where, message", [
        (OpNode("seq", (Leaf("A", "a"),)),
         Cmp(">", AttrRef("z", "x"), Literal(1.0)),
         "unknown role 'z' in WHERE clause"),
        (OpNode("seq", (Leaf("A", "a"), Leaf("B", "a"))), None,
         "role 'a' declared with types 'A' and 'B'"),
        (OpNode("seq", (Leaf("A", "a"), Kleene(Leaf("B", "b")),
                        NotItem(Leaf("B", "b")))), None,
         "a negated event cannot be iterated"),
        # An atom's reference errors come before its aggregate errors, and
        # those before the two-negations error.
        (OpNode("seq", (Leaf("A", "a"), Leaf("B", "b"))),
         Cmp(">", Agg("avg", AttrRef("b", "x")), AttrRef("z", "x")),
         "unknown role 'z' in WHERE clause"),
        (_TWO_NEGATIONS,
         Cmp(">", Agg("avg", AttrRef("b", "x")), _NEGATED_SUM),
         "avg(b.x): aggregates require an iterated role"),
        (_TWO_NEGATIONS, Cmp(">", AttrRef("a", "x"), _NEGATED_SUM),
         "predicate a.x > (c.x + d.x) links two negated events; "
         "conditions may reference at most one negated role"),
        # Nodes the parser never builds, with the parser's messages.
        (OpNode("xor", (Leaf("A", "a"), Leaf("B", "b"))), None,
         "unknown operator 'xor'"),
        (OpNode("or", (Leaf("A", "a"),)), None,
         "OR needs at least two alternatives"),
        (OpNode("or", (NotItem(Leaf("B", "b")), Leaf("A", "a"))), None,
         "NOT is only supported directly under SEQ or AND"),
        (OpNode("seq", (Leaf("A", "a"), NotItem(Kleene(Leaf("B", "b"))))),
         None, "NOT applies to a single typed event"),
        (OpNode("seq", (Leaf("A", "a"), Kleene(NotItem(Leaf("B", "b"))))),
         None, "repetition applies to a single typed event"),
        (OpNode("seq", (Leaf("A", "a"), Kleene(Leaf("B", "b"), 3, 1))), None,
         "invalid repetition bounds {3,1}"),
        (OpNode("seq", (Leaf("A", "a"), Kleene(Leaf("B", "b"), 0, 2))), None,
         "invalid repetition bounds {0,2}"),
        (OpNode("seq", (Leaf("A", "a"), Kleene(Leaf("B", "b"), 2))), None,
         "invalid repetition bounds {2,None}"),
        (OpNode("seq", (Leaf("A", "a"), "B b")), None,
         "not a pattern node: 'B b'"),
        # WHERE nodes the parser never builds: each used to evaluate as
        # another node, or fail only mid-run.
        (_AB, BoolOp("xor", (_A_X_GT_1, Cmp(">", AttrRef("b", "x"),
                                             Literal(1.0)))),
         "unknown boolean operator 'xor'"),
        (_AB, BoolOp("or", (_A_X_GT_1,)), "or needs at least two operands"),
        (_AB, Cmp("~", AttrRef("a", "x"), Literal(1.0)),
         "unknown comparison '~'"),
        (_A_B_ITER, Cmp(">", Agg("median", AttrRef("b", "x", "i")),
                        Literal(1.0)),
         "unknown aggregate 'median'"),
        (_AB, Cmp(">", Arith("%", AttrRef("a", "x"), Literal(2.0)),
                  Literal(1.0)),
         "unknown arithmetic operator '%'"),
        (_A_B_ITER, Cmp(">", Corr(AttrRef("b", "h", "i"), AttrRef("a", "h")),
                        Literal(0.5)),
         "corr() takes plain role.attr references"),
        (_A_B_ITER, Cmp(">", AttrRef("b", "x", "j"), Literal(1.0)),
         "iteration index must be 'i' or 'i-1'"),
        (_AB, Cmp(">", AttrRef("a", "x"), Literal(float("inf"))),
         "a literal must be a finite number, got inf"),
        (_AB, Cmp(">", AttrRef("a", "x"), Literal(float("nan"))),
         "a literal must be a finite number, got nan"),
        (_AB, Cmp(">", AttrRef("a", "x"), Literal("1")),
         "a literal must be a finite number, got '1'"),
        (_AB, AttrRef("a", "x"),
         "not a boolean expression: AttrRef(role='a', attr='x', index=None)"),
        (_AB, Cmp(">", AttrRef("a", "x"), _A_X_GT_1),
         "not a value expression: Cmp(op='>', left=AttrRef(role='a', "
         "attr='x', index=None), right=Literal(value=1.0))"),
        (_A_B_ITER, Cmp(">", Agg("avg", Literal(1.0)), Literal(1.0)),
         "not an attribute reference: Literal(value=1.0)"),
    ])
    def test_ast_is_validated_when_built(self, root, where, message):
        with pytest.raises(PatternError) as err:
            PatternAst(root=root, where=where, window=1000)
        assert str(err.value) == message

    @pytest.mark.parametrize("window", [0, 0.5, -1000])
    def test_hand_built_window_is_validated(self, window):
        with pytest.raises(PatternError, match="^window must be positive$"):
            PatternAst(root=Leaf("A", "a"), where=None, window=window)

    @pytest.mark.parametrize("text, message", [
        ("PATTERN SEQ(A a, A a) WITHIN 1 hour", "twice"),
        ("PATTERN SEQ(A a, A b) WITHIN 1 hour", "distinct"),
        ("PATTERN OR(SEQ(A a, B b), SEQ(C c, D d))\n"
         "WHERE skip_till_any_match { a.x > d.x }\nWITHIN 1 hour", "outside this"),
        ("PATTERN OR(SEQ(NOT(X x)), A a) WITHIN 1 hour", "positive event"),
    ])
    def test_conjunct_errors_come_from_to_dnf(self, text, message):
        ast = parse_pattern(text)
        with pytest.raises(PatternError, match=message):
            to_dnf(ast)

    def test_roundtrip_through_render(self):
        from cep.patterns import render_pattern

        ast = parse_pattern(PATTERN_1)
        again = parse_pattern(render_pattern(ast))
        assert again.root == ast.root
        assert again.window == ast.window


class TestToDnf:
    def test_or_in_sequence_distributes(self):
        ast = parse_pattern(
            "PATTERN SEQ(A a, OR(B b, C c), D d) WITHIN 1 hour")
        chains = to_dnf(ast)
        assert [c.roles for c in chains] == [("a", "b", "d"), ("a", "c", "d")]
        assert chains[0].temporal_order == frozenset(
            {("a", "b"), ("b", "d"), ("a", "d")})
        assert chains[1].temporal_order == frozenset(
            {("a", "c"), ("c", "d"), ("a", "d")})

    def test_partial_sequence_single_chain(self):
        ast = parse_pattern(
            "PATTERN AND(SEQ(A a, B b), SEQ(C c, D d), E e) WITHIN 1 hour")
        (chain,) = to_dnf(ast)
        assert set(chain.roles) == {"a", "b", "c", "d", "e"}
        assert chain.temporal_order == frozenset({("a", "b"), ("c", "d")})

    def test_plain_sequence_total_order(self):
        (chain,) = to_dnf(parse_pattern("PATTERN SEQ(A a, B b, C c) WITHIN 1 hour"))
        assert chain.temporal_order == frozenset(
            {("a", "b"), ("b", "c"), ("a", "c")})

    def test_negation_neighbours(self):
        ast = parse_pattern(
            "PATTERN SEQ(A a, NOT(B b), C c, D d)\n"
            "WHERE skip_till_any_match { b.x < c.y }\nWITHIN 1 hour")
        (chain,) = to_dnf(ast)
        (neg,) = chain.negations
        assert neg.prec_roles == frozenset({"a"})
        assert neg.succ_roles == frozenset({"c", "d"})
        assert len(neg.cond) == 1
        assert not chain.atoms

    def test_cross_branch_predicate_rejected(self):
        with pytest.raises(PatternError, match="outside this"):
            to_dnf(parse_pattern(
                "PATTERN OR(SEQ(A a, B b), SEQ(C c, D d))\n"
                "WHERE skip_till_any_match { a.x > d.x }\nWITHIN 1 hour"))

    def test_deterministic_chain_order(self):
        ast = parse_pattern(
            "PATTERN OR(SEQ(C c, D d, E e), SEQ(A a, B b, C c)) WITHIN 1 hour")
        chains = to_dnf(ast)
        assert [tuple(sorted(c.types)) for c in chains] == [
            ("a", "b", "c"), ("c", "d", "e")]

    def test_idempotent_through_render(self):
        texts = [
            PATTERN_1,
            "PATTERN AND(SEQ(A a, B b), SEQ(C c, D d), E e) WITHIN 1 hour",
            "PATTERN SEQ(A a, OR(B b, C c), D d) WITHIN 20 min",
            "PATTERN SEQ(NOT(X h), A a, AND(B b, C c)) WITHIN 90 sec",
            "PATTERN SEQ(A a, B{1,2} b[], C c)\n"
            "WHERE skip_till_any_match { avg(b[i].x) <= 2 and a.x < c.x }\n"
            "WITHIN 8 msec",
            "PATTERN AND(A a, NOT(B b), NOT(C c)) WITHIN 1 hour",
        ]
        for text in texts:
            chains = to_dnf(parse_pattern(text))
            for chain in chains:
                again = to_dnf(parse_pattern(render_chain(chain)))
                assert len(again) == 1
                assert again[0].key() == chain.key(), text

    def test_idempotent_on_random_trees(self):
        rng = random.Random(11)
        from cep.difftest import random_pattern

        for _ in range(120):
            chains = to_dnf(parse_pattern(random_pattern(rng)))
            for chain in chains:
                (again,) = to_dnf(parse_pattern(render_chain(chain)))
                assert again.key() == chain.key()
                # The order is a strict partial order, closed under
                # transitivity, as the runtimes and the oracle assume.
                order = chain.temporal_order
                assert {(u, w) for (u, v) in order for (x, w) in order
                        if v == x} <= order
                assert not any((v, u) in order for (u, v) in order)

    @pytest.mark.parametrize("value", [0.00001, -0.00001, 1.5e-07, 1e20])
    def test_a_literal_renders_as_the_parser_reads_it(self, value):
        # Rendered positionally, never with an exponent.
        where = Cmp(">", AttrRef("a", "x"), Literal(value))
        (chain,) = to_dnf(PatternAst(root=_AB, where=where, window=1000))
        (again,) = to_dnf(parse_pattern(render_chain(chain)))
        assert [a.expr for a in again.atoms] == [where]

    def test_render_refuses_a_hand_built_chain(self):
        (chain,) = to_dnf(parse_pattern("PATTERN SEQ(A a, B b) WITHIN 1 hour"))
        with pytest.raises(PatternError, match="to_dnf"):
            render_chain(replace(chain, text=None))

    def test_seq_subtree_order_is_total_within_chain(self):
        ast = parse_pattern(
            "PATTERN AND(SEQ(A a, B b, C c), D d) WITHIN 1 hour")
        (chain,) = to_dnf(ast)
        sub = {(u, v) for (u, v) in chain.temporal_order
               if u in ("a", "b", "c") and v in ("a", "b", "c")}
        assert sub == {("a", "b"), ("b", "c"), ("a", "c")}


def _ast_matches(ast, stream):
    """Independent recursive AST semantics (negation-free patterns only)."""

    def walk(node):
        # Returns a list of alternatives; each alternative is a list of
        # (binding, group) pairs where group carries the item's role set.
        if isinstance(node, Leaf):
            return [[({node.role: e}, (node.role,)) for e in stream
                     if e.etype == node.etype]]

        if isinstance(node, Kleene):
            events = [e for e in stream if e.etype == node.leaf.etype]
            hi = len(events) if node.hi is None else min(node.hi, len(events))
            subsets = [
                {node.leaf.role: combo}
                for size in range(node.lo, hi + 1)
                for combo in combinations(events, size)
            ]
            return [[(b, (node.leaf.role,)) for b in subsets]]

        assert isinstance(node, OpNode)
        if node.op == "or":
            out = []
            for child in node.children:
                out.extend(walk(child))
            return out
        child_alt_lists = [walk(c) for c in node.children]
        out = []
        for combo in product(*child_alt_lists):
            merged = []
            for parts in product(*combo):
                binding = {}
                for b, _ in parts:
                    binding.update(b)
                if node.op == "seq" and not _ordered(parts):
                    continue
                merged.append((binding, tuple(binding)))
            out.append(merged)
        return out

    def _ordered(parts):
        for i in range(len(parts) - 1):
            hi = max(_keys(parts[i][0]))
            lo = min(_keys(parts[i + 1][0]))
            if not hi < lo:
                return False
        return True

    def _keys(binding):
        out = []
        for v in binding.values():
            members = v if isinstance(v, tuple) else (v,)
            out.extend(e.key for e in members)
        return out

    results = []
    atoms = tuple(map(compile_atom, split_conjunction(ast.where)))
    for alternative in walk(ast.root):
        for binding, _ in alternative:
            ts = [e.ts for v in binding.values()
                  for e in (v if isinstance(v, tuple) else (v,))]
            if max(ts) - min(ts) > ast.window:
                continue
            if atoms and not eval_atoms(atoms, binding):
                continue
            results.append(match_key(binding))
    return sorted(results)


def test_dnf_union_equals_ast_semantics():
    rng = random.Random(3)
    from cep.difftest import random_pattern, random_stream

    checked = 0
    for _ in range(150):
        text = random_pattern(rng)
        ast = parse_pattern(text)
        chains = to_dnf(ast)
        if any(c.negations for c in chains):
            continue  # the independent evaluator covers negation-free trees
        types = sorted({t for c in chains for t in c.types.values()})
        stream = random_stream(rng, types, 14)
        expected = _ast_matches(ast, stream)
        got = sorted(match_key(b)
                     for b in enumerate_matches_chains(chains, stream, cap=20))
        assert got == expected, text
        checked += 1
    assert checked > 40


@st.composite
def _ordered_keys(draw):
    """Roles with the (first, last) keys of an order-keeping binding and a
    transitively closed temporal order that the keys keep.

    ``u`` before ``v`` holds only if ``u``'s last key is below ``v``'s
    first: that relation is transitive, so the closure of any part of it
    stays inside it. A role with several keys stands for a Kleene role.
    """
    n = draw(st.integers(1, 6))
    keys = {}
    for i in range(n):
        first = draw(st.integers(0, 20))
        keys[f"r{i}"] = (first, first + draw(st.integers(0, 4)))
    fits = sorted((u, v) for u in keys for v in keys
                  if keys[u][1] < keys[v][0])
    order = set(draw(st.lists(st.sampled_from(fits), unique=True))
                if fits else ())
    while True:
        more = {(u, w) for (u, v) in order for (x, w) in order if v == x}
        if more <= order:
            break
        order |= more
    chain = ChainPattern(positives=tuple((r, r.upper()) for r in keys),
                         temporal_order=frozenset(order), negations=(),
                         iterated=None, atoms=(), window=1)
    return chain, keys


@given(_ordered_keys(), st.data())
@settings(deadline=None, max_examples=300)
def test_nearest_roles_bound_a_search_as_the_full_sets_do(ordered, data):
    # A search is bounded below by the largest last key of the roles that
    # must precede and above by the smallest first key of those that must
    # succeed (Runtime._lower_bound and _upper_bound).
    chain, keys = ordered
    roles = sorted(keys)
    before = frozenset(data.draw(st.lists(st.sampled_from(roles))))
    after = frozenset(data.draw(st.lists(st.sampled_from(roles))))
    near_before, near_after = chain.nearest(before, after)
    assert near_before <= before and near_after <= after
    assert bool(near_before) == bool(before)
    assert bool(near_after) == bool(after)
    if before:
        assert max(keys[r][1] for r in near_before) == \
            max(keys[r][1] for r in before)
    if after:
        assert min(keys[r][0] for r in near_after) == \
            min(keys[r][0] for r in after)
