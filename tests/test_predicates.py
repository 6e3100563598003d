import operator

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cep.events import Event, StreamDataError
from cep.metrics import Metrics
from cep.patterns import parse_pattern
from cep.predicates import (MEMBER, Agg, Arith, AttrRef, BoolOp, Cmp, Corr,
                            Literal, Not, PredicateError, compile_atom,
                            eval_atoms, split_conjunction, split_kleene)
from cep.stats import UndefinedCorrelationError, pearson


def _atoms(where: str, pattern="SEQ(A a, B b, C c)"):
    ast = parse_pattern(
        f"PATTERN {pattern} WHERE skip_till_any_match {{ {where} }} "
        "WITHIN 1 hour")
    return split_conjunction(ast.where)


def _iter_atoms(where: str):
    return _atoms(where, pattern="SEQ(A a, B+ b[], C c)")


def ev(etype, ts, seq, **attrs):
    return Event(etype, ts, seq, attrs)


def _holds(expr, binding) -> bool:
    """Compile one atom and evaluate it against ``binding``."""
    return eval_atoms((compile_atom(expr),), binding)


def test_arithmetic_binds_tighter_than_comparison():
    (atom,) = _atoms("a.x + 2 * b.x > 10 - c.x")
    binding = {"a": ev("A", 1, 1, x=2.0), "b": ev("B", 2, 2, x=3.0),
               "c": ev("C", 3, 3, x=1.0)}
    assert _holds(atom, binding) is False  # 2 + 6 = 8 vs 9
    binding["c"] = ev("C", 3, 3, x=3.0)
    assert _holds(atom, binding) is True  # 8 > 7


def test_boolean_connectives_and_precedence():
    atoms = _atoms("a.x > 1 and b.x > 1 or c.x > 1")
    # OR binds loosest: one atom of shape (a and b) or c.
    assert len(atoms) == 1
    binding = {"a": ev("A", 1, 1, x=0.0), "b": ev("B", 2, 2, x=0.0),
               "c": ev("C", 3, 3, x=5.0)}
    assert _holds(atoms[0], binding) is True


def test_not_connective():
    (atom,) = _atoms("not (a.x = b.x)")
    assert _holds(atom, {"a": ev("A", 1, 1, x=1.0),
                            "b": ev("B", 2, 2, x=2.0)}) is True


def test_unary_minus():
    (atom,) = _atoms("a.x < -1")
    assert _holds(atom, {"a": ev("A", 1, 1, x=-2.0)}) is True


def test_string_equality():
    (atom,) = _atoms("a.region = b.region")
    assert _holds(atom, {"a": ev("A", 1, 1, region="Eu"),
                            "b": ev("B", 2, 2, region="Eu")}) is True


def test_type_mismatch_is_data_error():
    (atom,) = _atoms("a.x = b.x")
    with pytest.raises(StreamDataError):
        _holds(atom, {"a": ev("A", 1, 1, x="s"), "b": ev("B", 2, 2, x=1.0)})
    # A history has no order against a number.
    (atom,) = _atoms("a.history > 0.9")
    with pytest.raises(StreamDataError, match=r"comparing \(1\.0, 2\.0\) > 0\.9"):
        _holds(atom, {"a": ev("A", 1, 1, history=(1.0, 2.0))})


def test_division_by_zero_is_data_error():
    (atom,) = _atoms("a.x / b.x > 1")
    with pytest.raises(StreamDataError):
        _holds(atom, {"a": ev("A", 1, 1, x=1.0), "b": ev("B", 2, 2, x=0.0)})


def test_missing_attribute_is_data_error():
    (atom,) = _atoms("a.x > 1")
    with pytest.raises(StreamDataError):
        _holds(atom, {"a": ev("A", 1, 1, y=1.0)})


def test_each_member_quantification():
    (atom,) = _iter_atoms("b[i].x >= 2")
    members = (ev("B", 1, 1, x=2.0), ev("B", 2, 2, x=3.0))
    assert _holds(atom, {"b": members}) is True
    members = (ev("B", 1, 1, x=2.0), ev("B", 2, 2, x=1.0))
    assert _holds(atom, {"b": members}) is False


def test_adjacent_pair_quantification():
    (atom,) = _iter_atoms("b[i].x = b[i-1].x")
    same = tuple(ev("B", i, i, x=7.0) for i in range(3))
    assert _holds(atom, {"b": same}) is True
    # A singleton has no adjacent pair, so the constraint holds vacuously.
    assert _holds(atom, {"b": same[:1]}) is True
    mixed = (ev("B", 1, 1, x=7.0), ev("B", 2, 2, x=8.0))
    assert _holds(atom, {"b": mixed}) is False


def test_split_kleene_sorts_atoms_by_what_decides_them():
    atoms = _iter_atoms(
        "b[i].x >= a.x and b[i].x = b[i-1].x and b[i].y = b[i-1].y"
        " and avg(b[i].x) <= 1 and b[i].x <= avg(b[i].x) and a.x < c.x")
    atoms = tuple(map(compile_atom, atoms))
    member, pair, whole = split_kleene(atoms, "b")
    assert [a.render() for a in member] == ["b[i].x >= a.x"]
    assert [a.render() for a in pair] == ["b[i].x = b[i-1].x",
                                          "b[i].y = b[i-1].y"]
    assert [a.render() for a in whole] == [
        "avg(b[i].x) <= 1", "b[i].x <= avg(b[i].x)", "a.x < c.x"]
    # Grouping on y implies the y equality, and only that one.
    _, pair, _ = split_kleene(atoms, "b", group_by="y")
    assert [a.render() for a in pair] == ["b[i].x = b[i-1].x"]
    # Atoms quantified over another role are decided on the whole subset.
    member, pair, whole = split_kleene(atoms[:2], "c")
    assert (member, pair, len(whole)) == ((), (), 2)


def test_aggregates():
    members = tuple(ev("B", i, i, x=float(i)) for i in (1, 2, 3))
    binding = {"b": members, "c": ev("C", 9, 9, y=2.5)}
    (avg,) = _iter_atoms("avg(b[i].x) < c.y")
    assert _holds(avg, binding) is True
    (s,) = _iter_atoms("sum(b[i].x) = 6")
    assert _holds(s, binding) is True
    (mn,) = _iter_atoms("min(b[i].x) = 1")
    assert _holds(mn, binding) is True
    (mx,) = _iter_atoms("max(b[i].x) = 3")
    assert _holds(mx, binding) is True
    (cnt,) = _iter_atoms("count(b[i].x) = 3")
    assert _holds(cnt, binding) is True


def test_corr_predicate():
    (atom,) = _atoms("corr(a.history, b.history) > 0.5")
    binding = {"a": ev("A", 1, 1, history=(1.0, 2.0, 3.0)),
               "b": ev("B", 2, 2, history=(2.0, 4.0, 6.0))}
    assert _holds(atom, binding) is True


def test_zero_variance_correlation_is_false_not_an_error():
    (atom,) = _atoms("corr(a.history, b.history) > -2")
    binding = {"a": ev("A", 1, 1, history=(1.0, 1.0, 1.0)),
               "b": ev("B", 2, 2, history=(2.0, 4.0, 6.0))}
    assert _holds(atom, binding) is False


def test_underflowing_correlation_is_false_not_an_error():
    # Both histories vary, but the product of their variances underflows.
    (atom,) = _atoms("corr(a.history, b.history) > 0.9")
    history = (0.0, 0.0, 0.0, 0.0, 3.8e-125)
    binding = {"a": ev("A", 1, 1, history=history),
               "b": ev("B", 2, 2, history=history)}
    assert _holds(atom, binding) is False


def test_one_point_correlation_is_false_not_an_error():
    (atom,) = _atoms("corr(a.history, b.history) > -2")
    binding = {"a": ev("A", 1, 1, history=(1.0,)),
               "b": ev("B", 2, 2, history=(2.0,))}
    assert _holds(atom, binding) is False


def test_correlation_of_different_lengths_is_a_data_error():
    (atom,) = _atoms("corr(a.history, b.history) > 0.5")
    binding = {"a": ev("A", 1, 1, history=(1.0, 2.0)),
               "b": ev("B", 2, 2, history=(1.0, 2.0, 3.0))}
    with pytest.raises(StreamDataError, match="length mismatch: 2 vs 3"):
        _holds(atom, binding)


def test_iterated_reference_outside_quantified_atom_is_an_error():
    # The parser rejects b.x for an iterated b; a hand-built atom reaches
    # the evaluator's own check.
    atom = Cmp(">", AttrRef("b", "x"), Literal(1.0))
    with pytest.raises(PredicateError, match="outside quantified atom"):
        _holds(atom, {"b": (ev("B", 1, 1, x=2.0),)})


def test_aggregate_over_a_non_iterated_role_is_an_error():
    avg_b = Agg("avg", AttrRef("b", "x", "i"))
    with pytest.raises(PredicateError, match="role is not iterated"):
        _holds(Cmp("<", avg_b, Literal(5.0)), {"b": ev("B", 1, 1, x=2.0)})
    # Quantified over c, so the aggregate node itself meets the bare b.
    atom = Cmp("<", AttrRef("c", "y", "i"), avg_b)
    with pytest.raises(PredicateError, match=r"avg\(b\[i\]\.x\)"):
        _holds(atom, {"b": ev("B", 1, 1, x=2.0),
                         "c": (ev("C", 2, 2, y=1.0),)})


@pytest.mark.parametrize("fn", ["avg", "sum", "min", "max"])
def test_aggregate_over_a_none_member_is_a_data_error(fn):
    atom = Cmp("<", Agg(fn, AttrRef("b", "x", "i")), Literal(5.0))
    members = (ev("B", 1, 1, x=1.0), ev("B", 2, 2, x=None))
    with pytest.raises(StreamDataError,
                       match=rf"^{fn}\(b\[i\]\.x\) over a member valued None$"):
        _holds(atom, {"b": members})


def test_count_over_a_none_member_counts_it():
    atom = Cmp("=", Agg("count", AttrRef("b", "x", "i")), Literal(2.0))
    members = (ev("B", 1, 1, x=1.0), ev("B", 2, 2, x=None))
    assert _holds(atom, {"b": members}) is True


def test_corr_over_a_non_history_attribute_is_a_data_error():
    (atom,) = _atoms("corr(a.x, b.x) > 0.5")
    with pytest.raises(StreamDataError, match="history lists"):
        _holds(atom, {"a": ev("A", 1, 1, x=1.0), "b": ev("B", 2, 2, x=2.0)})


def test_atom_roles():
    (atom,) = _atoms("a.x + b.x > c.x")
    assert compile_atom(atom).roles == frozenset({"a", "b", "c"})
    # An aggregate's reference counts, and an indexed one names its role.
    (atom,) = _iter_atoms("avg(b[i].x) < c.y")
    assert compile_atom(atom).roles == frozenset({"b", "c"})


def test_evaluation_counter():
    atoms = tuple(map(compile_atom, _atoms("a.x > 1 and b.x > 1")))
    counter = Metrics()
    eval_atoms(atoms, {"a": ev("A", 1, 1, x=2.0), "b": ev("B", 2, 2, x=2.0)},
               counter)
    assert counter.predicate_evaluations == 2


# -- compiled atoms against a tree-walking reference --------------------------
#
# Roles a and c are bound to single events, b to a tuple of members. Values
# cover floats, ints, strings, histories and None; an attribute may also be
# missing. Each case must give the reference's value, or raise the
# reference's exception type with the same message.

_ATTRS = ("x", "y", "h")
_HISTORIES = st.lists(st.sampled_from([0.0, 1.0, 2.5, -1.0, 4.0]),
                      max_size=4).map(tuple)
_MISSING = object()
_VALUES = st.one_of(st.floats(-5, 5), st.floats(-5, 5),
                    st.sampled_from([0.0, 1.0, float("inf")]),
                    st.integers(-2, 2), st.sampled_from(["Eu", "Us"]),
                    _HISTORIES, _HISTORIES, st.none(), st.just(_MISSING))
_EVENT_ATTRS = st.lists(_VALUES, min_size=len(_ATTRS),
                        max_size=len(_ATTRS)).map(
    lambda values: {name: v for name, v in zip(_ATTRS, values)
                    if v is not _MISSING})

_PLAIN_REFS = st.builds(AttrRef, st.sampled_from(("a", "c")),
                        st.sampled_from(_ATTRS))
_MEMBER_REFS = st.builds(AttrRef, st.just("b"), st.sampled_from(_ATTRS),
                         st.sampled_from(("i", "i-1")))
_REFS = st.one_of(_PLAIN_REFS, _MEMBER_REFS)
_LEAVES = st.one_of(
    st.builds(Literal, st.one_of(st.floats(-5, 5),
                                 st.sampled_from([0.0, 0.9, 1.0]))),
    _REFS,
    st.builds(Agg, st.sampled_from(("avg", "sum", "min", "max", "count")),
              st.builds(AttrRef, st.just("b"), st.sampled_from(_ATTRS),
                        st.just("i"))),
    st.builds(Corr, _REFS, _REFS),
)
_VALUE_EXPRS = st.recursive(
    _LEAVES, lambda inner: st.builds(Arith, st.sampled_from("+-*/"), inner,
                                     inner), max_leaves=3)
_BOOL_EXPRS = st.recursive(
    st.builds(Cmp, st.sampled_from(("<", "<=", ">", ">=", "=", "!=")),
              _VALUE_EXPRS, _VALUE_EXPRS),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(BoolOp, st.sampled_from(("and", "or")),
                  st.lists(inner, min_size=2, max_size=3).map(tuple))),
    max_leaves=4)


@st.composite
def _bindings(draw):
    def event(etype, k):
        return Event(etype, k, k, draw(_EVENT_ATTRS))

    members = draw(st.integers(1, 3))
    return {"a": event("A", 1), "b": tuple(event("B", 2 + k) for k in range(members)),
            "c": event("C", 9)}


def _ref_indices(expr):
    if isinstance(expr, AttrRef):
        yield expr.index
    elif isinstance(expr, Agg):
        yield expr.ref.index
    elif isinstance(expr, (Cmp, Arith, Corr)):
        yield from _ref_indices(expr.left)
        yield from _ref_indices(expr.right)
    elif isinstance(expr, Not):
        yield from _ref_indices(expr.child)
    elif isinstance(expr, BoolOp):
        for c in expr.children:
            yield from _ref_indices(c)


def _reference(expr, binding):
    """The atom's value: over every member (or adjacent pair) of b when it
    has an indexed reference, once otherwise."""
    indices = set(_ref_indices(expr))
    if indices == {None}:
        return _ref_bool(expr, binding, None)
    start = 1 if "i-1" in indices else 0
    return all(_ref_bool(expr, binding, i)
               for i in range(start, len(binding["b"])))


_REF_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge}


def _ref_bool(expr, binding, i):
    if isinstance(expr, Not):
        return not _ref_bool(expr.child, binding, i)
    if isinstance(expr, BoolOp):
        test = all if expr.op == "and" else any
        return test(_ref_bool(c, binding, i) for c in expr.children)
    x = _ref_value(expr.left, binding, i)
    y = _ref_value(expr.right, binding, i)
    if x is None or y is None:
        return False
    mismatch = StreamDataError(f"type mismatch comparing {x!r} {expr.op} {y!r}")
    if expr.op in ("=", "!="):
        if type(x) is not type(y) and isinstance(x, str) != isinstance(y, str):
            raise mismatch
        return (x == y) == (expr.op == "=")
    try:
        return _REF_ORDER[expr.op](x, y)
    except TypeError:
        raise mismatch from None


def _ref_number(v):
    if v is None or isinstance(v, float):
        return v
    if isinstance(v, int):
        return float(v)
    raise StreamDataError(f"expected a number, got {v!r}")


def _ref_value(expr, binding, i):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, AttrRef):
        bound = binding[expr.role]
        if expr.index is not None:
            bound = bound[i - 1 if expr.index == "i-1" else i]
        return bound.attr(expr.attr)
    if isinstance(expr, Agg):
        members = binding[expr.ref.role]
        if expr.fn == "count":
            return float(len(members))
        vals = [_ref_number(e.attr(expr.ref.attr)) for e in members]
        if None in vals:
            raise StreamDataError(f"{expr.render()} over a member valued None")
        if expr.fn == "avg":
            return sum(vals) / len(vals)
        return {"sum": sum, "min": min, "max": max}[expr.fn](vals)
    if isinstance(expr, Corr):
        x = _ref_value(expr.left, binding, i)
        y = _ref_value(expr.right, binding, i)
        if not isinstance(x, (tuple, list)) or not isinstance(y, (tuple, list)):
            raise StreamDataError("corr() arguments must be history lists")
        try:
            return pearson(x, y)
        except UndefinedCorrelationError:
            return None
        except ValueError as exc:
            raise StreamDataError(f"{expr.render()}: {exc}") from None
    x = _ref_number(_ref_value(expr.left, binding, i))
    y = _ref_number(_ref_value(expr.right, binding, i))
    if x is None or y is None:
        return None
    if expr.op == "/":
        if y == 0:
            raise StreamDataError("division by zero in predicate")
        return x / y
    return {"+": operator.add, "-": operator.sub, "*": operator.mul}[expr.op](x, y)


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the error itself is the outcome compared
        return ("error", type(exc), str(exc))


@settings(max_examples=1000, deadline=None)
@given(_BOOL_EXPRS, _bindings())
def test_compiled_atoms_agree_with_a_tree_walking_reference(expr, binding):
    got = _outcome(_holds, expr, binding)
    want = _outcome(_reference, expr, binding)
    assert got == want, expr.render()


def _member_wise(expr):
    """``expr`` with every ``b[i-1]`` reference read as ``b[i]`` and every
    aggregate as its reference: an atom quantified per member of b, unless
    it references no member at all."""
    if isinstance(expr, AttrRef):
        return AttrRef(expr.role, expr.attr, expr.index and "i")
    if isinstance(expr, Agg):
        return _member_wise(expr.ref)
    if isinstance(expr, (Cmp, Arith)):
        return type(expr)(expr.op, _member_wise(expr.left),
                          _member_wise(expr.right))
    if isinstance(expr, Corr):
        return Corr(_member_wise(expr.left), _member_wise(expr.right))
    if isinstance(expr, Not):
        return Not(_member_wise(expr.child))
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, tuple(map(_member_wise, expr.children)))
    return expr


@settings(max_examples=500, deadline=None)
@given(_BOOL_EXPRS.map(_member_wise), _bindings())
def test_one_member_form_agrees_with_the_quantified_form(expr, binding):
    # A MEMBER atom as iterate_fetch gets it from split_kleene, tested with
    # b bound to a member event, against the quantified atom on the tuple of
    # that event alone: the same value, or the same error.
    quantified = compile_atom(expr)
    assume(quantified.kind == MEMBER)
    member = binding["b"][0]
    want = _outcome(eval_atoms, (quantified,), dict(binding, b=(member,)))
    (one,) = split_kleene((quantified,), "b").member
    assert (one.expr, one.roles, one.kind, one.role) == (
        quantified.expr, quantified.roles, MEMBER, "b")
    got = _outcome(eval_atoms, (one,), dict(binding, b=member))
    assert got == want, expr.render()


# -- corr thresholds against the full coefficient -----------------------------
#
# A compiled ``corr(..) op k`` may decide from the sign of the covariance
# alone, and keeps a memo per side. _ref_value calls pearson with neither,
# so the verdicts, or the errors, must agree.

_THRESHOLDS = (-1, -0.9, -0.5, -0.0, 0.0, 0, 0.5, 0.9, 1, 1.5)
_CMP_OPS = ("<", "<=", ">", ">=", "=", "!=")
_INF = float("inf")


def _small(n):
    """``n`` points from a small value set: covariances of exactly 0, and
    small coefficients of either sign, are common."""
    return st.lists(st.sampled_from((-1.0, 0.0, 1.0, 2.0)), min_size=n,
                    max_size=n)


def _series(n):
    """Histories of ``n`` points, as a tuple or a list: random; from a
    small value set; constant; near-constant; or holding infinities."""
    value = st.floats(-5, 5)
    nudge = st.sampled_from((0.0, 1e-9, -1e-9, 2.0 ** -40))
    points = st.one_of(
        st.lists(value, min_size=n, max_size=n),
        _small(n),
        value.map(lambda c: [c] * n),
        st.builds(lambda c, d: [c + e for e in d], value,
                  st.lists(nudge, min_size=n, max_size=n)),
        st.lists(st.one_of(value, st.sampled_from((_INF, -_INF))),
                 min_size=n, max_size=n),
    )
    return points.flatmap(lambda xs: st.sampled_from((tuple(xs), list(xs))))


@st.composite
def _history_pairs(draw):
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return tuple(draw(_small(n))), tuple(draw(_small(n)))
    # Now and then a pair of different lengths: a data error.
    m = draw(st.sampled_from((n, n, n, n, n + 1)))
    return draw(_series(n)), draw(_series(m))


def _threshold(op, k, flipped):
    corr = Corr(AttrRef("a", "h"), AttrRef("c", "h"))
    return Cmp(op, Literal(k), corr) if flipped else Cmp(op, corr, Literal(k))


def _corr_binding(x, y):
    return {"a": ev("A", 1, 1, h=x), "c": ev("C", 9, 9, h=y)}


_ZERO = ((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))  # covariance exactly 0
_WEAK = ((0.0, 1.0, 2.0, 3.0), (2.0, 0.0, 1.0, 1.0))  # coefficient -0.32


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(_CMP_OPS), st.sampled_from(_THRESHOLDS), st.booleans(),
       _history_pairs())
@example(">=", 0.0, False, _ZERO)
@example(">=", 0, True, _ZERO)
@example("=", -0.0, False, _ZERO)
@example(">", -0.5, False, _WEAK)
@example(">", 0.5, True, (_WEAK[0], _WEAK[1][::-1]))
def test_corr_thresholds_agree_with_the_full_coefficient(op, k, flipped,
                                                         histories):
    expr = _threshold(op, k, flipped)
    binding = _corr_binding(*histories)
    got = _outcome(_holds, expr, binding)
    want = _outcome(_reference, expr, binding)
    assert got == want, expr.render()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_CMP_OPS), st.sampled_from(_THRESHOLDS), st.booleans(),
       st.lists(_series(4).map(tuple), min_size=3, max_size=3),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.booleans()), min_size=1, max_size=12))
def test_one_compiled_corr_over_a_run_of_bindings(op, k, flipped, pool,
                                                  steps):
    # Bindings repeat, swap and share histories; the last in the pool is a
    # list, rotated in place now and then.
    pool.append(list(pool[0]))
    expr = _threshold(op, k, flipped)
    atom = compile_atom(expr)
    for left, right, rotate in steps:
        if rotate:
            pool[3].append(pool[3].pop(0))
        binding = _corr_binding(pool[left], pool[right])
        got = _outcome(eval_atoms, (atom,), binding)
        want = _outcome(_reference, expr, binding)
        assert got == want, (expr.render(), binding)
