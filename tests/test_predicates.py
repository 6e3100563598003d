import pytest

from cep.events import Event, StreamDataError
from cep.metrics import Metrics
from cep.patterns import parse_pattern
from cep.predicates import (Agg, AttrRef, Cmp, Literal, PredicateError,
                            atom_roles, compile_atom, compile_atoms,
                            eval_atoms, split_conjunction, split_kleene)


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
    atoms = compile_atoms(atoms)
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


def test_corr_over_a_non_history_attribute_is_a_data_error():
    (atom,) = _atoms("corr(a.x, b.x) > 0.5")
    with pytest.raises(StreamDataError, match="history lists"):
        _holds(atom, {"a": ev("A", 1, 1, x=1.0), "b": ev("B", 2, 2, x=2.0)})


def test_atom_roles():
    (atom,) = _atoms("a.x + b.x > c.x")
    assert atom_roles(atom) == frozenset({"a", "b", "c"})


def test_evaluation_counter():
    atoms = compile_atoms(_atoms("a.x > 1 and b.x > 1"))
    counter = Metrics()
    eval_atoms(atoms, {"a": ev("A", 1, 1, x=2.0), "b": ev("B", 2, 2, x=2.0)},
               counter)
    assert counter.predicate_evaluations == 2
