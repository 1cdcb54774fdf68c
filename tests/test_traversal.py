"""The shared traversal of formulas and numeric expressions: the table-driven
printer and parser agree, and rebuilding nodes with renamed symbols loses
nothing."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_formula, random_trace_scenario

from ischema.dsl import formula_to_text, parse_formula
from ischema.geometry import Add, Const, ParamRef, Sub
from ischema.logic import And, Atom, Not, Or, TrueF, substitute_symbols
from ischema.tree import Node

# Every formula and numeric-expression class, each binary operator on both
# sides of a looser and a tighter one, and a leading minus in each position.
EVERY_CLASS = parse_formula(
    "forall v : Object . exists w : Circle . closeTo(v, e0, e1.r * (2 + k)) and"
    " not next always eventually before final until"
    " (theta(v, w) - -e0.x * -1 < measure(w) -> delta(e0, w) >= -(e1.y - 1) or false)"
    " or true -> (e0.x = 1 -> e1.x != 2) and (true or (false and final))"
)


def _random_formula(seed: int, all_sorts: bool):
    rng = random.Random(seed)
    sc = random_trace_scenario(rng, all_sorts=all_sorts)
    return sc, random_formula(rng, rng.randint(1, 5), sc)


def _nodes(node) -> list:
    """`node` and every node below it, in preorder."""
    return [node, *(n for child in node.children for n in _nodes(child))]


def _symbols(node) -> set[str]:
    return set(node.symbols).union(*(_symbols(child) for child in node.children))


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=300, deadline=None)
def test_printed_formula_parses_back_to_the_same_text(seed, all_sorts):
    # text, not ASTs: Const(-3) prints as -3, which parses as Neg(Const(3))
    _, phi = _random_formula(seed, all_sorts)
    text = formula_to_text(phi)
    assert formula_to_text(parse_formula(text)) == text


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_a_parsed_formula_prints_and_parses_back_to_itself(seed, all_sorts):
    # names and expressions as atom arguments, and comparisons, come back as
    # the same nodes once the text has normalized the constants
    _, phi = _random_formula(seed, all_sorts)
    parsed = parse_formula(formula_to_text(phi))
    text = formula_to_text(parsed)
    assert parse_formula(text) == parsed
    assert text == formula_to_text(phi)


def test_every_class_prints_and_parses_back():
    text = formula_to_text(EVERY_CLASS)
    assert text == (
        "forall v : Object . exists w : Circle . closeTo(v, e0, e1.r * (2 + k)) and"
        " not next always eventually before final until"
        " (theta(v, w) - (-e0.x) * (-1) < measure(w) -> delta(e0, w) >= -(e1.y - 1) or false)"
        " or true -> (e0.x = 1 -> e1.x != 2) and (true or false and final)"
    )
    assert parse_formula(text) == EVERY_CLASS


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=300, deadline=None)
def test_renaming_entities_and_back_is_lossless(seed, all_sorts):
    sc, phi = _random_formula(seed, all_sorts)
    there = {e.id: f"fresh_{e.id}" for e in sc.entities}
    renamed = substitute_symbols(phi, there)
    assert not _symbols(renamed) & set(there)
    assert substitute_symbols(renamed, {v: k for k, v in there.items()}) == phi


def test_renaming_rebuilds_every_class():
    there = {"e0": "a", "e1": "b", "v": "x", "w": "y", "k": "z"}
    renamed = substitute_symbols(EVERY_CLASS, there)
    # bound variables shadow, and k names a numeric parameter, not an entity
    assert _symbols(renamed) == {"v", "w", "a", "b"}
    assert substitute_symbols(renamed, {"a": "e0", "b": "e1"}) == EVERY_CLASS


def test_every_node_rebuilds_equal_and_hashes_as_its_fields():
    nodes = _nodes(EVERY_CLASS)
    assert {type(n).__name__ for n in nodes} >= {"Atom", "Compare", "Forall", "Until", "DeltaExpr", "Neg"}
    for node in nodes:
        rebuilt = node.rebuild(list(node.children), list(node.symbols))
        assert rebuilt == node and hash(rebuilt) == hash(node)
        assert hash(node) == hash(tuple(getattr(node, name) for name in type(node).FIELDS))


def test_equality_ignores_where_a_node_was_parsed():
    text = formula_to_text(EVERY_CLASS)
    here, there = parse_formula(text, "here.ist"), parse_formula(text, "there.ist")
    for a, b in zip(_nodes(here), _nodes(there)):
        assert a == b and hash(a) == hash(b)
        if a.span is not None:
            assert a.span != b.span


def test_nodes_of_different_classes_over_the_same_fields_differ():
    p, q = Atom("on", ("a", "b")), TrueF()
    a, b = ParamRef("e0", "x"), Const(Fraction(1))
    assert And(p, q) != Or(p, q) and Add(a, b) != Sub(a, b)
    assert And(p, q) == And(p, q) and And(p, q) != And(q, p)


@pytest.mark.parametrize("node", _nodes(EVERY_CLASS), ids=lambda n: type(n).__name__)
def test_a_node_is_immutable(node):
    for name in (*type(node).FIELDS, "span", "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    with pytest.raises(AttributeError):
        del node.span


def test_repr_is_the_dataclass_text():
    assert repr(Not(TrueF())) == "Not(operand=TrueF())"
    assert repr(parse_formula("forall v : Object . closeTo(v, e0, e1.r * (2 + k))")) == (
        "Forall(var='v', sort='Object', body=Atom(relation='closeTo', args=('v', 'e0', Mul(left=ParamRef(entity='e1',"
        " param='r'), right=Add(left=Const(value=Fraction(2, 1)), right=NameRef(name='k'))))))"
    )
    assert repr(parse_formula("delta(e0, w) >= -(e1.y - 1)")) == (
        "Compare(lhs=DeltaExpr(a='e0', b='w'), cmp='>=', rhs=Neg(operand=Sub(left=ParamRef(entity='e1', param='y'),"
        " right=Const(value=Fraction(1, 1)))))"
    )
    assert repr(parse_formula("eventually theta(v, w) < measure(w)")) == (
        "Eventually(operand=Compare(lhs=ThetaExpr(a='v', b='w'), cmp='<', rhs=MeasureExpr(entity='w')))"
    )
    assert repr(parse_formula("final until before next false")) == (
        "Until(left=Final(), right=Before(operand=Next(operand=FalseF())))"
    )


def test_no_node_class_is_a_dataclass():
    classes, stack = [], [Node]
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    assert {type(n) for n in _nodes(EVERY_CLASS)} <= set(classes)
    assert [cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)] == []


def test_a_copied_node_keeps_its_fields_its_span_and_what_it_derives():
    import copy
    import pickle

    for node in _nodes(EVERY_CLASS):
        for twin in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert twin == node and twin.span == node.span
    phi = pickle.loads(pickle.dumps(parse_formula("always delta(a, b) < 2")))
    assert phi.reads is not None and phi.operand.form == "delta"
