"""The shared traversal of formulas and numeric expressions: the table-driven
printer and parser agree, and rebuilding nodes with renamed symbols loses
nothing."""

import random

from hypothesis import given, settings, strategies as st

from conftest import random_formula, random_trace_scenario

from ischema.dsl import formula_to_text, parse_formula
from ischema.logic import substitute_symbols

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
