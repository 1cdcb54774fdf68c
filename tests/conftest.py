"""Shared fixtures and randomized generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ischema import logic
from ischema.geometry import Const, DeltaExpr, ParamRef
from ischema.model import (
    EXTENT_PARAMS,
    SHAPE_PARAMS,
    ShapeKind,
    State,
    Trace,
    declare_scenario,
    initial_state,
    make_entity,
)


@pytest.fixture
def fig1_scenario():
    """A point inside a big circle, with a small circle also inside."""
    a = make_entity("a", "Object", ShapeKind.POINT, [4, 5])
    b = make_entity("b", "Container", ShapeKind.CIRCLE, [6, Fraction("4.5"), 1])
    c = make_entity("c", "Container", ShapeKind.CIRCLE, [5, 5, 3])
    return declare_scenario([a, b, c], trace=Trace((initial_state([a, b, c]),)))


def rational(rng: random.Random, lo: int = -8, hi: int = 8) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 4)))


def random_trace_scenario(
    rng: random.Random, max_entities: int = 4, max_len: int = 6, all_sorts: bool = False
):
    """Entities are points and circles; values take small random walks.

    With `all_sorts`, some points are Regions instead of Objects and a floor
    may be added, so that every shipped schema finds candidate bindings and
    some of them meet relations undefined for their shapes.
    """
    n = rng.randint(1, max_entities)
    entities = []
    for i in range(n):
        if rng.random() < 0.7:
            sort = "Region" if all_sorts and rng.random() < 0.5 else "Object"
            entities.append(make_entity(f"e{i}", sort, ShapeKind.POINT, [rational(rng), rational(rng)]))
        else:
            entities.append(
                make_entity(
                    f"e{i}",
                    "Circle",
                    ShapeKind.CIRCLE,
                    [rational(rng), rational(rng), rational(rng, 1, 4)],
                )
            )
    if all_sorts and rng.random() < 0.5:
        entities.append(make_entity("floor", "Floor", ShapeKind.FLOOR, [rational(rng, -8, 0)]))
    length = rng.randint(1, max_len)
    states = []
    values = {(e.id, p): v for e in entities for p, v in e.params}
    for t in range(length):
        if t > 0:
            values = dict(values)
            for key in list(values):
                if key[1] in ("x", "y") and rng.random() < 0.5:
                    values[key] += rational(rng, -2, 2)
        states.append(State(time=t, values=values))
    return declare_scenario(entities, trace=Trace(tuple(states)))


_SCENE_SHAPES = (
    ("Object", ShapeKind.POINT),
    ("Circle", ShapeKind.CIRCLE),
    ("Rectangle", ShapeKind.RECTANGLE),
    ("Path", ShapeKind.SEGMENT),
    ("Floor", ShapeKind.FLOOR),
)


def random_shape_scene(rng: random.Random, max_entities: int = 7):
    """Entities of every shape kind and a state for them.

    Coordinates and sizes lie on a half-unit grid in a small box, so shared
    edges, ties and exact contacts are common. The state may give a size 0
    or a negative value, which no declaration allows but a rule can write.
    """
    entities = []
    for i in range(rng.randint(1, max_entities)):
        sort, shape = rng.choice(_SCENE_SHAPES)
        values = [
            Fraction(rng.randint(1, 4) if name in EXTENT_PARAMS else rng.randint(-6, 6), 2)
            for name in SHAPE_PARAMS[shape]
        ]
        entities.append(make_entity(f"e{i}", sort, shape, values))
    values = dict(initial_state(entities).values)
    for key in values:
        if key[1] in EXTENT_PARAMS and rng.random() < 0.15:
            values[key] = Fraction(rng.randint(-2, 0), 2)
    return entities, State(time=0, values=values)


def random_shape_trace(rng: random.Random, max_entities: int = 6, max_len: int = 4):
    """A concrete scenario over `random_shape_scene`'s entities: from its
    state, each later one moves some parameters, sizes included, by half
    units, so sizes may reach 0 or go negative."""
    entities, state = random_shape_scene(rng, max_entities)
    states = [state]
    for t in range(1, rng.randint(1, max_len)):
        values = dict(states[-1].values)
        for key in values:
            if rng.random() < 0.3:
                values[key] += Fraction(rng.randint(-2, 2), 2)
        states.append(State(time=t, values=values))
    return declare_scenario(entities, trace=Trace(tuple(states)))


_BINARY_RELATIONS = {
    "inside": {(ShapeKind.POINT, ShapeKind.CIRCLE), (ShapeKind.CIRCLE, ShapeKind.CIRCLE)},
    "partOf": {(ShapeKind.POINT, ShapeKind.CIRCLE), (ShapeKind.CIRCLE, ShapeKind.CIRCLE)},
    "contact": {
        (ShapeKind.CIRCLE, ShapeKind.CIRCLE),
        (ShapeKind.POINT, ShapeKind.CIRCLE),
        (ShapeKind.CIRCLE, ShapeKind.POINT),
    },
    "overlaps": {(ShapeKind.CIRCLE, ShapeKind.CIRCLE)},
}
_ANY_PAIR = ("disjoint", "on", "closeTo", "smaller", "larger", "ccwStep")


def _leaf(rng: random.Random, syms: list[tuple[str, ShapeKind]]) -> logic.Formula:
    roll = rng.random()
    if roll < 0.08:
        return rng.choice((logic.TrueF(), logic.FalseF(), logic.Final()))
    if roll < 0.30:
        (name, _) = rng.choice(syms)
        kind = rng.choice(("xy", "delta"))
        cmp_op = rng.choice(("<", "<=", "=", "!=", ">=", ">"))
        if kind == "xy":
            lhs = ParamRef(name, rng.choice(("x", "y")))
        else:
            other, _ = rng.choice(syms)
            lhs = DeltaExpr(name, other)
        return logic.Compare(lhs, cmp_op, Const(rational(rng)))
    if roll < 0.40:
        name, _ = rng.choice(syms)
        return logic.Atom("motion", (name,))
    (na, sa) = rng.choice(syms)
    (nb, sb) = rng.choice(syms)
    candidates = list(_ANY_PAIR)
    for rel, pairs in _BINARY_RELATIONS.items():
        if (sa, sb) in pairs:
            candidates.append(rel)
    rel = rng.choice(candidates)
    args: tuple = (na, nb)
    if rel == "closeTo" and rng.random() < 0.5:
        args = args + (Const(rational(rng, 0, 6)),)
    return logic.Atom(rel, args)


def random_formula(rng: random.Random, depth: int, scenario) -> logic.Formula:
    """A closed formula whose atoms are defined for every shape they can meet."""
    syms = [(e.id, e.shape) for e in scenario.entities]
    var_counter = [0]

    def build(d: int, scope: list[tuple[str, ShapeKind]]) -> logic.Formula:
        pool = syms + scope
        if d <= 0 or rng.random() < 0.2:
            return _leaf(rng, pool)
        op = rng.choice(
            ("not", "and", "or", "implies", "forall", "exists",
             "next", "always", "eventually", "until", "before")
        )
        if op == "not":
            return logic.Not(build(d - 1, scope))
        if op in ("and", "or", "implies", "until"):
            cls = {"and": logic.And, "or": logic.Or, "implies": logic.Implies, "until": logic.Until}[op]
            return cls(build(d - 1, scope), build(d - 1, scope))
        if op in ("forall", "exists"):
            var_counter[0] += 1
            var = f"v{var_counter[0]}"
            sort, shape = rng.choice((("Object", ShapeKind.POINT), ("Circle", ShapeKind.CIRCLE)))
            body = build(d - 1, scope + [(var, shape)])
            return (logic.Forall if op == "forall" else logic.Exists)(var, sort, body)
        cls = {
            "next": logic.Next,
            "always": logic.Always,
            "eventually": logic.Eventually,
            "before": logic.Before,
        }[op]
        return cls(build(d - 1, scope))

    return build(depth, [])


def mutate(lexemes: list[str], edits) -> list[str]:
    """`lexemes` after `edits`, each `(op, i, j, word)`: delete lexeme i
    ("d"), insert `word` before it ("i"), replace it by `word` ("r") or swap
    it with lexeme j ("s"). Indices wrap around."""
    lexemes = list(lexemes)
    for op, i, j, word in edits:
        i, j = i % len(lexemes), j % len(lexemes)
        if op == "d":
            del lexemes[i]
        elif op == "i":
            lexemes.insert(i, word)
        elif op == "r":
            lexemes[i] = word
        else:
            lexemes[i], lexemes[j] = lexemes[j], lexemes[i]
    return lexemes
