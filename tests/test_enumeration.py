import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ischema import geometry, logic
from ischema.dsl import MAX_INSTANTS, parse_formula
from ischema.enumeration import (
    GridSpec,
    brute_force_models,
    count_models,
    enumerate_models,
    grid_points,
)
from ischema.errors import IschemaError, SearchSpaceTooLarge, UnknownEntity, UnsupportedShapePair
from ischema.geometry import (
    Add,
    Const,
    DeltaExpr,
    EvalContext,
    MeasureExpr,
    Mul,
    NameRef,
    ParamRef,
    Sub,
    ThetaExpr,
)
from ischema.library import schema_theory
from ischema.logic import (
    Always,
    And,
    Atom,
    Before,
    Compare,
    Eventually,
    Exists,
    FalseF,
    Final,
    Forall,
    Implies,
    Next,
    Not,
    Or,
    TrueF,
    Until,
    check_theory,
)
from ischema.model import (
    SHAPE_PARAMS,
    RelationSig,
    ShapeKind,
    Theory,
    Trace,
    declare_scenario,
    initial_state,
    make_entity,
)

BINDING = {"object": "o", "container": "c"}
GRID = GridSpec(x_range=(0, 2), y_range=(0, 2), free_entities=("o",))


def _skeleton(radius):
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 0])
    c = make_entity("c", "Container", ShapeKind.CIRCLE, [1, 1, Fraction(radius)])
    return declare_scenario([o, c], trace=Trace((initial_state([o, c]),)))


def _hand_count(radius):
    """Independent nine-point check of the containment example."""
    count = 0
    for x in range(3):
        for y in range(3):
            if Fraction(x - 1) ** 2 + Fraction(y - 1) ** 2 < Fraction(radius) ** 2:
                count += 1
    return count


def test_containment_counts_match_hand_check():
    theory = schema_theory("CONTAINMENT")
    models = enumerate_models(theory, _skeleton("1.2"), GRID, BINDING)
    assert len(models) == _hand_count("1.2") == 5
    positions = {
        (m.states[0].value("o", "x"), m.states[0].value("o", "y")) for m in models
    }
    assert positions == {(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)}
    assert count_models(theory, _skeleton("1.5"), GRID, BINDING) == _hand_count("1.5") == 9


def test_count_matches_enumerate_always():
    theory = schema_theory("CONTAINMENT")
    for radius in ("1.0", "1.2", "1.5", "2.0"):
        sc = _skeleton(radius)
        assert count_models(theory, sc, GRID, BINDING) == len(
            enumerate_models(theory, sc, GRID, BINDING)
        )


def test_monotone_in_radius():
    theory = schema_theory("CONTAINMENT")
    counts = [count_models(theory, _skeleton(r), GRID, BINDING) for r in ("1.0", "1.2", "1.5", "2.0")]
    assert counts == sorted(counts)
    assert counts == [_hand_count(r) for r in ("1.0", "1.2", "1.5", "2.0")]


def test_trivial_theories():
    base = _skeleton("1.2")
    t_true = Theory(name="TAUT", roles=(("object", "Object"), ("container", "Container")), axioms=(TrueF(),))
    t_false = Theory(name="ABSURD", roles=t_true.roles, axioms=(FalseF(),))
    assert count_models(t_true, base, GRID, BINDING) == 9
    assert enumerate_models(t_false, base, GRID, BINDING) == []


def test_enumeration_order_is_lexicographic():
    theory = Theory(name="TAUT", roles=(), axioms=(TrueF(),))
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 0])
    sc = declare_scenario([o], trace=Trace((initial_state([o]),)))
    spec = GridSpec(x_range=(0, 1), y_range=(0, 1), free_entities=("o",))
    seen = [
        (m.states[0].value("o", "x"), m.states[0].value("o", "y"))
        for m in enumerate_models(theory, sc, spec, {})
    ]
    assert seen == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_fractional_step():
    spec = GridSpec(x_range=(0, 1), y_range=(0, 0), free_entities=("o",), step=Fraction(1, 2))
    assert grid_points(spec) == [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(1), Fraction(0)),
    ]


def test_search_space_cap():
    theory = schema_theory("CONTAINMENT")
    spec = GridSpec(x_range=(0, 9), y_range=(0, 9), free_entities=("o",), cap=50)
    with pytest.raises(SearchSpaceTooLarge):
        count_models(theory, _skeleton("1.2"), spec, BINDING)


def test_unknown_free_entity():
    theory = schema_theory("CONTAINMENT")
    spec = GridSpec(x_range=(0, 1), y_range=(0, 1), free_entities=("ghost",))
    with pytest.raises(UnknownEntity):
        count_models(theory, _skeleton("1.2"), spec, BINDING)


def test_models_recheck_as_satisfied():
    theory = schema_theory("CONTAINMENT")
    sc = _skeleton("1.2")
    for model in enumerate_models(theory, sc, GRID, BINDING):
        concrete = declare_scenario(sc.entities, trace=model)
        assert check_theory(theory, concrete, BINDING).satisfied


def test_multi_step_horizon_counts():
    # o must be inside at instant 0 only; the second instant is free: 5 * 9
    theory = schema_theory("CONTAINMENT")
    spec = GridSpec(x_range=(0, 2), y_range=(0, 2), free_entities=("o",), horizon=2)
    assert count_models(theory, _skeleton("1.2"), spec, BINDING) == 45


@pytest.mark.parametrize(
    "x_range,y_range,step",
    [((0, 2), (0, 2), Fraction(1)), ((0, 2), (0, 2), Fraction(1, 3)), ((0, 1), (0, 2), Fraction(2, 3)),
     ((-3, 4), (5, 5), Fraction(3, 2))],
)
def test_cap_size_matches_built_grid(x_range, y_range, step):
    spec = GridSpec(x_range=x_range, y_range=y_range, free_entities=("o",), step=step, horizon=2)
    n = len(grid_points(spec))
    theory = Theory(name="T", axioms=(TrueF(),))
    at_cap = GridSpec(x_range=x_range, y_range=y_range, free_entities=("o",), step=step,
                      horizon=2, cap=n ** 2)
    assert count_models(theory, _skeleton("1.2"), at_cap, {}) == n ** 2
    below = GridSpec(x_range=x_range, y_range=y_range, free_entities=("o",), step=step,
                     horizon=2, cap=n ** 2 - 1)
    with pytest.raises(SearchSpaceTooLarge, match=rf"{n}\^2 = {n ** 2} "):
        count_models(theory, _skeleton("1.2"), below, {})


# --- the tables against the brute force ------------------------------------------

_CENTERED = (("Object", ShapeKind.POINT), ("Region", ShapeKind.POINT),
             ("Region", ShapeKind.CIRCLE), ("Region", ShapeKind.RECTANGLE))
_FIXED = (("Container", ShapeKind.CIRCLE), ("Container", ShapeKind.RECTANGLE),
          ("Container", ShapeKind.CIRCLE), ("Container", ShapeKind.RECTANGLE),
          ("Path", ShapeKind.SEGMENT), ("Floor", ShapeKind.FLOOR))
_GRIDS = (((0, 1), (0, 1), Fraction(1)), ((0, 1), (0, 0), Fraction(1, 2)),
          ((0, 2), (1, 1), Fraction(2, 3)), ((-1, 1), (0, 1), Fraction(1)))
_RELATIONS = ("disjoint", "on", "closeTo", "closeTo", "smaller", "larger", "near", "near",
              "inside", "partOf", "contact", "overlaps")
_STEPS = ("motion", "ccwStep", "thetaStep")


def _random_scenario(rng, n_free):
    entities = []
    for i in range(n_free):
        sort, shape = rng.choice(_CENTERED)
        sizes = [Fraction(rng.randint(1, 4), 2) for _ in SHAPE_PARAMS[shape][2:]]
        entities.append(make_entity(f"p{i}", sort, shape, [0, 0, *sizes]))
    for i in range(rng.randint(1, 2)):
        sort, shape = rng.choice(_FIXED)
        values = [Fraction(rng.randint(1, 6), 2) if name in ("r", "w", "h") else Fraction(rng.randint(-2, 4), 2)
                  for name in SHAPE_PARAMS[shape]]
        entities.append(make_entity(f"c{i}", sort, shape, values))
    return declare_scenario(entities, trace=Trace((initial_state(entities),)))


def _random_axiom(rng, free, names, depth):
    """A formula over every operator (`before` sends it to the brute force),
    quantifiers, comparisons, step relations and the templates `near` and
    (when it overrides) `motion`."""

    def entity(scope, other=None):
        roll = rng.random()
        if scope and roll < 0.4:
            return rng.choice(scope)
        pool = [n for n in (free if roll < 0.7 else names) if n != other]
        return rng.choice(pool or names)

    def pair(scope):
        first = entity(scope)
        return first, entity(scope, first)

    def num(scope):
        roll = rng.random()
        if roll < 0.55:
            return ParamRef(entity(scope), "r" if rng.random() < 0.05 else rng.choice("xy"))
        if roll < 0.7:
            return DeltaExpr(*pair(scope))
        if roll < 0.74:
            return ThetaExpr(*pair(scope))
        if roll < 0.78:
            return MeasureExpr(entity(scope))
        if roll < 0.82:
            return NameRef("k")
        op = rng.choice((Add, Sub, Mul))
        return op(num(scope), Const(Fraction(rng.randint(-2, 2), 2)))

    def leaf(scope):
        roll = rng.random()
        if roll < 0.06:
            return rng.choice((TrueF(), FalseF(), Final()))
        if roll < 0.45:
            cmp = rng.choice(("<", "<=", "=", "!=", ">=", ">"))
            return Compare(num(scope), cmp, Const(Fraction(rng.randint(0, 2), 2)))
        if roll < 0.6:
            rel = rng.choice(_STEPS)
            return Atom(rel, tuple((entity(scope),) if rel == "motion" else pair(scope)))
        rel = rng.choice(_RELATIONS)
        args = tuple(pair(scope))
        if rel == "closeTo" and rng.random() < 0.5:
            args += (num(scope),)
        return Atom(rel, args)

    def build(d, scope):
        if d == 0 or rng.random() < 0.3:
            return leaf(scope)
        op = rng.choice(("not", "and", "or", "implies", "forall", "exists",
                         "next", "always", "eventually", "until", "until", "before"))
        if op in ("forall", "exists"):
            var = f"v{len(scope)}"
            body = build(d - 1, scope + [var])
            sort = rng.choice(("Entity", "Entity", "Region", "Object", "Container"))
            return (Forall if op == "forall" else Exists)(var, sort, body)
        if op in ("and", "or", "implies", "until"):
            cls = {"and": And, "or": Or, "implies": Implies, "until": Until}[op]
            return cls(build(d - 1, scope), build(d - 1, scope))
        cls = {"not": Not, "next": Next, "always": Always, "eventually": Eventually, "before": Before}[op]
        return cls(build(d - 1, scope))

    return build(depth, [])


def _outcome(run):
    try:
        return run()
    except IschemaError as exc:
        return type(exc).__name__, str(exc)


@given(st.integers(0, 10**6))
@settings(max_examples=1000, derandomize=True, deadline=None)
def test_tables_equal_the_brute_force(seed):
    rng = random.Random(seed)
    n_free = rng.choice((1, 1, 2))
    sc = _random_scenario(rng, n_free)
    x_range, y_range, step = rng.choice(_GRIDS)
    free = tuple(f"p{i}" for i in range(n_free))
    n = len(grid_points(GridSpec(x_range, y_range, free, step)))
    horizon = max(h for h in (1, 2, 3) if h == 1 or n ** (n_free * h) <= 256)
    spec = GridSpec(x_range, y_range, free, step, rng.randint(1, horizon))
    ids = [e.id for e in sc.entities]
    roles = (("a", "Entity"), ("b", "Entity"))
    binding = {"a": rng.choice(ids), "b": rng.choice(ids)}
    relations = [RelationSig("near", ("Entity", "Entity"),
                             Compare(ParamRef("arg1", "x"), "<=", Add(ParamRef("arg2", "x"), Const(Fraction(1)))))]
    if rng.random() < 0.2:
        relations.append(RelationSig("motion", ("Entity",),
                                     Compare(ParamRef("arg1", "y"), ">=", Const(Fraction(1, 2)))))
    names = list(free) + ["a", "b"] + ids[n_free:]
    theory = Theory(
        name="R", roles=roles, relations=tuple(relations),
        axioms=tuple(_random_axiom(rng, list(free), names, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))),
        numeric_params=(("k", Fraction(1, 2)),),
    )
    eps = rng.choice((Fraction(0), Fraction(1, 10**9), Fraction(1, 4), Fraction(1)))
    tau = rng.choice((Fraction(1, 2), Fraction(2)))

    def ctx():
        return EvalContext.for_scenario(sc, theory, eps, tau)

    expected = _outcome(lambda: brute_force_models(theory, sc, spec, binding, ctx()))
    assert _outcome(lambda: enumerate_models(theory, sc, spec, binding, ctx())) == expected
    counted = _outcome(lambda: count_models(theory, sc, spec, binding, ctx()))
    assert counted == (len(expected) if isinstance(expected, list) else expected)


def _spy(monkeypatch, module, name):
    """Count the calls of `module.name` from here on."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_two_free_entities_are_listed_entity_by_entity():
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 0])
    p = make_entity("p", "Object", ShapeKind.POINT, [0, 0])
    sc = declare_scenario([o, p], trace=Trace((initial_state([o, p]),)))
    theory = Theory(name="T", axioms=(parse_formula("not (motion(o) and motion(p))"),))
    spec = GridSpec(x_range=(0, 1), y_range=(0, 0), free_entities=("o", "p"), horizon=2)
    models = enumerate_models(theory, sc, spec, {})
    assert models == brute_force_models(theory, sc, spec, {})
    placed = [tuple(s.value(e, "x") for e in ("o", "p") for s in m.states) for m in models]
    assert len(placed) == 12
    assert placed == sorted(placed)  # o's path, then p's, not instant by instant


def test_tables_decide_each_atom_once_per_frame(monkeypatch):
    theory = schema_theory("OBJECT_INTO_CONTAINER")
    spec = GridSpec(x_range=(0, 4), y_range=(0, 4), free_entities=("o",), horizon=3)
    calls = _spy(monkeypatch, geometry, "eval_relation")
    assert count_models(theory, _skeleton("1.2"), spec, BINDING) == 4500
    after = [call[5] if len(call) > 5 else None for call in calls]
    keys = [(name, tuple(args), id(state), id(a)) for (name, args, state, *_), a in zip(calls, after)]
    assert len(set(keys)) == len(keys)
    by_relation = Counter(name for name, *_ in calls)
    # 25 frames: inside once per frame, motion once per frame pair and once
    # per frame at the last instant
    assert by_relation == {"inside": 25, "motion": 25 * 25 + 25}


def test_before_reaches_the_brute_force(monkeypatch):
    sc = _skeleton("1.2")
    spec = GridSpec(x_range=(0, 2), y_range=(0, 2), free_entities=("o",), horizon=2)
    calls = _spy(monkeypatch, logic, "reference_eval")
    assert count_models(schema_theory("CONTAINMENT"), sc, spec, BINDING) == 45
    assert calls == []
    theory = Theory(name="B", roles=schema_theory("CONTAINMENT").roles,
                    axioms=(parse_formula("next before inside(object, container)"),))
    assert count_models(theory, sc, spec, BINDING) == 81 - 4 * 4  # inside at 0 or at 1
    assert len(calls) == 81


def test_raising_tabulations_reach_the_brute_force(monkeypatch):
    sc = _skeleton("1.2")
    roles = schema_theory("CONTAINMENT").roles
    calls = _spy(monkeypatch, logic, "reference_eval")
    # inside(Point, Point) is not defined. The brute force raises at its first
    # candidate, with its own message; behind a false axiom it never
    # evaluates the atom, so there are no models and no error.
    raising = Theory(name="E", roles=roles, axioms=(parse_formula("inside(object, object)"),))
    with pytest.raises(UnsupportedShapePair, match=r"^inside\(Point, Point\) is not defined$"):
        count_models(raising, sc, GRID, BINDING)
    assert len(calls) == 1
    shielded = Theory(name="F", roles=roles, axioms=(FalseF(), parse_formula("inside(object, object)")))
    assert enumerate_models(shielded, sc, GRID, BINDING) == []
    assert len(calls) == 1 + 9


def test_horizon_beyond_the_instant_limit_is_refused_before_any_state():
    theory = Theory(name="T", axioms=(TrueF(),))
    spec = GridSpec(x_range=(0, 0), y_range=(0, 0), free_entities=("o",), horizon=10**12)
    with pytest.raises(SearchSpaceTooLarge, match="exceeds the limit of 10000 instants"):
        count_models(theory, _skeleton("1.2"), spec, {})
    at_limit = GridSpec(x_range=(0, 0), y_range=(0, 0), free_entities=("o",), horizon=MAX_INSTANTS)
    assert count_models(theory, _skeleton("1.2"), at_limit, {}) == 1
