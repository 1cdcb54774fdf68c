import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fraction_geometry as oracle
from conftest import _SCENE_SHAPES, random_shape_scene

from ischema.dynamics import gravity_rule, step
from ischema.errors import (
    CoincidentCenters,
    NotMeasurable,
    UnknownParameter,
    UnknownRelation,
    UnsupportedShapePair,
)
from ischema.geometry import (
    BUILTIN_RELATIONS,
    COMPARATORS,
    Const,
    DeltaExpr,
    EvalContext,
    ParamRef,
    Sub,
    Mul,
    Add,
    angular_position,
    box_margin,
    bottom,
    delta_squared,
    eval_constraint,
    distance,
    eval_num_expr,
    eval_relation,
    horizontal_interval,
    horizontal_overlap,
    boxes_apart,
    int_view,
    measure,
    near_boxes,
    rel_on,
    top,
    touches,
)
from ischema.logic import Compare
from ischema.model import (
    EXTENT_PARAMS,
    SHAPE_PARAMS,
    ShapeKind,
    State,
    Trace,
    declare_scenario,
    initial_state,
    make_entity,
    translate_scenario,
)


def _ctx(*entities, epsilon=None):
    sc = declare_scenario(list(entities), trace=Trace((initial_state(list(entities)),)))
    ctx = EvalContext.for_scenario(sc)
    if epsilon is not None:
        ctx.epsilon = epsilon
    return sc.trace.states[0], ctx


def _point(id, x, y, sort="Object"):
    return make_entity(id, sort, ShapeKind.POINT, [Fraction(x), Fraction(y)])


def _circle(id, x, y, r, sort="Circle"):
    return make_entity(id, sort, ShapeKind.CIRCLE, [Fraction(x), Fraction(y), Fraction(r)])


# --- numeric expressions ------------------------------------------------------


def test_figure_polynomial_is_exact(fig1_scenario):
    ctx = EvalContext.for_scenario(fig1_scenario)
    state = fig1_scenario.trace.states[0]
    dx = Sub(ParamRef("a", "x"), ParamRef("c", "x"))
    dy = Sub(ParamRef("a", "y"), ParamRef("c", "y"))
    expr = Add(Mul(dx, dx), Mul(dy, dy))
    value = eval_num_expr(expr, state, ctx)
    assert value == Fraction(1)
    assert isinstance(value, Fraction)
    rhs = Mul(ParamRef("c", "r"), ParamRef("c", "r"))
    assert eval_num_expr(rhs, state, ctx) == Fraction(9)


def test_constant_folds():
    state, ctx = _ctx(_point("a", 0, 0))
    assert eval_num_expr(Const(Fraction(0)), state, ctx) == 0


def test_delta_expr_on_figure(fig1_scenario):
    ctx = EvalContext.for_scenario(fig1_scenario)
    state = fig1_scenario.trace.states[0]
    assert eval_num_expr(DeltaExpr("a", "c"), state, ctx) == 1.0


# --- distance -----------------------------------------------------------------


def test_distance_examples(fig1_scenario):
    ctx = EvalContext.for_scenario(fig1_scenario)
    state = fig1_scenario.trace.states[0]
    assert distance(state, "a", "c", ctx) == 1.0
    assert distance(state, "a", "a", ctx) == 0.0


def test_distance_pythagorean():
    state, ctx = _ctx(_point("p", 0, 0), _point("q", 3, 4, sort="Region"))
    assert distance(state, "p", "q", ctx) == 5.0


def test_distance_to_floor_and_segment():
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    s = make_entity("s", "Path", ShapeKind.SEGMENT, [0, 0, 10, 0])
    p = _point("p", 2, 3)
    state, ctx = _ctx(f, s, p)
    assert distance(state, "p", "f", ctx) == 3.0
    assert distance(state, "s", "p", ctx) == 3.0  # nearest point (2, 0)
    with pytest.raises(UnsupportedShapePair):
        distance(state, "f", "s", ctx)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_distance_symmetric_triangle(data):
    coords = data.draw(
        st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=4), min_size=6, max_size=6)
    )
    a = _point("a", coords[0], coords[1])
    b = _point("b", coords[2], coords[3], sort="Region")
    c = _point("c", coords[4], coords[5], sort="Region")
    state, ctx = _ctx(a, b, c)
    assert distance(state, "a", "b", ctx) == distance(state, "b", "a", ctx)
    assert distance(state, "a", "c", ctx) <= (
        distance(state, "a", "b", ctx) + distance(state, "b", "c", ctx) + 1e-9
    )


# --- angular position ----------------------------------------------------------


@pytest.mark.parametrize(
    "x, y, expected",
    [((0, 1), (0, 0), math.pi / 2), ((-1, 0), (0, 0), math.pi), ((1, 1), (0, 0), math.pi / 4)],
)
def test_angular_position_cases(x, y, expected):
    state, ctx = _ctx(_point("p", *x), _point("q", *y, sort="Region"))
    assert angular_position(state, "p", "q", ctx) == pytest.approx(expected)


def test_angular_position_coincident_centers():
    state, ctx = _ctx(_point("p", 1, 1), _point("q", 1, 1, sort="Region"))
    with pytest.raises(CoincidentCenters):
        angular_position(state, "p", "q", ctx)


def test_angular_position_antisymmetric():
    state, ctx = _ctx(_point("p", 3, 2), _point("q", -1, 5, sort="Region"))
    t1 = angular_position(state, "p", "q", ctx)
    t2 = angular_position(state, "q", "p", ctx)
    assert abs(abs(t1 - t2) - math.pi) < 1e-12


# --- measure --------------------------------------------------------------------


def test_measure_examples():
    c = _circle("c", 0, 0, 3)
    p = _point("p", 0, 0)
    r = make_entity("r", "Container", ShapeKind.RECTANGLE, [0, 0, 2, 3])
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    state, ctx = _ctx(c, p, r, f)
    assert measure(state, "c", ctx) == pytest.approx(9 * math.pi)
    assert measure(state, "p", ctx) == 0.0
    assert measure(state, "r", ctx) == 6.0
    with pytest.raises(NotMeasurable):
        measure(state, "f", ctx)


# --- relation catalog -------------------------------------------------------------


def test_figure_relations(fig1_scenario):
    ctx = EvalContext.for_scenario(fig1_scenario)
    state = fig1_scenario.trace.states[0]
    assert eval_relation("inside", ["a", "c"], state, ctx) is True
    assert eval_relation("inside", ["b", "c"], state, ctx) is True
    assert eval_relation("inside", ["c", "b"], state, ctx) is False
    assert eval_relation("disjoint", ["a", "a"], state, ctx) is False


def test_contact_circles_exact():
    c1 = _circle("c1", 0, 0, 1)
    c2 = _circle("c2", 2, 0, 1)
    state, ctx = _ctx(c1, c2, epsilon=Fraction(0))
    assert eval_relation("contact", ["c1", "c2"], state, ctx) is True
    assert eval_relation("overlaps", ["c1", "c2"], state, ctx) is False
    assert eval_relation("disjoint", ["c1", "c2"], state, ctx) is False


@pytest.mark.parametrize("other", [_circle("b", 1, 0, 2), _point("b", 1, 0)])
def test_no_contact_where_the_radii_sum_below_zero(other):
    # A rule can make a radius negative. With centers 1 apart, |1 - (-4)|
    # and |1 - (-2)| both exceed epsilon.
    a = _circle("a", 0, 0, 2)
    state, ctx = _ctx(a, other, epsilon=Fraction(1, 4))
    values = {**state.values, ("a", "r"): Fraction(-2)}
    if other.shape is ShapeKind.CIRCLE:
        values["b", "r"] = Fraction(-2)
    state = State(0, values)
    for x, y in ((a, other), (other, a)):
        assert touches(state, ctx, x, y) is False
        assert oracle.touches(state, ctx, x, y) is False
    assert eval_relation("contact", ["a", "b"], state, ctx) is False


def test_contact_with_floor():
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    p = _point("p", 4, 0)
    c = _circle("c", 0, 1, 1)
    r = make_entity("r", "Container", ShapeKind.RECTANGLE, [8, Fraction(1, 2), 2, 1])
    state, ctx = _ctx(f, p, c, r)
    for e in ("p", "c", "r"):
        assert eval_relation("contact", [e, "f"], state, ctx) is True
        assert eval_relation("on", [e, "f"], state, ctx) is True
    assert eval_relation("on", ["f", "p"], state, ctx) is False  # floors rest on nothing


def test_on_requires_vertical_adjacency_and_overlap():
    r1 = make_entity("r1", "Container", ShapeKind.RECTANGLE, [0, Fraction(1, 2), 2, 1])
    r2 = make_entity("r2", "Container", ShapeKind.RECTANGLE, [0, Fraction(3, 2), 1, 1])
    r3 = make_entity("r3", "Container", ShapeKind.RECTANGLE, [5, Fraction(3, 2), 1, 1])
    state, ctx = _ctx(r1, r2, r3)
    assert eval_relation("on", ["r2", "r1"], state, ctx) is True
    assert eval_relation("on", ["r1", "r2"], state, ctx) is False  # below, not above
    assert eval_relation("on", ["r3", "r1"], state, ctx) is False  # no horizontal overlap


def test_close_to_uses_threshold():
    p = _point("p", 0, 0)
    q = _point("q", 3, 4, sort="Region")
    state, ctx = _ctx(p, q)
    assert eval_relation("closeTo", ["p", "q"], state, ctx, [Fraction(5)]) is True
    assert eval_relation("closeTo", ["p", "q"], state, ctx, [Fraction(49, 10)]) is False


def test_smaller_larger():
    c1 = _circle("c1", 0, 0, 1)
    c2 = _circle("c2", 5, 5, 2)
    state, ctx = _ctx(c1, c2)
    assert eval_relation("smaller", ["c1", "c2"], state, ctx) is True
    assert eval_relation("larger", ["c2", "c1"], state, ctx) is True
    assert eval_relation("smaller", ["c2", "c1"], state, ctx) is False


def test_part_of_is_non_strict():
    c1 = _circle("c1", 0, 0, 2)
    c2 = _circle("c2", 0, 0, 2)
    state, ctx = _ctx(c1, c2)
    assert eval_relation("partOf", ["c1", "c2"], state, ctx) is True
    assert eval_relation("inside", ["c1", "c2"], state, ctx) is False


def test_readme_names_every_builtin_relation():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [name for name in BUILTIN_RELATIONS if f"`{name}`" not in readme] == []


def test_unknown_relation_and_unsupported_pair():
    p = _point("p", 0, 0)
    s = make_entity("s", "Path", ShapeKind.SEGMENT, [0, 0, 1, 1])
    state, ctx = _ctx(p, s)
    with pytest.raises(UnknownRelation):
        eval_relation("touches", ["p", "s"], state, ctx)
    with pytest.raises(UnsupportedShapePair):
        eval_relation("inside", ["p", "s"], state, ctx)


@pytest.mark.parametrize("name", ["inside", "partOf", "contact", "overlaps"])
def test_an_unsupported_pair_names_its_relation(name):
    s = make_entity("s", "Path", ShapeKind.SEGMENT, [0, 0, 1, 1])
    state, ctx = _ctx(s, _circle("c", 0, 0, 1))
    with pytest.raises(UnsupportedShapePair) as info:
        eval_relation(name, ["s", "c"], state, ctx)
    assert str(info.value) == f"{name}(Segment, Circle) is not defined"


# --- catalog-wide properties ---------------------------------------------------

_frac = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_radius = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)


@given(_frac, _frac, _radius, _frac, _frac, _radius)
@settings(max_examples=150, deadline=None)
def test_circle_relations_mutually_exclusive(x1, y1, r1, x2, y2, r2):
    """At zero tolerance, exactly one of the five base relations holds."""
    c1 = _circle("c1", x1, y1, r1)
    c2 = _circle("c2", x2, y2, r2)
    state, ctx = _ctx(c1, c2, epsilon=Fraction(0))
    truths = [
        eval_relation("inside", ["c1", "c2"], state, ctx),
        eval_relation("inside", ["c2", "c1"], state, ctx),
        eval_relation("contact", ["c1", "c2"], state, ctx),
        eval_relation("overlaps", ["c1", "c2"], state, ctx),
        eval_relation("disjoint", ["c1", "c2"], state, ctx),
    ]
    assert sum(truths) == 1


_ALL_PAIR_RELATIONS = ("inside", "partOf", "contact", "overlaps", "disjoint", "on", "smaller")


def _relation_snapshot(sc):
    ctx = EvalContext.for_scenario(sc)
    out = {}
    ids = [e.id for e in sc.entities]
    for t, state in enumerate(sc.trace.states):
        for a in ids:
            for b in ids:
                for rel in _ALL_PAIR_RELATIONS:
                    try:
                        out[(rel, a, b, t)] = eval_relation(rel, [a, b], state, ctx)
                    except UnsupportedShapePair:
                        out[(rel, a, b, t)] = None
                    except NotMeasurable:
                        out[(rel, a, b, t)] = None
    return out


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_translation_invariance(data):
    import random as _random

    from conftest import random_trace_scenario

    rng = _random.Random(data.draw(st.integers(0, 10**6)))
    sc = random_trace_scenario(rng)
    dx = data.draw(_frac)
    dy = data.draw(_frac)
    assert _relation_snapshot(sc) == _relation_snapshot(translate_scenario(sc, dx, dy))


@given(_frac, _frac, _radius, _frac, _frac, _radius, st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3), _frac, _frac)
@settings(max_examples=80, deadline=None)
def test_uniform_scaling_preserves_topology(x1, y1, r1, x2, y2, r2, k, px, py):
    """Scaling about any point keeps inside/overlaps/disjoint/smaller and
    zero-tolerance contact."""

    def scaled(v, anchor):
        return anchor + k * (v - anchor)

    c1 = _circle("c1", x1, y1, r1)
    c2 = _circle("c2", x2, y2, r2)
    d1 = _circle("c1", scaled(x1, px), scaled(y1, py), k * r1)
    d2 = _circle("c2", scaled(x2, px), scaled(y2, py), k * r2)
    state, ctx = _ctx(c1, c2, epsilon=Fraction(0))
    state2, ctx2 = _ctx(d1, d2, epsilon=Fraction(0))
    for rel in ("inside", "overlaps", "disjoint", "smaller", "contact"):
        assert eval_relation(rel, ["c1", "c2"], state, ctx) == eval_relation(
            rel, ["c1", "c2"], state2, ctx2
        ), rel


@given(st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_sweep_neighbours_match_all_pairs_horizontal_overlap(seed):
    entities, state = random_shape_scene(random.Random(seed), max_entities=9)
    neighbours = _swept(state, entities)
    assert set(neighbours) == {e.id for e in entities}
    for a in entities:
        expected = [b.id for b in entities if horizontal_overlap(state, a, b)]
        assert sorted(neighbours[a.id]) == sorted(expected)


def _swept(state, entities):
    """The neighbour lists that one gravity step leaves in the sweep on the
    state's view."""
    view = int_view(state)
    step(state, [gravity_rule(1)], EvalContext(entities={e.id: e for e in entities}))
    return view.sweep[0][3]


# --- the integer view against the Fraction oracle ----------------------------------

# The CLI refuses a negative tolerance; the library API takes one.
_VIEW_EPSILONS = [Fraction(0), Fraction(1, 10**9), Fraction(1, 4), Fraction(1), Fraction(-1, 4)]
# Half units make shared edges and exact contacts common; other denominators
# make the scale large.
_view_value = st.one_of(
    st.integers(-8, 8).map(lambda n: Fraction(n, 2)),
    st.fractions(min_value=-4, max_value=4, max_denominator=13),
)


@st.composite
def _view_scene(draw):
    """Two to four entities, the first two of any shapes, and a state whose
    values, sizes included, may be 0 or negative."""
    kinds = [draw(st.sampled_from(_SCENE_SHAPES)) for _ in range(draw(st.integers(2, 4)))]
    entities, values = [], {}
    for i, (sort, shape) in enumerate(kinds):
        entities.append(make_entity(f"e{i}", sort, shape, [1] * len(SHAPE_PARAMS[shape])))
        for name in SHAPE_PARAMS[shape]:
            values[(f"e{i}", name)] = draw(_view_value)
    return entities, State(0, values)


def _over(value, scale):
    """A view quantity (an integer, a pair of them, or None) as rationals."""
    if value is None:
        return None
    if isinstance(value, tuple):
        return tuple(Fraction(v, scale) for v in value)
    return Fraction(value, scale)


@given(_view_scene(), st.sampled_from(_VIEW_EPSILONS))
@settings(max_examples=600, deadline=None)
def test_integer_view_matches_the_fraction_oracle(scene, epsilon):
    entities, state = scene
    ctx = EvalContext(entities={e.id: e for e in entities}, epsilon=epsilon)
    scale = int_view(state).scale
    for a in entities:
        assert _over(bottom(state, a), scale) == oracle.bottom(state, a)
        assert _over(top(state, a), scale) == oracle.top(state, a)
        assert _over(horizontal_interval(state, a), scale) == oracle.horizontal_interval(state, a)
        for b in entities:
            assert horizontal_overlap(state, a, b) == oracle.horizontal_overlap(state, a, b)
            assert touches(state, ctx, a, b) == oracle.touches(state, ctx, a, b), (a, b)
            assert rel_on(state, ctx, a, b) == oracle.rel_on(state, ctx, a, b), (a, b)
            for name, theirs in oracle.REGION_RELATIONS.items():
                ours = _outcome(eval_relation, name, [a.id, b.id], state, ctx)
                assert ours == _outcome(theirs, state, ctx, a, b), (name, a, b)
            _assert_distances_match_the_oracle(state, ctx, a, b)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (UnknownParameter, UnsupportedShapePair) as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_distances_match_the_oracle(state, ctx, a, b):
    """delta's squared distance on the view, and closeTo at several
    thresholds, as the Fraction oracle has them."""
    ours = _outcome(delta_squared, state, a, b)
    assert (ours if isinstance(ours, str) else Fraction(*ours)) == _outcome(oracle.distance_squared, state, a, b)
    for threshold in (None, Fraction(0), Fraction(3, 7), Fraction(2), Fraction(-1, 2)):
        nums = () if threshold is None else (threshold,)
        ours = _outcome(eval_relation, "closeTo", [a.id, b.id], state, ctx, nums)
        assert ours == _outcome(oracle.rel_close_to, state, ctx, a, b, threshold), (threshold, a, b)


@given(_view_scene(), st.data())
@settings(max_examples=200, deadline=None)
def test_integer_view_reports_a_missing_parameter_as_the_oracle_does(scene, data):
    entities, state = scene
    missing = data.draw(st.sampled_from(sorted(state.values)))
    state = State(0, {k: v for k, v in state.values.items() if k != missing})
    ctx = EvalContext(entities={e.id: e for e in entities}, epsilon=Fraction(1, 4))
    scale = int_view(state).scale
    for a in entities:
        for ours, theirs in ((bottom, oracle.bottom), (top, oracle.top)):
            got = _outcome(ours, state, a)
            assert (got if isinstance(got, str) else _over(got, scale)) == _outcome(theirs, state, a)
        for b in entities:
            for name in ("touches", "rel_on", "horizontal_overlap"):
                ours, theirs = globals()[name], getattr(oracle, name)
                args = (state, ctx, a, b) if name != "horizontal_overlap" else (state, a, b)
                assert _outcome(ours, *args) == _outcome(theirs, *args), name
            for name, theirs in oracle.REGION_RELATIONS.items():
                ours = _outcome(eval_relation, name, [a.id, b.id], state, ctx)
                assert ours == _outcome(theirs, state, ctx, a, b), name
            _assert_distances_match_the_oracle(state, ctx, a, b)


def test_sweep_neighbours_corner_cases():
    floor = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    left = make_entity("l", "Rectangle", ShapeKind.RECTANGLE, [1, 1, 2, 2])  # x in [0, 2]
    right = make_entity("r", "Rectangle", ShapeKind.RECTANGLE, [3, 1, 2, 2])  # x in [2, 4]
    pin = make_entity("p", "Object", ShapeKind.POINT, [2, 5])
    far = make_entity("c", "Circle", ShapeKind.CIRCLE, [10, 1, 1])
    rail = make_entity("s", "Path", ShapeKind.SEGMENT, [4, 0, -1, 3])  # x in [-1, 4]
    entities = [floor, left, right, pin, far, rail]
    state = initial_state(entities)
    got = {k: set(v) for k, v in _swept(state, entities).items()}
    assert got["f"] == set("flrpcs")
    assert got["l"] == set("flrps")  # a shared edge coordinate meets
    assert got["p"] == set("flrps")
    assert got["c"] == set("fc")
    # a zero-width rectangle is its own neighbour; an inverted extent is not
    squashed = {**state.values, ("l", "w"): Fraction(0), ("r", "w"): Fraction(-1)}
    got = {k: set(v) for k, v in _swept(State(0, squashed), entities).items()}
    assert got["l"] == {"f", "l", "s"}
    assert got["r"] == {"f", "s"}


# --- the box filter of the binding search ---------------------------------------------

BOXED_RELATIONS = ("inside", "partOf", "overlaps", "contact", "on", "closeTo")


def _within(entities, state, ctx, name, a, b, threshold=None):
    decls = {e.id: e for e in entities}
    return not boxes_apart(state, decls[a], decls[b], box_margin(name, ctx, threshold))


@given(st.integers(0, 10**6), st.sampled_from([0, Fraction(1, 4), Fraction(1, 2), 1, Fraction(-1, 2)]))
@settings(max_examples=300, deadline=None)
def test_box_filter_keeps_every_pair_a_relation_holds_for(seed, epsilon):
    entities, state = random_shape_scene(random.Random(seed), max_entities=7)
    ctx = EvalContext(entities={e.id: e for e in entities}, epsilon=Fraction(epsilon))
    for name in BOXED_RELATIONS:
        for threshold in (None, Fraction(0), Fraction(3, 2)) if name == "closeTo" else (None,):
            for a in entities:
                for b in entities:
                    nums = [] if threshold is None else [threshold]
                    try:
                        holds = eval_relation(name, [a.id, b.id], state, ctx, nums)
                    except UnsupportedShapePair:
                        continue
                    if holds:
                        assert _within(entities, state, ctx, name, a.id, b.id, threshold), (name, a, b)


@given(st.integers(0, 10**6), st.sampled_from([0, Fraction(1, 10**9), Fraction(1, 2), 2, Fraction(7, 3)]))
@settings(max_examples=300, deadline=None)
def test_near_boxes_are_the_pairs_the_box_filter_keeps(seed, margin):
    rng = random.Random(seed)
    entities, state = random_shape_scene(rng, max_entities=9)
    spread = rng.choice((1, 3, 10))  # positions spread out, so that more boxes lie apart
    values = {key: v if key[1] in EXTENT_PARAMS else v * spread for key, v in state.values.items()}
    if rng.random() < 0.2:  # an entity that lacks a parameter is near everything
        del values[rng.choice(sorted(values))]
    state = State(0, values)
    near = near_boxes(state, entities, Fraction(margin))
    for a in entities:
        expected = [i for i, b in enumerate(entities) if not boxes_apart(state, a, b, Fraction(margin))]
        assert near(a) == expected


def test_a_view_builds_each_box_once_per_shape():
    rect = make_entity("e", "Rectangle", ShapeKind.RECTANGLE, [1, 1, 2, 4])
    point = make_entity("e", "Object", ShapeKind.POINT, [1, 1])
    view = int_view(initial_state([rect]))
    L = view.scale
    box = view.box(rect)
    assert box == ((0, 2 * L), (-L, 3 * L))
    assert view.box(rect) is box
    # the same id declared as another shape reads other parameters
    assert view.box(point) == ((L, L), (L, L))
    assert view.box(rect) == box


def test_box_filter_boundary_cases():
    left = make_entity("l", "Rectangle", ShapeKind.RECTANGLE, [1, 1, 2, 2])  # x in [0, 2]
    right = make_entity("r", "Rectangle", ShapeKind.RECTANGLE, [3, 1, 2, 2])  # x in [2, 4]
    gap = make_entity("g", "Rectangle", ShapeKind.RECTANGLE, [Fraction(9, 2), 1, 1, 2])  # x in [4, 5]
    floor = make_entity("f", "Floor", ShapeKind.FLOOR, [Fraction(-1, 4)])
    ring = make_entity("c", "Circle", ShapeKind.CIRCLE, [10, 10, 1])
    dot = make_entity("p", "Object", ShapeKind.POINT, [Fraction(21, 2), 10])
    entities = [left, right, gap, floor, ring, dot]
    state, ctx = _ctx(*entities, epsilon=Fraction(1, 4))
    # edges that meet exactly: the closed comparison keeps them
    assert eval_relation("contact", ["l", "r"], state, ctx)
    assert _within(entities, state, ctx, "contact", "l", "r")
    # within epsilon but apart: the margin keeps them
    moved = State(0, {**state.values, ("g", "x"): Fraction(19, 4)})  # x in [17/4, 21/4]
    assert eval_relation("contact", ["r", "g"], moved, ctx)
    assert _within(entities, moved, ctx, "contact", "r", "g")
    assert eval_relation("on", ["l", "f"], state, ctx)
    assert _within(entities, state, ctx, "on", "l", "f")
    # a negative radius still holds the point: boxes count sizes by absolute value
    flipped = State(0, {**state.values, ("c", "r"): Fraction(-1)})
    assert eval_relation("inside", ["p", "c"], flipped, ctx)
    assert _within(entities, flipped, ctx, "inside", "p", "c")
    assert not _within(entities, state, ctx, "closeTo", "l", "c", Fraction(1, 4))


# --- exact delta comparisons ---------------------------------------------------

_MIRROR = {"<": ">", "<=": ">=", "=": "=", "!=": "!=", ">=": "<=", ">": "<"}
_coordinate = st.one_of(
    st.integers(-20, 20).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=10**6),
)


def _by_squares(d2, cmp, k, eps):
    """sqrt(d2) `cmp` k in Fractions, by comparing squares."""
    if cmp in ("=", "!="):
        near = k + eps >= 0 and d2 <= (k + eps) ** 2 and (k - eps <= 0 or d2 >= (k - eps) ** 2)
        return near == (cmp == "=")
    below, equal = k > 0 and d2 < k * k, k >= 0 and d2 == k * k
    return {"<": below, "<=": below or equal, ">": not (below or equal), ">=": not below}[cmp]


def _pair_by_squares(d2, e2, cmp, eps):
    """sqrt(d2) `cmp` sqrt(e2) in Fractions: (d - e)^2 <= eps^2 reads
    d2 + e2 - eps^2 <= 2 sqrt(d2 e2)."""
    if cmp in ("=", "!="):
        x = d2 + e2 - eps * eps
        near = eps >= 0 and (x <= 0 or x * x <= 4 * d2 * e2)
        return near == (cmp == "=")
    return {"<": d2 < e2, "<=": d2 <= e2, ">": d2 > e2, ">=": d2 >= e2}[cmp]


def _by_decimals(d, k, cmp, eps):
    """d `cmp` k from 200-digit decimals, or None where they lie too close
    to decide."""
    if cmp in ("=", "!="):
        slack = eps - abs(d - k)
        return None if abs(slack) < Decimal(10) ** -150 else (slack >= 0) == (cmp == "=")
    if abs(d - k) < Decimal(10) ** -150:
        return None
    return {"<": d < k, "<=": d < k, ">": d > k, ">=": d > k}[cmp]


def _rational_root(q):
    """sqrt(q) where it is rational, else None."""
    n, m = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(n, m) if n * n == q.numerator and m * m == q.denominator else None


def _root_near(d2, digits, offset):
    """A rational within about 10^-digits of sqrt(d2), moved by `offset`
    units of that size: the boundary of a comparison with delta."""
    scale = 10**digits
    return Fraction(math.isqrt(d2.numerator * scale * scale // d2.denominator), scale) + Fraction(offset, scale)


@given(st.data(), st.sampled_from(_VIEW_EPSILONS))
@settings(max_examples=300, deadline=None)
def test_delta_comparisons_are_exact(data, epsilon):
    xs = data.draw(st.lists(_coordinate, min_size=8, max_size=8))
    a = _point("a", xs[0], xs[1])
    if data.draw(st.booleans()):
        b = _point("b", xs[2], xs[3], sort="Region")
    else:
        b = make_entity("b", "Path", ShapeKind.SEGMENT, [xs[2], xs[3], xs[4], xs[5]])
    c = _point("c", xs[6], xs[7], sort="Region")
    # e lies as far from c as a from b; or, where that distance is
    # rational, exactly epsilon farther; or anywhere
    dx, dy = xs[2] - xs[0], xs[3] - xs[1]
    root = _rational_root(dx * dx + dy * dy)
    where = data.draw(st.sampled_from(("turned", "stretched", "anywhere")))
    if where == "stretched" and b.shape is ShapeKind.POINT and root:
        stretch = (root + epsilon) / root
        e = _point("e", xs[6] + dx * stretch, xs[7] + dy * stretch, sort="Region")
    elif where != "anywhere":
        e = _point("e", xs[6] - dy, xs[7] + dx, sort="Region")
    else:
        e = _point("e", *data.draw(st.lists(_coordinate, min_size=2, max_size=2)), sort="Region")
    state, ctx = _ctx(a, b, c, e, epsilon=epsilon)
    d2, e2 = oracle.distance_squared(state, a, b), oracle.distance_squared(state, c, e)
    k = data.draw(st.one_of(
        st.builds(_root_near, st.just(d2), st.integers(0, 40), st.integers(-2, 2)),
        st.builds(lambda k, eps: k + eps, st.builds(_root_near, st.just(d2), st.just(0), st.just(0)),
                  st.sampled_from([epsilon, -epsilon])),
        st.fractions(min_value=-3, max_value=30, max_denominator=50),
    ))
    with localcontext() as dec:
        dec.prec = 200
        d, dk, de = (Decimal(q.numerator) / Decimal(q.denominator) for q in (d2, k, epsilon))
        d, other = d.sqrt(), (Decimal(e2.numerator) / Decimal(e2.denominator)).sqrt()
        for cmp in COMPARATORS:
            got = eval_constraint(Compare(DeltaExpr("a", "b"), cmp, Const(k)), state, ctx)
            assert got == eval_constraint(Compare(Const(k), _MIRROR[cmp], DeltaExpr("a", "b")), state, ctx)
            assert got == _by_squares(d2, cmp, k, epsilon), (cmp, k)
            assert _by_decimals(d, dk, cmp, de) in (None, got), (cmp, k)
            pair = eval_constraint(Compare(DeltaExpr("a", "b"), cmp, DeltaExpr("e", "c")), state, ctx)
            assert pair == _pair_by_squares(d2, e2, cmp, epsilon), cmp
            assert _by_decimals(d, other, cmp, de) in (None, pair), cmp
