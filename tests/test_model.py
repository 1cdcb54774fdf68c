import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_shape_scene

from ischema.errors import (
    BadShapeForSort,
    DuplicateEntity,
    InvalidScenario,
    NegativeExtent,
    UnknownSort,
)
from ischema.geometry import EvalContext
from ischema.model import (
    BUILTIN_HIERARCHY,
    ShapeKind,
    Sort,
    SortHierarchy,
    State,
    Theory,
    Trace,
    declare_scenario,
    initial_state,
    make_entity,
    subsort_of,
    translate_scenario,
)


def test_declare_figure_like_scenario(fig1_scenario):
    assert [e.id for e in fig1_scenario.entities] == ["a", "b", "c"]
    assert fig1_scenario.trace.length == 1
    state = fig1_scenario.trace.states[0]
    assert state.value("a", "x") == 4
    assert state.value("b", "y") == Fraction(9, 2)


def test_duplicate_entity_rejected():
    a1 = make_entity("a", "Object", ShapeKind.POINT, [0, 0])
    a2 = make_entity("a", "Object", ShapeKind.POINT, [1, 1])
    with pytest.raises(DuplicateEntity):
        declare_scenario([a1, a2], trace=Trace((initial_state([a1]),)))


def test_negative_extent_rejected():
    with pytest.raises(NegativeExtent):
        make_entity("c", "Container", ShapeKind.CIRCLE, [0, 0, -1])
    with pytest.raises(NegativeExtent):
        make_entity("r", "Container", ShapeKind.RECTANGLE, [0, 0, 2, 0])


def test_shape_admissibility():
    with pytest.raises(BadShapeForSort):
        make_entity("p", "Container", ShapeKind.POINT, [0, 0])
    with pytest.raises(BadShapeForSort):
        make_entity("c", "Object", ShapeKind.CIRCLE, [0, 0, 1])
    # circles are containers; regions may be points
    make_entity("c", "Circle", ShapeKind.CIRCLE, [0, 0, 1])
    make_entity("w", "Region", ShapeKind.POINT, [0, 0])


def test_scenario_needs_exactly_one_tail():
    a = make_entity("a", "Object", ShapeKind.POINT, [0, 0])
    with pytest.raises(InvalidScenario):
        declare_scenario([a])
    with pytest.raises(InvalidScenario):
        declare_scenario([a], trace=Trace((initial_state([a]),)), rules=[], horizon=3)


def test_trace_totality_enforced():
    a = make_entity("a", "Object", ShapeKind.POINT, [0, 0])
    partial = State(time=0, values={("a", "x"): Fraction(0)})
    with pytest.raises(InvalidScenario):
        declare_scenario([a], trace=Trace((partial,)))


def test_subsort_examples():
    assert subsort_of("Circle", "Container")
    assert subsort_of("Object", "Object")
    assert not subsort_of("Container", "Circle")
    assert subsort_of("Rectangle", "Entity")
    with pytest.raises(UnknownSort):
        subsort_of("Cup", "Entity")


def test_user_sorts_extend_builtins():
    h = SortHierarchy([Sort("Cup", "Container"), Sort("Mug", "Cup")])
    assert h.subsort_of("Mug", "Container")


def test_sort_cycle_rejected():
    with pytest.raises(UnknownSort):
        SortHierarchy([Sort("A", "B"), Sort("B", "A")])


def test_trace_index_and_key_invariants():
    a = make_entity("a", "Object", ShapeKind.POINT, [0, 0])
    s0 = initial_state([a])
    with pytest.raises(InvalidScenario):
        Trace((s0, s0))  # second state repeats time 0
    with pytest.raises(InvalidScenario):
        Trace(())


def test_trace_suffix_reindexes():
    a = make_entity("a", "Object", ShapeKind.POINT, [0, 0])
    states = tuple(
        State(time=t, values={("a", "x"): Fraction(t), ("a", "y"): Fraction(0)})
        for t in range(4)
    )
    suffix = Trace(states).suffix(2)
    assert suffix.length == 2
    assert [s.time for s in suffix.states] == [0, 1]
    assert suffix.states[0].value("a", "x") == 2


def test_translate_scenario(fig1_scenario):
    moved = translate_scenario(fig1_scenario, 17, -3)
    state = moved.trace.states[0]
    assert state.value("a", "x") == 21
    assert state.value("a", "y") == 2
    assert state.value("c", "r") == 3  # extents untouched


# --- the subsort relation is a partial order over random forests ---------------

_forest = st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=12)


def _hierarchy_from(parent_picks: list[int]) -> SortHierarchy:
    names = list(BUILTIN_HIERARCHY.sort_names())
    sorts = []
    for i, pick in enumerate(parent_picks):
        pool = names + [s.name for s in sorts]
        sorts.append(Sort(f"S{i}", pool[pick % len(pool)]))
    return SortHierarchy(sorts)


@given(_forest, st.data())
def test_subsort_partial_order(parent_picks, data):
    h = _hierarchy_from(parent_picks)
    names = list(h.sort_names())
    s = data.draw(st.sampled_from(names))
    t = data.draw(st.sampled_from(names))
    u = data.draw(st.sampled_from(names))
    assert h.subsort_of(s, s)  # reflexive
    if h.subsort_of(s, t) and h.subsort_of(t, s):
        assert s == t  # antisymmetric
    if h.subsort_of(s, t) and h.subsort_of(t, u):
        assert h.subsort_of(s, u)  # transitive


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_a_sort_domain_is_the_subsort_filter_in_declaration_order(seed):
    entities, _ = random_shape_scene(random.Random(seed))
    theory = Theory("T", sorts=(Sort("Cup", "Container"), Sort("Mug", "Cup"), Sort("Spot", "Region")))
    ctx = EvalContext.for_scenario(declare_scenario(entities, trace=Trace((initial_state(entities),))), theory)
    hierarchy = theory.hierarchy()
    for sort in hierarchy.sort_names():
        assert ctx.domain(sort) == tuple(e.id for e in entities if hierarchy.subsort_of(e.sort, sort))
        assert ctx.domain(sort) is ctx.domain(sort)
    for _ in range(2):  # an unknown sort raises on every call
        with pytest.raises(UnknownSort) as info:
            ctx.domain("X")
        assert str(info.value) == "unknown sort 'X'"
