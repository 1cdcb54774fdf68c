from fractions import Fraction

import pytest

from ischema.enumeration import GridSpec, count_models, enumerate_models, grid_points
from ischema.errors import SearchSpaceTooLarge, UnknownEntity
from ischema.library import schema_theory
from ischema.logic import FalseF, TrueF, check_theory
from ischema.model import (
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
