import dataclasses
import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fraction_geometry
from conftest import random_shape_scene, random_trace_scenario, rational

from ischema import dynamics, geometry
from ischema.dynamics import (
    AddForce,
    DeltaParam,
    RemoveForce,
    Rule,
    SetParam,
    gravity_rule,
    simulate,
    step,
    stratify,
    umph_rule,
)
from ischema.errors import (
    ConflictingEffects,
    InvalidScenario,
    IschemaError,
    NonPositiveDelta,
    UnknownParameter,
    UnstratifiableRuleSet,
)
from ischema.geometry import (
    DEFAULT_EPSILON,
    Add,
    Const,
    EvalContext,
    ParamRef,
    eval_relation,
)
from ischema.logic import (
    Always,
    And,
    Atom,
    Before,
    Compare,
    Eventually,
    Next,
    Not,
    TrueF,
)
from ischema.model import (
    SHAPE_PARAMS,
    ForceFluent,
    RelationSig,
    ShapeKind,
    Trace,
    declare_scenario,
    initial_state,
    make_entity,
)


def _drop_scenario(height=5, horizon=7, delta=1):
    o = make_entity("o", "Object", ShapeKind.POINT, [2, height])
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    return declare_scenario([o, f], rules=[gravity_rule(delta)], horizon=horizon)


def _ys(trace, eid="o"):
    return [s.value(eid, "y") for s in trace.states]


def test_gravity_single_step():
    sc = _drop_scenario()
    ctx = EvalContext.for_scenario(sc)
    after = step(initial_state(sc.entities), list(sc.rules), ctx)
    assert after.value("o", "x") == 2
    assert after.value("o", "y") == 4


def test_empty_rule_set_is_pure_inertia():
    o = make_entity("o", "Object", ShapeKind.POINT, [2, 5])
    sc = declare_scenario([o], rules=[], horizon=4)
    trace = simulate(sc)
    assert all(s.values == trace.states[0].values for s in trace.states)


def test_simulate_rejects_a_concrete_scenario_and_a_horizon_below_one():
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 0])
    concrete = declare_scenario([o], trace=Trace((initial_state([o]),)))
    with pytest.raises(InvalidScenario, match="simulate needs a generative scenario"):
        simulate(concrete)
    for horizon in (0, -3):
        with pytest.raises(InvalidScenario, match="simulation horizon must be at least 1"):
            simulate(_drop_scenario(), horizon=horizon)


def test_horizon_one_is_just_the_initial_state():
    trace = simulate(_drop_scenario(horizon=1))
    assert trace.length == 1
    assert trace.states[0] == initial_state(_drop_scenario(horizon=1).entities)


def test_gravity_does_not_fire_once_supported():
    sc = _drop_scenario(height=0)
    ctx = EvalContext.for_scenario(sc)
    after = step(initial_state(sc.entities), list(sc.rules), ctx)
    assert after.value("o", "y") == 0


def test_gravity_drop_sequence():
    trace = simulate(_drop_scenario())
    assert _ys(trace) == [5, 4, 3, 2, 1, 0, 0]


def test_gravity_clamps_to_exact_contact():
    trace = simulate(_drop_scenario(height=Fraction("4.5"), horizon=7))
    assert _ys(trace) == [Fraction("4.5"), Fraction("3.5"), Fraction("2.5"), Fraction("1.5"), Fraction("0.5"), 0, 0]


def test_gravity_without_floor_descends_forever():
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 3])
    sc = declare_scenario([o], rules=[gravity_rule(1)], horizon=6)
    assert _ys(simulate(sc)) == [3, 2, 1, 0, -1, -2]


def test_gravity_onto_stacked_body():
    # the falling point lands on the crate's top, not the floor
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 5])
    crate = make_entity("crate", "Container", ShapeKind.RECTANGLE, [0, 1, 2, 2])
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    sc = declare_scenario([o, crate, f], rules=[gravity_rule(1)], horizon=6)
    assert _ys(simulate(sc)) == [5, 4, 3, 2, 2, 2]


def test_gravity_lands_on_a_support_met_at_one_edge_point():
    # the crate spans x in [0, 2] and the box x in [2, 4]: their extents share x = 2
    box = make_entity("box", "Rectangle", ShapeKind.RECTANGLE, [3, 6, 2, 2])
    crate = make_entity("crate", "Container", ShapeKind.RECTANGLE, [1, 1, 2, 2])
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    sc = declare_scenario([box, crate, f], rules=[gravity_rule(1)], horizon=6)
    assert _ys(simulate(sc), "box") == [6, 5, 4, 3, 3, 3]


def test_gravity_falls_past_a_segment():
    # a segment has no top, so it neither supports nor clamps
    o = make_entity("o", "Object", ShapeKind.POINT, [0, Fraction("2.5")])
    rail = make_entity("rail", "Path", ShapeKind.SEGMENT, [-5, 2, 5, 2])
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    sc = declare_scenario([o, rail, f], rules=[gravity_rule(1)], horizon=5)
    assert _ys(simulate(sc)) == [Fraction("2.5"), Fraction("1.5"), Fraction("0.5"), 0, 0]


def test_gravity_clamps_a_circle_on_a_rectangle_it_is_never_on():
    # contact is undefined for a circle and a rectangle, so on(ball, crate)
    # stays false and gravity keeps firing, with drops of 0 once in contact
    ball = make_entity("ball", "Circle", ShapeKind.CIRCLE, [0, Fraction("4.5"), 1])
    crate = make_entity("crate", "Container", ShapeKind.RECTANGLE, [0, 1, 2, 2])
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    sc = declare_scenario([ball, crate, f], rules=[gravity_rule(1)], horizon=5)
    trace = simulate(sc)
    assert _ys(trace, "ball") == [Fraction("4.5"), Fraction("3.5"), 3, 3, 3]
    ctx = EvalContext.for_scenario(sc)
    assert not eval_relation("on", ["ball", "crate"], trace.states[-1], ctx)


def test_gravity_targets_of_one_stratum_fall_against_the_same_state():
    # o clamps at the crate's top before the step, although the crate falls in
    # the same step
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 3])
    crate = make_entity("crate", "Container", ShapeKind.RECTANGLE, [0, 2, 2, 2])
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    sc = declare_scenario([o, crate, f], rules=[gravity_rule(1)], horizon=4)
    trace = simulate(sc)
    assert _ys(trace) == [3, 3, 2, 2]
    assert _ys(trace, "crate") == [2, 1, 1, 1]


def test_gravity_support_within_epsilon():
    o = make_entity("o", "Object", ShapeKind.POINT, [0, Fraction(1, 4)])
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    sc = declare_scenario([o, f], rules=[gravity_rule(1)], horizon=3)
    assert _ys(simulate(sc, epsilon=Fraction(1, 2))) == [Fraction(1, 4)] * 3
    assert _ys(simulate(sc)) == [Fraction(1, 4), 0, 0]


@given(
    st.integers(0, 10**6),
    st.sampled_from([Fraction(0), DEFAULT_EPSILON, Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3)]),
)
@settings(max_examples=200, deadline=None)
def test_gravity_sweep_matches_generic_evaluator(seed, epsilon, delta):
    # the generic path decides `not exists y. on(x, y)` with the evaluator
    entities, state = random_shape_scene(random.Random(seed))
    fast = gravity_rule(delta)
    generic = dataclasses.replace(fast, kind="generic")
    ctx = EvalContext.for_scenario(declare_scenario(entities, rules=[fast], horizon=2), epsilon=epsilon)
    for _ in range(3):
        after = step(state, [fast], ctx)
        assert step(state, [generic], ctx) == after
        # the generic side again, deciding `on` and the clamp in `Fraction`s
        with mock.patch.object(dynamics, "_fall_drop", fraction_geometry.fall_drop), \
                mock.patch.object(geometry, "rel_on", fraction_geometry.rel_on):
            assert step(state, [generic], ctx) == after
        state = after


@pytest.mark.parametrize(
    "condition",
    # the second reads `on`, so the first stratum builds its state's integer
    # view before its effect moves the crate
    [TrueF(), Not(Atom("on", ("crate", "pillar")))],
)
def test_gravity_reads_what_an_earlier_stratum_wrote(condition):
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 10])
    crate = make_entity("crate", "Container", ShapeKind.RECTANGLE, [0, 5, 2, 2])
    pillar = make_entity("pillar", "Container", ShapeKind.RECTANGLE, [0, 1, 2, 2])
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    lift = Rule("lift", condition, (SetParam("crate", "y", Const(Fraction(3))),))
    fall = dataclasses.replace(gravity_rule(10), shapes=frozenset({ShapeKind.POINT}))
    sc = declare_scenario([o, crate, pillar, f], rules=[fall, lift], horizon=2)
    ctx = EvalContext.for_scenario(sc)
    assert [[r.name for r in s] for s in stratify(list(sc.rules), ctx)] == [["lift"], ["gravity"]]
    # lift sets the crate on the pillar, and o lands on its new top (4), not its old (6)
    after = simulate(sc).states[1]
    assert (after.value("crate", "y"), after.value("o", "y")) == (3, 4)


_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


def prime_denominator_scene() -> str:
    """Sixteen bodies in four columns above a floor, with sideways pushes;
    the parameters of body k have denominator `_PRIMES[k]`, so the integer
    view's scale is twice the product of all sixteen."""
    lines = ["scenario primes", "  entity f : Floor = Floor(0)"]
    for k, p in enumerate(_PRIMES):
        x, y = Fraction(6 * (k % 4) * p + 1, p), Fraction(p * (2 + 3 * (k // 4)) + 1, p)
        size = Fraction(p + 1, p)
        params = [x, y] + [size] * (k % 3)
        shape = ("Point", "Circle", "Rectangle")[k % 3]
        text = ", ".join(f"{v.numerator}/{v.denominator}" for v in params)
        lines.append(f"  entity b{k} : {'Object' if k % 3 == 0 else 'Container'} = {shape}({text})")
    lines += ["  rules", "    gravity(1/2)"]
    lines += [f"    umph push{k} on b{k} ({(-1) ** k}/{_PRIMES[k]}, 0)" for k in range(0, 16, 5)]
    return "\n".join(lines + ["  horizon 24", "end", ""])


def test_gravity_with_sixteen_prime_denominators_matches_the_fraction_oracle():
    from ischema.dsl import parse_scenario

    sc = parse_scenario(prime_denominator_scene())
    trace = simulate(sc)
    assert len(str(geometry.int_view(trace.states[0]).scale)) == 22
    generic = [dataclasses.replace(r, kind="generic") if r.kind == "gravity" else r for r in sc.rules]
    ctx = EvalContext.for_scenario(sc)
    state = trace.states[0]
    with mock.patch.object(dynamics, "_fall_drop", fraction_geometry.fall_drop), \
            mock.patch.object(geometry, "rel_on", fraction_geometry.rel_on):
        for expected in trace.states[1:]:
            state = step(state, generic, ctx)
            assert state == expected
    ys = [s.value("b15", "y") for s in trace.states]
    assert ys[-1] < ys[0]  # the bodies do fall


def test_gravity_under_an_on_template_decides_with_the_generic_evaluator():
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 3])
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    sc = declare_scenario([o, f], rules=[gravity_rule(1)], horizon=4)
    low = Compare(ParamRef("arg1", "y"), "<=", Const(Fraction(2)))
    templated = EvalContext.for_scenario(sc)
    templated.relations = {"on": RelationSig("on", ("Entity", "Entity"), low)}
    for ctx, expected in ((templated, [2, 2, 2]), (EvalContext.for_scenario(sc), [2, 1, 0])):
        state, ys = initial_state(sc.entities), []
        for _ in range(3):
            state = step(state, list(sc.rules), ctx)
            ys.append(state.value("o", "y"))
        assert ys == expected


def test_gravity_rejects_nonpositive_delta():
    with pytest.raises(NonPositiveDelta):
        gravity_rule(0)


def test_umph_until_goal():
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 0])
    goal = make_entity("goal", "Region", ShapeKind.POINT, [3, 0])
    until = Atom("closeTo", ("o", "goal", Const(Fraction(0))))
    sc = declare_scenario(
        [o, goal], rules=[umph_rule("push", "o", 1, 0, until=until)], horizon=6
    )
    trace = simulate(sc)
    assert [s.value("o", "x") for s in trace.states] == [0, 1, 2, 3, 3, 3]


def test_force_fluents_superpose_to_rest():
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 0])
    sc = declare_scenario([o], rules=[], horizon=4)
    forces = frozenset(
        {ForceFluent("l", "o", Fraction(1), Fraction(0)), ForceFluent("r", "o", Fraction(-1), Fraction(0))}
    )
    ctx = EvalContext.for_scenario(sc)
    states = [initial_state(sc.entities, forces)]
    for _ in range(3):
        states.append(step(states[-1], [], ctx))
    assert [s.value("o", "x") for s in states] == [0, 0, 0, 0]
    assert all(s.forces == forces for s in states)


def test_add_and_remove_force_effects():
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 0])
    fl = ForceFluent("wind", "o", Fraction(1), Fraction(0))
    arm = Rule("arm", TrueF(), (AddForce(fl),), until=Compare(ParamRef("o", "x"), ">=", Const(Fraction(1))))
    disarm = Rule(
        "disarm",
        Compare(ParamRef("o", "x"), ">=", Const(Fraction(2))),
        (RemoveForce("wind", "o"),),
    )
    sc = declare_scenario([o], rules=[arm, disarm], horizon=5)
    trace = simulate(sc)
    # force starts acting the step after it appears, and stops after removal
    assert [s.value("o", "x") for s in trace.states] == [0, 0, 1, 2, 3]
    assert [bool(s.forces) for s in trace.states] == [False, True, True, True, False]


def test_conflicting_set_effects():
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 0])
    r1 = Rule("r1", TrueF(), (SetParam("o", "x", Const(Fraction(1))),))
    r2 = Rule("r2", TrueF(), (SetParam("o", "x", Const(Fraction(2))),))
    sc = declare_scenario([o], rules=[r1, r2], horizon=2)
    with pytest.raises(ConflictingEffects):
        simulate(sc)
    # agreeing assignments are fine
    r2b = Rule("r2", TrueF(), (SetParam("o", "x", Const(Fraction(1))),))
    sc2 = declare_scenario([o], rules=[r1, r2b], horizon=2)
    assert simulate(sc2).states[1].value("o", "x") == 1


def test_set_plus_delta_is_a_conflict():
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 0])
    r1 = Rule("r1", TrueF(), (SetParam("o", "x", Const(Fraction(1))),))
    r2 = Rule("r2", TrueF(), (DeltaParam("o", "x", Const(Fraction(1))),))
    sc = declare_scenario([o], rules=[r1, r2], horizon=2)
    with pytest.raises(ConflictingEffects):
        simulate(sc)


_STRATA = """scenario s
  entity o : Object = Point(0, 0)
  entity p : Object = Point(0, 0)
  rules
    rule first when true do o.x := 1
    rule second when o.x > 0 do {second}
    rule third when o.x > 0 do {third}
  horizon 2
end
"""


@pytest.mark.parametrize(
    "second, third, message",
    [
        ("o.x := 2", "p.y += 1", "conflicting assignments to o.x: 1 vs 2"),
        ("o.x += 1", "p.y += 1", "o.x is both assigned and incremented in one step"),
        # a later stratum's own conflict is found before one across strata
        ("o.x := 2", "p.y := 1, p.y := 2", "conflicting assignments to p.y: 1 vs 2"),
        ("o.x := 1", "p.y := 1", None),
    ],
)
def test_effects_across_strata(second, third, message):
    from ischema.dsl import parse_scenario

    sc = parse_scenario(_STRATA.format(second=second, third=third))
    ctx = EvalContext.for_scenario(sc)
    assert [[r.name for r in s] for s in stratify(list(sc.rules), ctx)] == [["first"], ["second"], ["third"]]
    if message is not None:
        with pytest.raises(ConflictingEffects, match=re.escape(message)):
            simulate(sc)
        return
    trace = simulate(sc)
    assert trace.states[0].value("o", "x") == 0  # stepping copies state 0's values
    assert (trace.states[1].value("o", "x"), trace.states[1].value("p", "y")) == (1, 1)


def test_deltas_sum():
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 0])
    r1 = Rule("r1", TrueF(), (DeltaParam("o", "x", Const(Fraction(2))),))
    r2 = Rule("r2", TrueF(), (DeltaParam("o", "x", Const(Fraction(3))),))
    sc = declare_scenario([o], rules=[r1, r2], horizon=2)
    assert simulate(sc).states[1].value("o", "x") == 5


@pytest.mark.parametrize(
    "wrap",
    [lambda phi: phi, Next, Always, Eventually, Before],
    ids=["plain", "next", "always", "eventually", "before"],
)
def test_unstratifiable_rule_set_rejected(wrap):
    # a negated read counts under every temporal operator
    a = make_entity("a", "Object", ShapeKind.POINT, [0, 0])
    b = make_entity("b", "Object", ShapeKind.POINT, [5, 5])
    near = lambda x, y: Atom("closeTo", (x, y, Const(Fraction(1))))
    r1 = Rule("u1", wrap(Not(near("a", "b"))), (DeltaParam("b", "x", Const(Fraction(1))),))
    r2 = Rule("u2", wrap(Not(near("b", "a"))), (DeltaParam("a", "x", Const(Fraction(1))),))
    sc = declare_scenario([a, b], rules=[r1, r2], horizon=3)
    with pytest.raises(UnstratifiableRuleSet):
        simulate(sc)


def test_gravity_negative_self_dependency_is_fine():
    # gravity reads (negated) the positions it writes; a rule never sees its
    # own effects within a step, so this must stratify
    sc = _drop_scenario()
    ctx = EvalContext.for_scenario(sc)
    strata = stratify(list(sc.rules), ctx)
    assert [[r.name for r in s] for s in strata] == [["gravity"]]


def test_later_stratum_sees_earlier_effects():
    a = make_entity("a", "Object", ShapeKind.POINT, [0, 0])
    flag = make_entity("flag", "Region", ShapeKind.POINT, [100, 0])
    mover = Rule("mover", TrueF(), (SetParam("a", "x", Const(Fraction(7))),))
    reader = Rule(
        "reader",
        Compare(ParamRef("a", "x"), "=", Const(Fraction(7))),
        (SetParam("flag", "y", Const(Fraction(1))),),
    )
    sc = declare_scenario([a, flag], rules=[mover, reader], horizon=2)
    ctx = EvalContext.for_scenario(sc)
    strata = stratify(list(sc.rules), ctx)
    assert [[r.name for r in s] for s in strata] == [["mover"], ["reader"]]
    assert simulate(sc).states[1].value("flag", "y") == 1


def _gt(entity):
    return Compare(ParamRef(entity, "x"), ">", Const(Fraction(0)))


def test_rules_without_a_dependency_run_later_declared_first():
    # no path joins copy and bump, and the later-declared bump gets the earlier stratum
    a = make_entity("a", "Object", ShapeKind.POINT, [0, 0])
    b = make_entity("b", "Object", ShapeKind.POINT, [0, 0])
    copy = Rule("copy", TrueF(), (SetParam("b", "x", ParamRef("a", "x")),))
    bump = Rule("bump", TrueF(), (DeltaParam("a", "x", Const(Fraction(1))),))
    sc = declare_scenario([a, b], rules=[copy, bump], horizon=2)
    strata = stratify(list(sc.rules), EvalContext.for_scenario(sc))
    assert [[r.name for r in s] for s in strata] == [["bump"], ["copy"]]
    assert simulate(sc).states[1].value("b", "x") == 1


@pytest.mark.parametrize("effect", [SetParam, DeltaParam], ids=["set", "delta"])
def test_scoped_write_to_a_missing_parameter_raises(effect):
    a = make_entity("a", "Object", ShapeKind.POINT, [0, 0])
    c = make_entity("c", "Container", ShapeKind.CIRCLE, [0, 0, 1])
    grow = Rule("grow", TrueF(), (effect("v", "r", Const(Fraction(2))),), scope=("v", "Entity"))
    sc = declare_scenario([a, c], rules=[grow], horizon=2)
    with pytest.raises(UnknownParameter, match=r"no value for a\.r"):
        simulate(sc)


@st.composite
def _rule_graphs(draw):
    """Rules over random entities: writes through `+=`, reads through `x > 0`
    conditions, each read negated or not."""
    entities = [f"e{i}" for i in range(draw(st.integers(1, 5)))]
    entity = st.sampled_from(entities)
    specs = draw(
        st.lists(
            st.tuples(
                st.sets(entity, max_size=3),
                st.lists(st.tuples(entity, st.booleans()), max_size=3),
            ),
            min_size=1,
            max_size=8,
        )
    )
    rules = []
    for k, (writes, reads) in enumerate(specs):
        condition = TrueF()
        for e, negated in reads:
            phi = Not(_gt(e)) if negated else _gt(e)
            condition = phi if isinstance(condition, TrueF) else And(condition, phi)
        effects = tuple(DeltaParam(e, "x", Const(Fraction(1))) for e in sorted(writes))
        rules.append(Rule(f"r{k}", condition, effects))
    return entities, specs, rules


@given(_rule_graphs())
@settings(max_examples=300, deadline=None)
def test_stratify_matches_reachability_oracle(graph):
    entities, specs, rules = graph
    n = len(rules)
    edges = {
        (i, j): any(neg for e, neg in specs[j][1] if e in specs[i][0])
        for i in range(n)
        for j in range(n)
        if i != j and any(e in specs[i][0] for e, _ in specs[j][1])
    }
    reach = [[i == j or (i, j) in edges for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    cyclic = {(i, j) for (i, j), negated in edges.items() if negated and reach[j][i]}
    points = [make_entity(e, "Object", ShapeKind.POINT, [0, 0]) for e in entities]
    sc = declare_scenario(points, rules=rules, horizon=2)
    try:
        strata = stratify(rules, EvalContext.for_scenario(sc))
    except UnstratifiableRuleSet as exc:
        named = re.match(r"rules 'r(\d+)' and 'r(\d+)'", str(exc)).groups()
        assert tuple(map(int, named)) in cyclic
        return
    assert not cyclic
    layer = {int(r.name[1:]): k for k, stratum in enumerate(strata) for r in stratum}
    assert sorted(layer) == list(range(n)) and sum(map(len, strata)) == n
    for i in range(n):
        for j in range(n):
            assert (layer[i] == layer[j]) == (reach[i][j] and reach[j][i])
    assert all(layer[i] <= layer[j] for i, j in edges)


def test_motion_kind_tags():
    assert umph_rule("p", "o", 1, 0, mode="passive").mode == "passive"


# --- views carried across strata and steps -----------------------------------------


def _rule_heavy_scenario(rng: random.Random):
    """`random_shape_scene`'s entities under a random rule set that
    stratifies, with a size that shrinks past 0. With gravity: pushes
    without `until`, rules that add a force while an entity is not on
    another and remove it once it is, and an effect by a third, a
    denominator the view's scale may lack. Without gravity: pushes that
    stop at a goal, and a rule that moves an entity while it does not rest
    on another."""
    entities, _ = random_shape_scene(rng)
    ids = [e.id for e in entities]
    centered = [e.id for e in entities if e.shape in geometry.CENTERED]
    rng.shuffle(centered)
    pushed, others = centered[:2], centered[2:]
    gravity = rng.random() < 0.6
    rules = [gravity_rule(rng.choice((Fraction(1, 2), 1, 3)))] if gravity else []
    for k, eid in enumerate(pushed):
        until = None if gravity else Compare(ParamRef(eid, "x"), ">", Const(rational(rng, -4, 4)))
        rules.append(umph_rule(f"p{k}", eid, rational(rng, -2, 2), rational(rng, -2, 2), until=until))
    if others:
        a, b = others[0], rng.choice(ids)
        on = Atom("on", (a, b))
        if gravity:
            wind = ForceFluent("wind", a, rational(rng, -1, 1), Fraction(0), rng.choice(("active", "passive")))
            rules.append(Rule("wind", Not(on), (AddForce(wind),)))
            rules.append(Rule("calm", on, (RemoveForce("wind", a),)))
            c = others[-1]  # a itself when it is the only one
            third = Add(ParamRef(c, "x"), Const(Fraction(1, 3)))
            rules.append(Rule("third", TrueF(), (SetParam(c, "x", third),)))
        else:
            rules.append(Rule("slide", Not(on), (DeltaParam(a, "y", Const(Fraction(-1, 3))),)))
    sized = [e for e in entities if e.shape in (ShapeKind.CIRCLE, ShapeKind.RECTANGLE)]
    if sized:
        e = rng.choice(sized)
        shrink = DeltaParam(e.id, SHAPE_PARAMS[e.shape][2], Const(Fraction(-1, 2)))
        rules.append(Rule("shrink", TrueF(), (shrink,)))
    return declare_scenario(entities, rules=rules, horizon=rng.randint(2, 8))


def _simulated(sc):
    try:
        return simulate(sc)
    except IschemaError as exc:  # both sides must fail alike
        return f"{type(exc).__name__}: {exc}"


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_carried_views_simulate_as_fresh_views(seed):
    sc = _rule_heavy_scenario(random.Random(seed))
    carried = _simulated(sc)
    with mock.patch.object(geometry.IntView, "updated", lambda self, values, keys: geometry.IntView(values)):
        fresh = _simulated(sc)
    assert carried == fresh


def test_simulate_builds_one_view_while_the_scale_holds(monkeypatch):
    """In the sixteen-prime scene under gravity(1) and pushes by half units,
    every value stays on the first view's scale, so each later view is
    derived from it; an effect by 1/61 needs a new scale."""
    from ischema.dsl import parse_scenario

    built = []
    real_init = geometry.IntView.__init__

    def init(view, values):
        built.append(view)
        real_init(view, values)

    monkeypatch.setattr(geometry.IntView, "__init__", init)
    text = prime_denominator_scene().replace("gravity(1/2)", "gravity(1)")
    sc = parse_scenario(re.sub(r"\((-?1)/\d+, 0\)", r"(\1/2, 0)", text))
    trace = simulate(sc)
    assert len(built) == 1
    assert trace.states[-1].value("b15", "y") < trace.states[0].value("b15", "y")

    # the last state carries its view, derived on demand, and the others keep none
    assert all(s.view is None for s in trace.states[:-1])
    last = trace.states[-1]
    scale = geometry.int_view(last).scale
    assert len(built) == 1
    # 61 is the next prime after _PRIMES
    nudge = Rule("nudge", TrueF(), (SetParam("b1", "x", Add(ParamRef("b1", "x"), Const(Fraction(1, 61)))),))
    step(last, list(sc.rules) + [nudge], EvalContext.for_scenario(sc))
    assert len(built) == 2 and built[1].scale % 61 == 0 and scale % 61 != 0


def test_a_clamp_into_contact_keeps_the_scale(monkeypatch):
    """In the sixteen-prime scene a clamp lands bodies exactly on what is
    below them, writing a y over a denominator that divides the scale but
    whose double does not; only a width or a height is halved, so the view
    keeps its scale."""
    from ischema.dsl import parse_scenario

    built = []
    real_init = geometry.IntView.__init__

    def init(view, values):
        built.append(view)
        real_init(view, values)

    monkeypatch.setattr(geometry.IntView, "__init__", init)
    sc = parse_scenario(prime_denominator_scene())
    trace = simulate(sc)
    assert len(trace.states) == 24 and len(built) == 1

    # a half added to b2's x stays on the scale, one added to its width does not
    ctx = EvalContext.for_scenario(sc)
    for param, views in (("x", 1), ("w", 2)):
        half = Rule("half", TrueF(), (SetParam("b2", param, Add(ParamRef("b2", param), Const(Fraction(1, 2)))),))
        geometry.int_view(step(trace.states[-1], list(sc.rules) + [half], ctx))
        assert len(built) == views


def _scaled(piece, scale):
    """An extent or box piece (an integer, None, or a tuple of them) times `scale`."""
    if isinstance(piece, tuple):
        return tuple(_scaled(p, scale) for p in piece)
    return None if piece is None else piece * scale


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_an_updated_view_agrees_with_a_fresh_view_up_to_scale(seed):
    rng = random.Random(seed)
    entities, state = random_shape_scene(rng)
    view = geometry.IntView(state.values)
    for e in entities[: rng.randint(0, len(entities))]:  # boxes and extents the update may keep
        view.box(e), view.extent(e)
    values = dict(state.values)
    keys = rng.sample(sorted(values), rng.randint(0, len(values)))
    for key in keys:
        values[key] += rational(rng, -3, 3) / rng.choice((1, 1, 1, 3))
    updated = view.updated(values, keys)
    fresh = geometry.IntView(values)
    assert updated.ints.keys() == fresh.ints.keys()
    for k in fresh.ints:
        assert updated.ints[k] * fresh.scale == fresh.ints[k] * updated.scale
    for e in entities:
        assert _scaled(updated.box(e), fresh.scale) == _scaled(fresh.box(e), updated.scale)
        assert _scaled(updated.extent(e)[1:], fresh.scale) == _scaled(fresh.extent(e)[1:], updated.scale)


# --- gravity's sweep carried across steps ------------------------------------------


def _sliding_scene(rng: random.Random):
    """Bodies stacked in three columns on a floor, beside a table (a slab on
    a leg) under gravity. Pushes slide bodies off what holds them and under
    the slab; a rule raises the floor while it is low; a width shrinks past
    0; a force of (0, 0) rests on a body; and a rule of a stratum before
    gravity's moves a body sideways."""

    def half(lo, hi):
        return Fraction(rng.randint(2 * lo, 2 * hi), 2)

    entities = [
        make_entity("f", "Floor", ShapeKind.FLOOR, [0]),
        make_entity("leg", "Container", ShapeKind.RECTANGLE, [9, 1, 1, 2]),
        make_entity("slab", "Container", ShapeKind.RECTANGLE, [9 + half(-1, 1), Fraction(5, 2), 5, 1]),
    ]
    heights = {0: Fraction(0), 3: Fraction(0), 6: Fraction(0)}
    for k in range(rng.randint(3, 8)):
        x = rng.choice(sorted(heights))
        base = heights[x] + rng.choice((0, 0, Fraction(1, 2), Fraction(1, 3)))
        shape = rng.choice((ShapeKind.POINT, ShapeKind.CIRCLE, ShapeKind.RECTANGLE))
        size = half(1, 3)
        if shape is ShapeKind.POINT:
            values, heights[x] = [x + half(-1, 1) / 2, base], base
        elif shape is ShapeKind.CIRCLE:
            values, heights[x] = [x, base + size / 2, size / 2], base + size
        else:
            values, heights[x] = [x + half(-1, 1) / 2, base + size / 2, half(1, 3), size], base + size
        entities.append(make_entity(f"b{k}", "Object" if shape is ShapeKind.POINT else "Container", shape, values))
    bodies = entities[3:]
    rules = [gravity_rule(rng.choice((Fraction(1, 2), 1, Fraction(2, 3))))]
    for k, body in enumerate(rng.sample(bodies, rng.randint(1, 3))):
        dy = rng.choice((0, 0, 0, Fraction(1, 4)))
        rules.append(umph_rule(f"p{k}", body.id, rng.choice((-1, 1)) * rng.choice((Fraction(1, 2), 1)), dy))
    low = Compare(ParamRef("f", "y"), "<", Const(rng.choice((Fraction(1, 2), 1))))
    rules.append(Rule("rise", low, (DeltaParam("f", "y", Const(Fraction(1, 4))),)))
    rects = [e for e in bodies if e.shape is ShapeKind.RECTANGLE]
    if rects:
        rules.append(Rule("shrink", TrueF(), (DeltaParam(rng.choice(rects).id, "w", Const(Fraction(-1, 2))),)))
    rest = ForceFluent("rest", rng.choice(bodies).id, Fraction(0), Fraction(0), "passive")
    rules.append(Rule("rest", TrueF(), (AddForce(rest),)))
    nudge = rng.choice(bodies).id
    rules.append(Rule("nudge", low, (DeltaParam(nudge, "x", Const(rng.choice((-1, 1)) * Fraction(1, 3))),)))
    return declare_scenario(entities, rules=rules, horizon=rng.randint(10, 30))


@given(st.integers(0, 10**6))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_carried_sweeps_simulate_as_fresh_views(seed):
    """Each sweep gravity keeps holds the x-extents and the neighbours that a
    sweep of the state anew gives, and the traces are those of views built
    anew every time, which carry no sweep."""
    sc = _sliding_scene(random.Random(seed))
    real = dynamics._gravity_effects

    def checked(rule, state, ctx, targets):
        out = real(rule, state, ctx, targets)
        _, _, extents, neighbours, _ = geometry.int_view(state).sweep[0]
        assert extents == {e: geometry.horizontal_interval(state, d) for e, d in ctx.entities.items()}
        expected = fraction_geometry.x_neighbours(state, ctx.entities.values())
        assert {e: sorted(n) for e, n in neighbours.items()} == {e: sorted(n) for e, n in expected.items()}
        return out

    with mock.patch.object(dynamics, "_gravity_effects", checked):
        carried = _simulated(sc)
    with mock.patch.object(geometry.IntView, "updated", lambda self, values, keys: geometry.IntView(values)):
        fresh = _simulated(sc)
    assert carried == fresh


@pytest.mark.parametrize("other", ["epsilon", "delta"])
def test_a_sweep_serves_only_its_context_and_gravity_rule(other):
    """A point 1 above the floor rests on it under epsilon 2, so the sweep
    kept by that step leaves it in place; under the default epsilon it
    falls, and under another gravity rule the sweep is built anew."""
    o = make_entity("o", "Object", ShapeKind.POINT, [2, 1])
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    sc = declare_scenario([o, f], rules=[gravity_rule(Fraction(1, 2))], horizon=3)
    wide = EvalContext.for_scenario(sc, epsilon=Fraction(2))
    carried = step(initial_state(sc.entities), list(sc.rules), wide)
    assert carried.value("o", "y") == 1 and carried.view is not None
    ctx, rules = (EvalContext.for_scenario(sc), list(sc.rules)) if other == "epsilon" else (wide, [gravity_rule(2)])
    fresh = dataclasses.replace(carried)
    assert fresh.view is None
    after = step(carried, rules, ctx)
    assert after == step(fresh, rules, ctx)
    assert after.value("o", "y") == (Fraction(1, 2) if other == "epsilon" else 1)


def test_simulate_sweeps_the_sixteen_prime_scene_once(monkeypatch):
    """Every later step of the scene repairs the first step's sweep."""
    from ischema.dsl import parse_scenario

    cold = []
    real = dynamics._gravity_effects

    def counting(rule, state, ctx, targets):
        carried = geometry.int_view(state).sweep
        if carried is None or carried[0][0] is not ctx or carried[0][1] != rule.effects[0]:
            cold.append(state)
        return real(rule, state, ctx, targets)

    monkeypatch.setattr(dynamics, "_gravity_effects", counting)
    sc = parse_scenario(prime_denominator_scene())
    for runs in (1, 2):
        simulate(sc)
        assert len(cold) == runs


def test_a_force_along_x_keeps_the_y_value_object():
    """A force's zero axis writes nothing: the y value is the same object,
    which the trace writer reuses, and the sweep sees no move in y."""
    o = make_entity("o", "Container", ShapeKind.RECTANGLE, [2, 1, 2, 2])
    f = make_entity("f", "Floor", ShapeKind.FLOOR, [0])
    sc = declare_scenario([o, f], rules=[gravity_rule(1)], horizon=3)
    push = ForceFluent("push", "o", Fraction(1, 2), Fraction(0), "active")
    state = dataclasses.replace(initial_state(sc.entities), forces=frozenset({push}))
    after = step(state, list(sc.rules), EvalContext.for_scenario(sc))
    assert after.value("o", "x") == Fraction(5, 2)
    assert after.value("o", "y") is state.value("o", "y")


# --- frame property and determinism ---------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_frame_property_everything_unwritten_persists(seed):
    rng = random.Random(seed)
    concrete = random_trace_scenario(rng, max_entities=3, max_len=1)
    o0 = concrete.entities[0]
    push = umph_rule("nudge", o0.id, rational(rng, -2, 2), rational(rng, -2, 2))
    sc = declare_scenario(list(concrete.entities), rules=[push], horizon=5)
    trace = simulate(sc)
    touched = {(o0.id, "x"), (o0.id, "y")}
    for before, after in zip(trace.states, trace.states[1:]):
        for key, value in before.values.items():
            if key not in touched:
                assert after.values[key] == value


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_simulation_is_deterministic(seed):
    rng = random.Random(seed)
    concrete = random_trace_scenario(rng, max_entities=3, max_len=1)
    entities = list(concrete.entities) + [make_entity("floor", "Floor", ShapeKind.FLOOR, [-20])]
    sc = declare_scenario(entities, rules=[gravity_rule(1)], horizon=6)
    t1 = simulate(sc)
    t2 = simulate(sc)
    assert t1 == t2


def test_an_effect_of_delta_keeps_the_rational_value_of_its_float():
    """A comparison of a lone delta is exact, but a value written by an
    effect is the Fraction of the float distance: sqrt(2) rounds to the
    float whose rational value is 6369051672525773 / 2^52."""
    from ischema.dsl import parse_scenario

    sc = parse_scenario(
        "scenario s\n  entity a : Object = Point(0, 0)\n  entity b : Object = Point(1, 1)\n"
        "  rules\n    rule r when true do a.x := delta(a, b)\n  horizon 2\nend\n"
    )
    written = simulate(sc).states[1].values[("a", "x")]
    assert written == Fraction(6369051672525773, 2**52) == Fraction(math.sqrt(2))
    assert written * written != 2
