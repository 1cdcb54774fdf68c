import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_trace_scenario, rational

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
    NonPositiveDelta,
    UnknownParameter,
    UnstratifiableRuleSet,
)
from ischema.geometry import Const, ConstraintAtom, EvalContext, ParamRef
from ischema.logic import (
    Always,
    And,
    Atom,
    Before,
    Compare,
    Eventually,
    Next,
    Not,
    NumTerm,
    Sym,
    TrueF,
)
from ischema.model import (
    ForceFluent,
    ShapeKind,
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


def test_gravity_rejects_nonpositive_delta():
    with pytest.raises(NonPositiveDelta):
        gravity_rule(0)


def test_umph_until_goal():
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 0])
    goal = make_entity("goal", "Region", ShapeKind.POINT, [3, 0])
    until = Atom("closeTo", (Sym("o"), Sym("goal"), NumTerm(Const(Fraction(0)))))
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
    trace = simulate(sc, initial_forces=forces)
    assert [s.value("o", "x") for s in trace.states] == [0, 0, 0, 0]
    assert all(s.forces == forces for s in trace.states)


def test_add_and_remove_force_effects():
    o = make_entity("o", "Object", ShapeKind.POINT, [0, 0])
    fl = ForceFluent("wind", "o", Fraction(1), Fraction(0))
    arm = Rule("arm", TrueF(), (AddForce(fl),), until=Compare(
        ConstraintAtom(ParamRef("o", "x"), ">=", Const(Fraction(1)))
    ))
    disarm = Rule(
        "disarm",
        Compare(ConstraintAtom(ParamRef("o", "x"), ">=", Const(Fraction(2)))),
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
    near = lambda x, y: Atom("closeTo", (Sym(x), Sym(y), NumTerm(Const(Fraction(1)))))
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
        Compare(ConstraintAtom(ParamRef("a", "x"), "=", Const(Fraction(7)))),
        (SetParam("flag", "y", Const(Fraction(1))),),
    )
    sc = declare_scenario([a, flag], rules=[mover, reader], horizon=2)
    ctx = EvalContext.for_scenario(sc)
    strata = stratify(list(sc.rules), ctx)
    assert [[r.name for r in s] for s in strata] == [["mover"], ["reader"]]
    assert simulate(sc).states[1].value("flag", "y") == 1


def _gt(entity):
    return Compare(ConstraintAtom(ParamRef(entity, "x"), ">", Const(Fraction(0))))


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
