import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_formula, random_trace_scenario

from ischema import library
from ischema.dsl import formula_to_text, parse_formula, parse_scenario
from ischema.errors import (
    MissingRole,
    SortMismatchInBinding,
    TimeOutOfRange,
    UnboundSymbol,
    UnknownRelation,
)
from ischema.geometry import Const, EvalContext, ParamRef
from ischema.logic import (
    Always,
    And,
    Atom,
    Before,
    Compare,
    Eventually,
    Exists,
    Final,
    Forall,
    Implies,
    Next,
    Not,
    TrueF,
    Until,
    check_theory,
    eval_formula,
    reference_eval,
    substitute_symbols,
)
from ischema.model import (
    RelationSig,
    ShapeKind,
    State,
    Theory,
    Trace,
    declare_scenario,
    make_entity,
)


def _line_trace(xs, extra=()):
    """A point `o` moving along the x axis, plus any extra static entities."""
    o = make_entity("o", "Object", ShapeKind.POINT, [xs[0], 0])
    entities = [o, *extra]
    states = []
    for t, x in enumerate(xs):
        values = {(e.id, p): v for e in entities for p, v in e.params}
        values[("o", "x")] = Fraction(x)
        states.append(State(time=t, values=values))
    return declare_scenario(entities, trace=Trace(tuple(states)))


@pytest.fixture
def ball_cup():
    cup = make_entity("cup", "Container", ShapeKind.CIRCLE, [0, 0, 2])
    return _line_trace([5, 3, 1], extra=[cup])


def _ctx(sc, theory=None):
    return EvalContext.for_scenario(sc, theory)


def test_atom_on_figure_state(fig1_scenario):
    ctx = _ctx(fig1_scenario)
    phi = Atom("inside", ("a", "c"))
    assert eval_formula(phi, fig1_scenario.trace, 0, {}, ctx) is True
    assert reference_eval(phi, fig1_scenario.trace, 0, {}, ctx) is True


def test_strong_next_false_at_last_state(fig1_scenario):
    ctx = _ctx(fig1_scenario)
    phi = Next(TrueF())
    assert eval_formula(phi, fig1_scenario.trace, 0, {}, ctx) is False
    assert reference_eval(phi, fig1_scenario.trace, 0, {}, ctx) is False


def test_eventually_over_path(ball_cup):
    ctx = _ctx(ball_cup)
    inside = Atom("inside", ("o", "cup"))
    assert eval_formula(inside, ball_cup.trace, 0, {}, ctx) is False
    assert eval_formula(Eventually(inside), ball_cup.trace, 0, {}, ctx) is True
    assert eval_formula(Eventually(inside), ball_cup.trace, 2, {}, ctx) is True


def test_before_supports_forward_movement_reading():
    w1 = make_entity("w1", "Region", ShapeKind.POINT, [0, 0])
    w2 = make_entity("w2", "Region", ShapeKind.POINT, [4, 0])
    sc = _line_trace([0, 2, 4], extra=[w1, w2])
    ctx = _ctx(sc)
    at = lambda w: Atom("closeTo", ("o", w))
    phi = Always(Implies(at("w2"), Before(at("w1"))))
    assert eval_formula(phi, sc.trace, 0, {}, ctx) is True
    # starting at w2 instead breaks the constraint
    sc2 = _line_trace([4, 2, 0], extra=[w1, w2])
    assert eval_formula(phi, sc2.trace, 0, {}, _ctx(sc2)) is False


def test_until_semantics():
    from ischema.geometry import Const, ParamRef

    sc = _line_trace([0, 1, 2, 5])
    ctx = _ctx(sc)

    below3 = Compare(ParamRef("o", "x"), "<", Const(Fraction(3)))
    at5 = Compare(ParamRef("o", "x"), "=", Const(Fraction(5)))
    assert eval_formula(Until(below3, at5), sc.trace, 0, {}, ctx) is True
    at9 = Compare(ParamRef("o", "x"), "=", Const(Fraction(9)))
    assert eval_formula(Until(below3, at9), sc.trace, 0, {}, ctx) is False


def test_final_holds_exactly_once():
    sc = _line_trace([0, 1, 2])
    ctx = _ctx(sc)
    hits = [eval_formula(Final(), sc.trace, t, {}, ctx) for t in range(3)]
    assert hits == [False, False, True]


def test_quantifier_domain_respects_sorts(ball_cup):
    ctx = _ctx(ball_cup)
    # every Object is o, and o is eventually inside the cup
    phi = Forall("x", "Object", Eventually(Atom("inside", ("x", "cup"))))
    assert eval_formula(phi, ball_cup.trace, 0, {}, ctx) is True
    # over all entities it fails: the cup is not inside itself
    phi2 = Forall("x", "Entity", Eventually(Atom("inside", ("x", "cup"))))
    assert eval_formula(phi2, ball_cup.trace, 0, {}, ctx) is False


def test_unbound_symbol_and_time_bounds(fig1_scenario):
    ctx = _ctx(fig1_scenario)
    with pytest.raises(UnboundSymbol):
        eval_formula(Atom("inside", ("nobody", "c")), fig1_scenario.trace, 0, {}, ctx)
    with pytest.raises(TimeOutOfRange):
        eval_formula(TrueF(), fig1_scenario.trace, 3, {}, ctx)


def test_motion_atom():
    sc = _line_trace([0, 1, 1])
    ctx = _ctx(sc)
    motion = Atom("motion", ("o",))
    assert [eval_formula(motion, sc.trace, t, {}, ctx) for t in range(3)] == [True, False, False]


def test_ccw_step_atom():
    center = make_entity("c", "Circle", ShapeKind.CIRCLE, [0, 0, 1])
    o = make_entity("o", "Object", ShapeKind.POINT, [5, 0])
    positions = [(5, 0), (4, 3), (0, 5)]
    states = []
    for t, (x, y) in enumerate(positions):
        values = {(e.id, p): v for e in (o, center) for p, v in e.params}
        values[("o", "x")] = Fraction(x)
        values[("o", "y")] = Fraction(y)
        states.append(State(time=t, values=values))
    sc = declare_scenario([o, center], trace=Trace(tuple(states)))
    ctx = _ctx(sc)
    ccw = Atom("ccwStep", ("o", "c"))
    assert eval_formula(ccw, sc.trace, 0, {}, ctx) is True
    assert eval_formula(ccw, sc.trace, 2, {}, ctx) is False  # nothing after the last state
    theta = Atom("thetaStep", ("o", "c"))
    assert eval_formula(theta, sc.trace, 0, {}, ctx) is True


@pytest.mark.parametrize(
    "atom,message",
    [
        (Atom("motion", ("o", "cup")), "motion takes 1 entity argument(s)"),
        (Atom("ccwStep", ("o",)), "ccwStep takes 2 entity argument(s)"),
        (Atom("motion", ("o", Const(Fraction(3)))), "motion takes 1 entity argument(s)"),
    ],
    ids=["motion-two-entities", "ccwStep-one-entity", "motion-numeric"],
)
def test_step_relation_arity_checked_at_every_instant(ball_cup, atom, message):
    ctx = _ctx(ball_cup)
    for t in range(ball_cup.trace.length):
        with pytest.raises(UnknownRelation) as info:
            eval_formula(atom, ball_cup.trace, t, {}, ctx)
        assert str(info.value) == message


@pytest.mark.parametrize("name", ["motion", "ccwStep", "thetaStep"])
def test_template_overrides_step_relation(ball_cup, name):
    # o runs straight at cup's center, so the built-ins give motion [True, True,
    # False] and ccwStep, thetaStep all False; the template reads o.x only
    template = Compare(ParamRef("arg1", "x"), ">", Const(Fraction(4)))
    arg_sorts = ("Object",) if name == "motion" else ("Object", "Container")
    theory = Theory(name="T", relations=(RelationSig(name, arg_sorts, template),))
    ctx = _ctx(ball_cup, theory)
    atom = Atom(name, ("o", "cup")[: len(arg_sorts)])
    assert [eval_formula(atom, ball_cup.trace, t, {}, ctx) for t in range(3)] == [True, False, False]


# --- dualities and structural properties -------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_temporal_dualities(seed):
    rng = random.Random(seed)
    sc = random_trace_scenario(rng)
    phi = random_formula(rng, 2, sc)
    ctx = _ctx(sc)
    t = rng.randrange(sc.trace.length)
    ev = eval_formula(Eventually(phi), sc.trace, t, {}, ctx)
    assert ev == eval_formula(Not(Always(Not(phi))), sc.trace, t, {}, ctx)
    assert ev == eval_formula(Until(TrueF(), phi), sc.trace, t, {}, ctx)
    if eval_formula(Always(phi), sc.trace, t, {}, ctx):
        assert eval_formula(phi, sc.trace, t, {}, ctx)
    if eval_formula(Before(phi), sc.trace, t, {}, ctx):
        for u in range(t, sc.trace.length):
            assert eval_formula(Before(phi), sc.trace, u, {}, ctx)


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_production_matches_reference(seed):
    rng = random.Random(seed)
    sc = random_trace_scenario(rng)
    phi = random_formula(rng, 4, sc)
    ctx = _ctx(sc)
    t = rng.randrange(sc.trace.length)
    assert eval_formula(phi, sc.trace, t, {}, ctx) == reference_eval(phi, sc.trace, t, {}, ctx)


# --- theory checking -----------------------------------------------------------------


def _containment_theory():
    return Theory(
        name="CONTAINMENT_T",
        roles=(("object", "Object"), ("container", "Container")),
        axioms=(
            Not(Atom("inside", ("object", "container"))),
            Eventually(Atom("inside", ("object", "container"))),
        ),
    )


def test_check_theory_satisfied(ball_cup):
    report = check_theory(_containment_theory(), ball_cup, {"object": "o", "container": "cup"})
    assert report.satisfied
    assert [a.satisfied for a in report.axioms] == [True, True]


def test_check_theory_empty_axioms(ball_cup):
    theory = Theory(name="EMPTY_T")
    assert check_theory(theory, ball_cup, {}).satisfied


def test_check_theory_witness_names_failing_part():
    cup = make_entity("cup", "Container", ShapeKind.CIRCLE, [0, 0, 2])
    static = _line_trace([5, 5, 5], extra=[cup])
    report = check_theory(_containment_theory(), static, {"object": "o", "container": "cup"})
    assert not report.satisfied
    failing = [a for a in report.axioms if not a.satisfied]
    assert len(failing) == 1
    assert isinstance(failing[0].formula, Eventually)
    witness = failing[0].witness
    assert witness is not None
    assert witness.time == 0
    assert witness.formula == Atom("inside", ("object", "container"))


def test_check_theory_earliest_failure_time():
    # always(x < 2) breaks first at t = 2
    from ischema.geometry import Const, ParamRef

    sc = _line_trace([0, 1, 5, 7])
    theory = Theory(
        name="BOUNDED",
        roles=(("thing", "Object"),),
        axioms=(Always(Compare(ParamRef("thing", "x"), "<", Const(Fraction(2)))),),
    )
    report = check_theory(theory, sc, {"thing": "o"})
    assert report.axioms[0].witness.time == 2


@pytest.mark.parametrize("axiom, time, text", [
    # the first element of the domain that fails: p, not o
    ("forall y : Object . y.x < 2", 0, "y.x < 2"),
    # the first element of the domain
    ("exists y : Object . y.x > 10", 0, "y.x > 10"),
    ("next thing.x > 3", 1, "thing.x > 3"),
    # the first instant before the first hit of the right side where the left fails
    ("thing.x < 1 until thing.x > 6", 1, "thing.x < 1"),
    # no hit: the right side at the start
    ("true until thing.x > 9", 0, "thing.x > 9"),
    # the past from instant 0
    ("next next before thing.x > 6", 0, "thing.x > 6"),
    ("thing.x > 1 or thing.x < 0", 0, "thing.x > 1"),
])
def test_check_theory_witness_of_each_operator(axiom, time, text):
    p = make_entity("p", "Object", ShapeKind.POINT, [3, 0])
    sc = _line_trace([0, 1, 5, 7], extra=[p])
    theory = Theory(name="W", roles=(("thing", "Object"),), axioms=(parse_formula(axiom),))
    witness = check_theory(theory, sc, {"thing": "o"}).axioms[0].witness
    assert (witness.time, formula_to_text(witness.formula)) == (time, text)


def test_check_theory_binding_validation(ball_cup):
    theory = _containment_theory()
    with pytest.raises(MissingRole) as info:
        check_theory(theory, ball_cup, {"object": "o"})
    assert str(info.value) == "role 'container' of theory CONTAINMENT_T is unbound"
    with pytest.raises(MissingRole) as info:
        check_theory(theory, ball_cup, {"object": "o", "container": "zz"})
    assert str(info.value) == "role 'container' bound to unknown entity 'zz'"
    with pytest.raises(SortMismatchInBinding) as info:
        check_theory(theory, ball_cup, {"object": "cup", "container": "o"})
    assert str(info.value) == "role object:Object cannot be bound to cup:Container"


def test_theory_defined_relation_template(ball_cup):
    from ischema.geometry import DeltaExpr, NameRef

    theory = Theory(
        name="NEARNESS",
        roles=(("object", "Object"), ("container", "Container")),
        relations=(
            RelationSig("near", ("Object", "Container"), Compare(DeltaExpr("arg1", "arg2"), "<=", NameRef("bound"))),
        ),
        axioms=(Eventually(Atom("near", ("object", "container"))),),
        numeric_params=(("bound", Fraction(1)),),
    )
    report = check_theory(theory, ball_cup, {"object": "o", "container": "cup"})
    assert report.satisfied


def test_substitute_symbols_respects_shadowing():
    phi = And(
        Atom("inside", ("object", "container")),
        Exists("object", "Object", Atom("inside", ("object", "container"))),
    )
    out = substitute_symbols(phi, {"object": "o", "container": "cup"})
    assert out.left == Atom("inside", ("o", "cup"))
    assert out.right == Exists("object", "Object", Atom("inside", ("object", "cup")))


def test_substitute_symbols_renames_a_binder_that_would_capture():
    phi = substitute_symbols(parse_formula("forall cup : Object . not inside(cup, r)"), {"r": "cup"})
    assert formula_to_text(phi) == "forall cup_1 : Object . not inside(cup_1, cup)"
    assert parse_formula(formula_to_text(phi)) == phi
    # the fresh name is free in neither the body nor the mapping's values
    phi = parse_formula("forall o : Object . inside(o, r) and (exists o_1 : Object . on(o_1, o) and on(s, o_1))")
    assert formula_to_text(substitute_symbols(phi, {"r": "o", "s": "o_1"})) == (
        "forall o_2 : Object . inside(o_2, o) and (exists o_1_1 : Object . on(o_1_1, o_2) and on(o_1, o_1_1))"
    )
    # a binder that no renamed symbol would hit keeps its name
    assert substitute_symbols(phi, {"r": "cup", "o": "o_1"}) == substitute_symbols(phi, {"r": "cup"})
    sc = parse_scenario(
        "scenario s\n  entity o : Container = Circle(0, 0, 2)\n  entity p : Object = Point(0, 5)\n"
        "  trace length 2\n    state 1 { p.y = 1 }\nend"
    )
    empty = library.realize("EMPTY", "o")
    assert empty == Forall("o_1", "Object", Not(Atom("inside", ("o_1", "o"))))
    ctx = EvalContext.for_scenario(sc)
    assert [eval_formula(empty, sc.trace, t, {}, ctx) for t in (0, 1)] == [True, False]


def test_substitute_symbols_leaves_nothing_for_the_cyclic_collector():
    phi = Forall("x", "Object", And(
        Atom("inside", ("x", "container")),
        Exists("y", "Object", Atom("on", ("y", "object"))),
    ))
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            substitute_symbols(phi, {"object": "o", "container": "cup"})
        assert gc.collect() == 0
    finally:
        gc.enable()
