import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_shape_trace, random_trace_scenario

from ischema import dsl, dynamics, geometry, library, logic
from ischema.dsl import parse_formula
from ischema.errors import (
    EVALUATION_GAP_ERRORS,
    UnboundSymbol,
    UnknownSchema,
    UnsupportedShapePair,
    ValueOutOfRange,
)
from ischema.geometry import DEFAULT_EPSILON, Const, EvalContext
from ischema.library import (
    SHIPPED_SCHEMAS,
    SchemaBinding,
    analogy,
    candidate_bindings,
    classify,
    count_candidates,
    gap_only,
    make_source_path_goal,
    necessary_conditions,
    primitive_catalog,
    schema_theory,
    search_bindings,
    shipped_scenario,
)
from ischema.logic import Atom, Forall, Not, check_theory, reference_eval
from ischema.model import (
    EXTENT_PARAMS,
    RelationSig,
    Scenario,
    ShapeKind,
    State,
    Theory,
    Trace,
    declare_scenario,
    initial_state,
    make_entity,
)

TABLE_NAMES = {
    "OBJECT", "CONTAINER", "PATH", "REGION", "DOWN", "UP",
    "LOCATION", "START_PATH", "END_PATH", "CONTACT", "CONTAINED",
    "SMALLER", "LARGER", "PART_OF",
    "OPEN", "CLOSED", "EMPTY", "OCCUPIED", "FULL",
    "PERMANENCE", "MOTION", "AT_REST", "ANIMATE_MOTION", "INANIMATE_MOTION",
    "LINK", "active-UMPH", "passive-UMPH",
}


def test_catalog_covers_every_primitive():
    catalog = primitive_catalog()
    names = {p.name for p in catalog}
    assert TABLE_NAMES <= names
    assert len(catalog) == len(names) == 27
    kinds = {p.kind for p in catalog}
    assert kinds == {"entity", "relational", "attributive", "force-dynamic"}


def test_every_realization_parses_prints_back_and_sort_checks():
    for p in primitive_catalog():
        realization = p.realization_map()
        if realization["type"] == "formula":
            text = realization["formula"]
            phi = parse_formula(text)
            assert dsl.formula_to_text(phi) == text
            sorts = json.loads(realization["args"])
            roles = tuple((f"arg{i}", sort) for i, sort in enumerate(sorts, 1))
            assert dsl.sort_check(Theory(p.name, roles=roles, axioms=(phi,))) == [], p.name
        if "theory" in realization:
            schema_theory(realization["theory"])
        if "constructor" in realization:
            assert callable(getattr(dynamics, realization["constructor"]))


def test_empty_lookup_shape():
    phi = library.realize("EMPTY", "cup")
    assert phi == Forall("o", "Object", Not(Atom("inside", ("o", "cup"))))
    assert library.primitive("EMPTY").realization_map()["formula"] == "forall o : Object . not inside(o, arg1)"
    assert library.primitive("CONTACT").realization_map()["type"] == "builtin-relation"


def test_realize_rejects_a_wrong_arity_and_a_primitive_without_a_formula():
    with pytest.raises(UnknownSchema):
        library.realize("EMPTY")
    with pytest.raises(UnknownSchema):
        library.realize("LINK", "a")
    with pytest.raises(UnknownSchema):
        library.realize("CONTACT", "a", "b")


def test_attribute_macros():
    cup = make_entity("cup", "Container", ShapeKind.CIRCLE, [0, 0, 2], attrs=[("open", 1)])
    ball = make_entity("ball", "Object", ShapeKind.POINT, [0, 0])
    far = make_entity("far", "Object", ShapeKind.POINT, [10, 10])
    sc = declare_scenario([cup, ball, far], trace=Trace((initial_state([cup, ball, far]),)))
    ctx = EvalContext.for_scenario(sc)
    t = sc.trace

    assert logic.eval_formula(library.realize("OPEN", "cup"), t, 0, {}, ctx) is True
    assert logic.eval_formula(library.realize("CLOSED", "cup"), t, 0, {}, ctx) is False
    assert logic.eval_formula(library.realize("OCCUPIED", "cup"), t, 0, {}, ctx) is True
    assert logic.eval_formula(library.realize("EMPTY", "cup"), t, 0, {}, ctx) is False
    # far is still outside, so the cup is not yet full
    assert logic.eval_formula(library.realize("FULL", "cup"), t, 0, {}, ctx) is False


def test_empty_and_full_on_extremes():
    cup = make_entity("cup", "Container", ShapeKind.CIRCLE, [0, 0, 2])
    ball = make_entity("ball", "Object", ShapeKind.POINT, [1, 0])
    sc = declare_scenario([cup, ball], trace=Trace((initial_state([cup, ball]),)))
    ctx = EvalContext.for_scenario(sc)
    assert logic.eval_formula(library.realize("FULL", "cup"), sc.trace, 0, {}, ctx) is True
    empty_sc = declare_scenario([cup], trace=Trace((initial_state([cup]),)))
    ctx2 = EvalContext.for_scenario(empty_sc)
    assert logic.eval_formula(library.realize("EMPTY", "cup"), empty_sc.trace, 0, {}, ctx2) is True
    # vacuously universal but unoccupied: not full
    assert logic.eval_formula(library.realize("FULL", "cup"), empty_sc.trace, 0, {}, ctx2) is False


def test_schema_theory_loading():
    for name in SHIPPED_SCHEMAS:
        theory = schema_theory(name)
        assert theory.name == name
        assert dsl.sort_check(theory) == []
    with pytest.raises(UnknownSchema):
        schema_theory("BLOCKAGE")


def test_make_source_path_goal_scales():
    t5 = make_source_path_goal(5)
    assert len(t5.roles) == 6
    assert len(t5.axioms) == 2
    assert dsl.sort_check(t5) == []
    assert make_source_path_goal(3).name == "SOURCE_PATH_GOAL"


def test_make_source_path_goal_bounds():
    assert len(make_source_path_goal(33).roles) == 34
    with pytest.raises(dsl.DslError, match="nesting deeper than"):
        make_source_path_goal(34)
    with pytest.raises(UnknownSchema):
        make_source_path_goal(1)


def test_support_satisfied_on_stack():
    sc = shipped_scenario("stack")
    report = check_theory(schema_theory("SUPPORT"), sc, {"upper": "crate", "lower": "f"})
    assert report.satisfied
    report2 = check_theory(schema_theory("SUPPORT"), sc, {"upper": "marble", "lower": "box"})
    assert report2.satisfied


def test_classify_ball_into_cup():
    results = classify(shipped_scenario("ball_cup"))
    found = {(r.binding.schema, tuple(r.binding.roles)) for r in results}
    assert ("OBJECT_INTO_CONTAINER", (("object", "ball"), ("container", "cup"))) in found
    schemas = {r.binding.schema for r in results}
    assert "SOURCE_PATH_GOAL" not in schemas


def test_classify_static_stack():
    results = classify(shipped_scenario("stack"))
    schemas = {r.binding.schema for r in results}
    assert "OBJECT_INTO_CONTAINER" not in schemas
    assert "MOTION" not in schemas
    support = {tuple(r.binding.roles) for r in results if r.binding.schema == "SUPPORT"}
    assert support == {
        (("upper", "crate"), ("lower", "f")),
        (("upper", "box"), ("lower", "crate")),
        (("upper", "marble"), ("lower", "box")),
    }
    at_rest = {r.binding.as_dict()["thing"] for r in results if r.binding.schema == "AT_REST"}
    assert at_rest == {"f", "crate", "box", "marble"}


def test_classify_path_scenario():
    results = classify(shipped_scenario("path3"))
    spg = [r for r in results if r.binding.schema == "SOURCE_PATH_GOAL"]
    assert [dict(r.binding.roles) for r in spg] == [
        {"traveler": "traveler", "w1": "wp1", "w2": "wp2", "w3": "wp3"}
    ]


def test_classify_empty_scenario():
    sc = declare_scenario([], trace=Trace((initial_state([]),)))
    assert classify(sc) == []


def test_classify_output_is_sorted():
    results = classify(shipped_scenario("stack"))
    keys = [(r.binding.schema, r.binding.roles) for r in results]
    assert keys == sorted(keys)


def test_float_tolerances_give_the_results_of_their_fractions():
    fig1 = shipped_scenario("fig1")
    assert classify(fig1, ["SUPPORT"], epsilon=0.001) == classify(fig1, ["SUPPORT"], epsilon=Fraction(0.001))
    # m hovers 1/10 above the floor; the float 0.1 is a little more than 1/10
    hover = dsl.parse_scenario(
        "scenario s\n  entity f : Floor = Floor(0)\n  entity m : Object = Point(0, 0.1)\n  trace length 1\nend"
    )
    near = Theory("NEAR", roles=(("a", "Object"), ("b", "Floor")), axioms=(parse_formula("closeTo(a, b)"),))
    schemas = ["SUPPORT", near]
    found = {}
    for eps, tau in ((0.1, 0.1), (0.09, 0.09)):
        got = classify(hover, schemas, epsilon=eps, tau=tau)
        assert got == classify(hover, schemas, epsilon=Fraction(eps), tau=Fraction(tau))
        found[eps] = [r.binding.schema for r in got]
    assert found == {0.1: ["NEAR", "SUPPORT"], 0.09: []}
    ctx = EvalContext.for_scenario(hover, epsilon=0.25, tau=2.0)
    assert (type(ctx.epsilon), ctx.epsilon, type(ctx.tau), ctx.tau) == (Fraction, Fraction(1, 4), Fraction, 2)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueOutOfRange, match="epsilon .* is not a finite number"):
            EvalContext.for_scenario(hover, epsilon=bad)
        with pytest.raises(ValueOutOfRange, match="tau .* is not a finite number"):
            EvalContext.for_scenario(hover, tau=bad)


def _product_bindings(theory, sc, fixed=None):
    """Every candidate binding, listed by `itertools.product` over each
    role's sort-compatible entities sorted by id, without repeats: the
    unfiltered reference for `library.candidate_bindings`."""
    fixed = fixed or {}
    names = [role for role, _ in theory.roles]
    if not set(fixed) <= set(names):
        return
    hierarchy = theory.hierarchy()
    pools = [
        sorted(e.id for e in sc.entities if hierarchy.subsort_of(e.sort, sort) and fixed.get(role, e.id) == e.id)
        for role, sort in theory.roles
    ]
    for combo in product(*pools):
        if len(set(combo)) == len(combo):
            yield dict(zip(names, combo))


def test_candidate_bindings_distinct_and_sorted():
    sc = shipped_scenario("stack")
    theory = schema_theory("SUPPORT")
    combos = list(candidate_bindings(theory, sc, EvalContext.for_scenario(sc, theory)))
    assert combos == list(_product_bindings(theory, sc))
    assert len(combos) == 12 and all(b["upper"] != b["lower"] for b in combos)
    assert combos == sorted(combos, key=lambda b: (b["upper"], b["lower"]))


# --- classification agrees with the naive evaluator ---------------------------------


def _reference_bindings(theory, sc):
    """Satisfying bindings by the naive evaluator, every axiom evaluated."""
    for binding in _product_bindings(theory, sc):
        try:
            report = check_theory(theory, sc, binding, evaluator=reference_eval)
        except EVALUATION_GAP_ERRORS:
            continue
        if report.satisfied:
            yield SchemaBinding(theory.name, tuple((r, binding[r]) for r, _ in theory.roles))


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_classify_complete_and_sound_vs_reference(seed):
    rng = random.Random(seed)
    sc = random_trace_scenario(rng, max_entities=5, max_len=6, all_sorts=True)
    got = {(r.binding.schema, r.binding.roles) for r in classify(sc)}
    expected = {
        (b.schema, b.roles)
        for name in SHIPPED_SCHEMAS
        for b in _reference_bindings(schema_theory(name), sc)
    }
    assert got == expected


@given(st.integers(0, 10**6), st.sampled_from(SHIPPED_SCHEMAS))
@settings(max_examples=20, deadline=None)
def test_analogy_agrees_with_reference(seed, schema):
    rng = random.Random(seed)
    sc_a = random_trace_scenario(rng, max_entities=4, max_len=5, all_sorts=True)
    sc_b = random_trace_scenario(rng, max_entities=4, max_len=5, all_sorts=True)
    theory = schema_theory(schema)
    first_a = next(_reference_bindings(theory, sc_a), None)
    first_b = next(_reference_bindings(theory, sc_b), None)
    expected = None if first_a is None or first_b is None else (first_a, first_b)
    assert analogy(sc_a, sc_b, schema) == expected


# --- the shared binding search ------------------------------------------------------


def _two_points_and_circle():
    p = make_entity("p", "Object", ShapeKind.POINT, [0, 0])
    q = make_entity("q", "Object", ShapeKind.POINT, [1, 0])
    c = make_entity("c", "Circle", ShapeKind.CIRCLE, [0, 0, 2])
    return declare_scenario([c, p, q], trace=Trace((initial_state([c, p, q]),)))


def test_search_stops_at_first_false_axiom():
    # inside(a, b) is undefined when b is a point, so a binding with b in
    # {p, q} raises UnsupportedShapePair if its second axiom is evaluated. Its
    # first axiom is false (a point is no larger than another), so the search
    # drops it without evaluating the second.
    theory = Theory(
        name="T",
        roles=(("a", "Object"), ("b", "Entity")),
        axioms=(parse_formula("larger(b, a)"), parse_formula("inside(a, b)")),
    )
    sc = _two_points_and_circle()
    found = list(search_bindings(theory, sc, EvalContext.for_scenario(sc, theory)))
    assert [r.binding.as_dict() for r in found] == [{"a": "p", "b": "c"}, {"a": "q", "b": "c"}]
    assert all(len(r.report.axioms) == 2 and r.report.satisfied for r in found)
    dropped = {"a": "p", "b": "q"}
    short = check_theory(theory, sc, dropped, stop_at_first_false=True)
    assert not short.satisfied and len(short.axioms) == 1 and short.axioms[0].witness is None
    with pytest.raises(UnsupportedShapePair):
        check_theory(theory, sc, dropped)


def test_search_skips_gap_errors_only():
    sc = _two_points_and_circle()
    gap = Theory(name="G", roles=(("a", "Object"), ("b", "Object")),
                 axioms=(parse_formula("inside(a, b)"),))
    assert list(search_bindings(gap, sc, EvalContext.for_scenario(sc, gap))) == []
    unbound = Theory(name="U", roles=(("a", "Object"),),
                     axioms=(parse_formula("contact(a, nowhere)"),))
    with pytest.raises(UnboundSymbol):
        list(search_bindings(unbound, sc, EvalContext.for_scenario(sc, unbound)))
    with pytest.raises(UnboundSymbol):
        classify(sc, [unbound])
    with pytest.raises(UnboundSymbol):
        analogy(sc, sc, unbound)


def test_search_with_fixed_roles():
    sc = shipped_scenario("stack")
    theory = schema_theory("SUPPORT")
    ctx = EvalContext.for_scenario(sc, theory)
    found = [r.binding.as_dict() for r in search_bindings(theory, sc, ctx, fixed={"lower": "box"})]
    assert found == [{"upper": "marble", "lower": "box"}]
    assert list(candidate_bindings(theory, sc, ctx, fixed={"nothing": "box"})) == []
    assert list(candidate_bindings(theory, sc, ctx, fixed={"lower": "nobody"})) == []


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_classify_invariant_under_renaming(seed):
    rng = random.Random(seed)
    sc = random_trace_scenario(rng, max_entities=3, max_len=4)
    mapping = {e.id: f"z{i}" for i, e in enumerate(sc.entities)}

    import dataclasses

    renamed_entities = tuple(
        dataclasses.replace(e, id=mapping[e.id]) for e in sc.entities
    )
    renamed_states = tuple(
        dataclasses.replace(
            s, values={(mapping[eid], p): v for (eid, p), v in s.values.items()}
        )
        for s in sc.trace.states
    )
    renamed = declare_scenario(renamed_entities, trace=Trace(renamed_states))
    schemas = ("SUPPORT", "MOTION", "AT_REST")
    original = classify(sc, schemas)
    after = classify(renamed, schemas)
    translated = sorted(
        (r.binding.schema, tuple((role, mapping[e]) for role, e in r.binding.roles))
        for r in original
    )
    got = sorted((r.binding.schema, r.binding.roles) for r in after)
    assert got == translated


# --- analogy --------------------------------------------------------------------------


def test_analogy_solar_vs_atom():
    pair = analogy(shipped_scenario("solar"), shipped_scenario("atom"), "REVOLUTION")
    assert pair is not None
    assert pair[0].as_dict() == {"orbiter": "planet", "center": "sun"}
    assert pair[1].as_dict() == {"orbiter": "electron", "center": "nucleus"}


def test_analogy_with_self():
    solar = shipped_scenario("solar")
    pair = analogy(solar, solar, "REVOLUTION")
    assert pair[0] == pair[1]


def test_analogy_fails_against_static_scene():
    assert analogy(shipped_scenario("solar"), shipped_scenario("stack"), "REVOLUTION") is None


def test_analogy_is_symmetric():
    solar = shipped_scenario("solar")
    atom = shipped_scenario("atom")
    ab = analogy(solar, atom, "REVOLUTION")
    ba = analogy(atom, solar, "REVOLUTION")
    assert ab is not None and ba is not None
    assert (ab[0], ab[1]) == (ba[1], ba[0])
    assert analogy(solar, shipped_scenario("stack"), "REVOLUTION") is None
    assert analogy(shipped_scenario("stack"), solar, "REVOLUTION") is None


def test_ccw_step_agrees_with_literal_theta_away_from_wrap():
    sc = shipped_scenario("solar")
    ctx = EvalContext.for_scenario(sc)
    ccw = parse_formula("ccwStep(planet, sun)")
    lit = parse_formula("thetaStep(planet, sun)")
    # the orbit wraps past the negative x axis between t=4 and t=5
    for t in range(sc.trace.length - 1):
        ccw_v = logic.eval_formula(ccw, sc.trace, t, {}, ctx)
        lit_v = logic.eval_formula(lit, sc.trace, t, {}, ctx)
        assert ccw_v is True
        assert lit_v is (False if t == 4 else True)


# --- the join ----------------------------------------------------------------------


def _unfiltered(theory, sc, epsilon, tau, fixed):
    """The search as it runs for a theory with no conditions: every
    candidate binding checked."""
    ctx = EvalContext.for_scenario(sc, theory, epsilon=epsilon, tau=tau)
    for binding in _product_bindings(theory, sc, fixed):
        try:
            report = check_theory(theory, sc, binding, ctx=ctx, stop_at_first_false=True)
        except EVALUATION_GAP_ERRORS:
            continue
        if report.satisfied:
            yield tuple((r, binding[r]) for r, _ in theory.roles)


def _meeting(theory, sc, ctx, fixed, conditions):
    """The candidate bindings that meet every one of `conditions`, each
    decided at instant 0, or at every instant when `later`, with no box
    filter: the reference for the join's candidates."""
    states = sc.trace.states

    def meets(cond, binding):
        for t in range(len(states)) if cond.later else (0,):
            try:
                if logic.decide(cond.atom, states, t, binding, ctx):
                    return True
            except EVALUATION_GAP_ERRORS:
                pass
        return False

    for binding in _product_bindings(theory, sc, fixed):
        if all(meets(cond, binding) for cond in conditions):
            yield binding


def _outcome(results):
    """What a search yields, in order, then the type and message of the
    error that ended it, if one did."""
    out = []
    try:
        out.extend(results)
    except Exception as exc:  # the comparison covers every error
        out.append((type(exc), str(exc)))
    return out


# closeTo twice: with a threshold of 3/2 or 5 it often holds, so bindings survive
_JOIN_RELATIONS = ("inside", "partOf", "contact", "on", "overlaps", "disjoint", "closeTo", "closeTo", "ccwStep")
# Gap-only templates: distance bounds the join filters on, written both
# ways round (`reach` as SOURCE_PATH_GOAL's `at` is, over a parameter), one
# it only refines, one of delta against delta, and one overriding a built-in.
_JOIN_TEMPLATES = {
    "near": "delta(arg1, arg2) <= 3/2",
    "reach": "k >= delta(arg2, arg1)",
    "apart": "k < delta(arg2, arg1)",
    "closer": "delta(arg1, arg2) < delta(arg2, arg1)",
    "contact": "arg1.y <= arg2.y",
}


def _random_theory(rng, sc, gappy):
    """A theory over 1 to 3 roles whose axioms combine atoms and lone-delta
    comparisons under and, always, eventually, next and until, with now and
    then a node that gives no condition; it may define templates from
    _JOIN_TEMPLATES. Unless `gappy`, one atom somewhere leaves the gap-only
    fragment, or a template fails the sort check: one applied to a role of a
    sort it does not take, or one no axiom applies that names an unknown
    symbol."""
    sorts = ("Entity",) * 5 + ("Object", "Container", "Path", "Floor")
    roles = [(name, rng.choice(sorts))
             for name in ("a", "b", "c")[: rng.randint(1, min(3, len(sc.entities)))]]
    names = [r for r, _ in roles] + [rng.choice(sc.entities).id]
    templates = [name for name in _JOIN_TEMPLATES if rng.random() < 0.3]

    def comparison():
        delta = f"delta({rng.choice(names)}, {rng.choice(names)})"
        other = rng.choice(("3/2", "0", "5", "k", "-1", "-k", f"{rng.choice(names)}.y + 1",
                            f"delta({rng.choice(names)}, {rng.choice(names)})"))
        sides = (delta, other) if rng.random() < 0.5 else (other, delta)
        return f"{sides[0]} {rng.choice(geometry.COMPARATORS)} {sides[1]}"

    def atom():
        if rng.random() < 0.15:
            return f"motion({rng.choice(names)})"
        if rng.random() < 0.25:
            return comparison()
        rel = rng.choice(_JOIN_RELATIONS + tuple(templates))
        x, y = rng.choice(names), rng.choice(names)
        if rel == "closeTo":
            threshold = rng.choice(("", ", 0", ", 3/2", ", 5", ", k", f", {x}.y + 1"))
            return f"closeTo({x}, {y}{threshold})"
        return f"{rel}({x}, {y})"

    def formula(depth):
        if depth == 0 or rng.random() < 0.25:
            return atom()
        op = rng.choice(("and", "and", "always", "eventually", "next", "until", "not", "or", "->", "forall"))
        if op in ("and", "until", "or", "->"):
            return f"({formula(depth - 1)} {op} {formula(depth - 1)})"
        if op == "forall":
            return f"(forall v : Entity . contact(v, {rng.choice(names)}) -> {formula(depth - 1)})"
        return f"{op} ({formula(depth - 1)})"

    axioms = [formula(rng.randint(0, 3)) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.3:
        axioms.append(f"{rng.choice(('eventually', 'next'))} {atom()}")
    relations = [RelationSig(name, ("Entity", "Entity"), dsl.parse_formula(_JOIN_TEMPLATES[name]))
                 for name in templates]
    if not gappy:
        spoiler = rng.choice(("delta(a, a) * 2 < 3", "smaller(a, a)", "ghost.x > 0", "template", "sort", "unused"))
        if spoiler == "template":
            relations = [r for r in relations if r.name != "contact"]
            relations.append(RelationSig("contact", ("Entity", "Entity"), dsl.parse_formula("theta(arg1, arg2) < 1")))
            spoiler = "contact(a, a)"
        elif spoiler == "sort":  # an exact body, applied to a role that is no Container
            roles[0] = ("a", rng.choice(("Entity", "Object", "Path", "Floor")))
            relations.append(RelationSig("held", ("Container", "Container"), dsl.parse_formula("delta(arg1, arg2) <= 5")))
            spoiler = "held(a, a)"
        elif spoiler == "unused":  # never evaluated, but the sort check reads every template
            relations.append(RelationSig("stray", ("Entity", "Entity"), dsl.parse_formula("delta(arg1, ghost) <= 1")))
            spoiler = "true"
        axioms[0] = f"({axioms[0]}) and {spoiler}"
    return Theory(
        name="J",
        roles=tuple(roles),
        relations=tuple(relations),
        axioms=tuple(parse_formula(a) for a in axioms),
        numeric_params=(("k", Fraction(1)),),
    )


# The join's partner indexes run from pools of this many entities: the
# module's cut-off, which the random scenes seldom reach, and the least, so
# that every condition with a box margin is indexed.
@pytest.mark.parametrize("min_pool", [library.INDEX_MIN_POOL, 0])
@given(seed=st.integers(0, 10**6))
@settings(max_examples=400, deadline=None)
def test_joined_search_equals_the_unfiltered_loop(min_pool, seed):
    rng = random.Random(seed)
    sc = random_shape_trace(rng, max_entities=7, max_len=5)
    gappy = rng.random() < 0.8
    theory = _random_theory(rng, sc, gappy)
    if rng.random() < 0.2:  # an entity that roles may bind, named like the parameter k
        k = make_entity("k", "Object", ShapeKind.POINT, [rng.randint(-3, 3), 0])
        extra = initial_state([k]).values
        states = tuple(State(time=s.time, values={**s.values, **extra}) for s in sc.trace.states)
        sc = declare_scenario((*sc.entities, k), trace=Trace(states))
    if rng.random() < 0.15:  # an entity that lacks a parameter; a trace's states share their keys
        key = rng.choice(sorted(sc.trace.states[0].values))
        states = tuple(State(time=s.time, values={k: v for k, v in s.values.items() if k != key})
                       for s in sc.trace.states)
        sc = Scenario(sc.entities, trace=Trace(states))  # `declare_scenario` rejects a missing value
    epsilon = rng.choice((DEFAULT_EPSILON, Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1, 2)))
    tau = rng.choice((Fraction(1, 2), Fraction(2)))
    fixed = {}
    if rng.random() < 0.3:
        fixed[rng.choice(theory.roles)[0]] = rng.choice(sc.entities).id
    if rng.random() < 0.05:
        fixed["zz"] = sc.entities[0].id
    ctx = EvalContext.for_scenario(sc, theory, epsilon=epsilon, tau=tau)
    assert gap_only(theory, ctx) is gappy
    with mock.patch.object(library, "INDEX_MIN_POOL", min_pool):
        got = _outcome(r.binding.roles for r in search_bindings(theory, sc, ctx, fixed=fixed))
    assert got == _outcome(_unfiltered(theory, sc, epsilon, tau, fixed))


# Two-role atoms whose box filter has a margin; `at` is SOURCE_PATH_GOAL's.
_MARGIN_ATOMS = (
    "inside({x}, {y})", "partOf({x}, {y})", "overlaps({x}, {y})", "contact({x}, {y})", "on({x}, {y})",
    "closeTo({x}, {y})", "closeTo({x}, {y}, 3)", "closeTo({x}, {y}, -1)", "delta({x}, {y}) <= 2",
    "k >= delta({y}, {x})", "delta({x}, {y}) < k", "at({x}, {y})",
)
_AT = RelationSig("at", ("Entity", "Entity"), parse_formula("delta(arg1, arg2) <= k"))


@given(st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_partner_indexes_keep_the_candidates_of_the_pair_tests(seed):
    rng = random.Random(seed)
    sc = random_shape_trace(rng, max_entities=10, max_len=5)
    spread = rng.choice((1, 4, 10))  # positions spread out, so that more boxes lie apart
    drop = rng.choice(sorted(sc.trace.states[0].values)) if rng.random() < 0.2 else None
    states = tuple(State(time=s.time, values={key: v if key[1] in EXTENT_PARAMS else v * spread
                                              for key, v in s.values.items() if key != drop})
                   for s in sc.trace.states)
    sc = Scenario(sc.entities, trace=Trace(states))  # `declare_scenario` rejects a missing value
    sorts = ("Entity", "Entity", "Object", "Container", "Floor")
    roles = (("a", rng.choice(sorts)), ("b", rng.choice(sorts)))

    def atom():
        x, y = rng.sample("ab", 2)
        return rng.choice(_MARGIN_ATOMS).format(x=x, y=y)

    axioms = [rng.choice(("{}", "always {}", "eventually {}", "next {}", "{} and eventually {}")).format(atom(), atom())
              for _ in range(rng.randint(1, 2))]
    theory = Theory("P", roles=roles, relations=(_AT,), axioms=tuple(parse_formula(a) for a in axioms),
                    numeric_params=(("k", Fraction(rng.randint(0, 6), 2)),))
    fixed = {rng.choice("ab"): rng.choice(sc.entities).id} if rng.random() < 0.2 else {}
    ctx = EvalContext.for_scenario(sc, theory, epsilon=rng.choice((DEFAULT_EPSILON, Fraction(1, 2), Fraction(-1))))
    conditions = necessary_conditions(theory)
    with mock.patch.object(library, "INDEX_MIN_POOL", 0):
        joined = list(candidate_bindings(theory, sc, ctx, fixed, conditions))
    assert joined == list(_meeting(theory, sc, ctx, fixed, conditions))


def test_gap_only_classifier():
    sc = shipped_scenario("stack")

    def gap(theory):
        return gap_only(theory, EvalContext.for_scenario(sc, theory))

    assert [n for n in SHIPPED_SCHEMAS if not gap(schema_theory(n))] == []
    roles = (("a", "Entity"), ("b", "Entity"))

    def theory(axiom, relations=(), params=()):
        formula = parse_formula(axiom) if isinstance(axiom, str) else axiom
        return Theory("T", roles=roles, relations=relations, axioms=(formula,), numeric_params=params)

    assert gap(theory("closeTo(a, b, 3/2) and eventually on(a, f)"))
    # a template overriding a built-in the axioms apply; one they do not apply is never evaluated
    override = RelationSig("on", ("Entity", "Entity"), dsl.parse_formula("theta(arg1, arg2) > 0"))
    assert not gap(theory("contact(a, b) or not on(b, a)", relations=(override,)))
    assert gap(theory("contact(a, b)", relations=(override,)))
    # a template whose body is gap-only, read with argN as the atom's N-th entity argument
    rational = RelationSig("on", ("Entity", "Entity"), dsl.parse_formula("arg1.y <= arg2.y"))
    assert gap(theory("contact(a, b) or not on(b, a)", relations=(rational,)))
    near = RelationSig("near", ("Entity", "Entity"), dsl.parse_formula("delta(arg1, arg2) <= k"))
    assert gap(theory("near(a, b)", relations=(near,), params=(("k", Fraction(1)),)))
    assert not gap(theory("near(a, b, a)", relations=(near,), params=(("k", Fraction(1)),)))
    assert not gap(theory("near(a, b)", relations=(near,)))  # k does not resolve
    stray = RelationSig("near", ("Entity", "Entity"), dsl.parse_formula("delta(arg1, arg3) <= 1"))
    assert not gap(theory("near(a, b)", relations=(stray,)))
    # a signature without a template keeps the built-in
    assert gap(theory("on(a, b)", relations=(RelationSig("on", ("Entity", "Entity")),)))
    assert gap(theory("inside(a, b) and delta(a, b) < 2"))
    assert gap(theory("always (delta(a, b) != delta(b, f) or 2 >= delta(f, a))"))
    assert not gap(theory("delta(a, b) * 2 < 3"))  # delta under arithmetic is a float
    assert not gap(theory("delta(a, ghost) < 2"))
    assert not gap(theory("always (theta(a, b) > 0)"))
    assert not gap(theory("not measure(a) > 1"))
    # a float threshold, as a constant or as a parameter, takes closeTo off exact arithmetic
    assert not gap(theory(Atom("closeTo", ("a", "b", Const(1.5)))))
    assert not gap(theory("closeTo(a, b, k)", params=(("k", 1.5),)))
    assert gap(theory("closeTo(a, b, k)", params=(("k", Fraction(3, 2)),)))
    # symbols, parameters, sorts and arities that do not resolve raise more than gaps
    assert not gap(theory("contact(a, ghost)"))
    assert not gap(theory("closeTo(a, b, nope)"))
    assert not gap(theory("ghost.x > 0"))
    assert not gap(theory("exists v : Blob . on(v, a)"))
    assert not gap(theory("motion(a, b)"))
    assert not gap(theory("smaller(a, b)"))
    assert gap(theory("exists v : Entity . on(v, a) and v.x < b.x"))


def test_readme_names_every_gap_only_relation():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("**Pre-filtered theories.**"):readme.index("The necessary conditions are")]
    exact = {name for name, row in geometry.BUILTIN_RELATIONS.items() if row.exact}
    assert {name for name in geometry.BUILTIN_RELATIONS if f"`{name}`" in section} == exact


def test_necessary_conditions_follow_the_positive_skeleton():
    theory = Theory(
        "T",
        roles=(("a", "Entity"), ("b", "Entity"), ("c", "Entity")),
        axioms=tuple(
            parse_formula(text)
            for text in (
                "always (on(a, b) and next contact(b, c))",
                "not inside(a, b)",
                "(motion(a) or motion(b)) and eventually inside(c, f)",
                "disjoint(a, b) until (overlaps(b, a) and always partOf(c, c))",
                "forall v : Entity . on(v, a)",
                "closeTo(a, b, c.r)",
                "always (1 <= delta(a, b) and delta(c, f) < 2)",
                "not delta(a, b) < 1 and eventually a.x < b.x",
                "a.x + b.x < c.x or next delta(a, c) = 0",
                "next (a.x + b.x < c.x and 0 < 1)",
            )
        ),
    )
    got = [(dsl.formula_to_text(c.atom), c.later, c.roles) for c in necessary_conditions(theory)]
    assert got == [
        ("on(a, b)", False, (0, 1)),
        ("contact(b, c)", True, (1, 2)),
        ("inside(c, f)", True, (2,)),
        ("overlaps(b, a)", True, (0, 1)),
        ("partOf(c, c)", True, (2,)),
        ("1 <= delta(a, b)", False, (0, 1)),
        ("delta(c, f) < 2", False, (2,)),
        ("a.x < b.x", True, (0, 1)),
        ("0 < 1", True, ()),
    ]


def test_join_checks_only_candidates_that_meet_the_conditions(monkeypatch):
    sc = shipped_scenario("stack")
    checked = []

    def counting(theory, scenario, binding, **kw):
        checked.append(dict(binding))
        return check_theory(theory, scenario, binding, **kw)

    monkeypatch.setattr(library, "check_theory", counting)
    theory = schema_theory("SUPPORT")
    found = [r.binding.as_dict() for r in search_bindings(theory, sc, EvalContext.for_scenario(sc, theory))]
    assert checked == found == [
        {"upper": "box", "lower": "crate"},
        {"upper": "crate", "lower": "f"},
        {"upper": "marble", "lower": "box"},
    ]


def test_each_search_builds_one_context(monkeypatch):
    sc = shipped_scenario("stack")
    theories = [schema_theory(name) for name in SHIPPED_SCHEMAS]
    built = Counter()
    real_hierarchy = Theory.hierarchy
    real_for_scenario = EvalContext.for_scenario.__func__

    def hierarchy(theory):
        built["hierarchy"] += 1
        return real_hierarchy(theory)

    def for_scenario(cls, *args, **kwargs):
        built["context"] += 1
        return real_for_scenario(cls, *args, **kwargs)

    monkeypatch.setattr(Theory, "hierarchy", hierarchy)
    monkeypatch.setattr(EvalContext, "for_scenario", classmethod(for_scenario))
    assert classify(sc, theories)
    assert built == {"hierarchy": 8, "context": 8}


def test_classify_builds_each_box_once(monkeypatch):
    sc = shipped_scenario("ball_cup")
    served: dict[tuple, list] = {}  # (view, entity) -> every box handed out
    real_box = geometry.IntView.box

    def box(view, decl):
        out = real_box(view, decl)
        served.setdefault((view, decl.id), []).append(out)
        return out

    monkeypatch.setattr(geometry.IntView, "box", box)
    classify(sc)
    # every box was asked for; those at instant 0 by CONTAINMENT, LINK,
    # OBJECT_INTO_CONTAINER and SUPPORT
    views = [geometry.int_view(state) for state in sc.trace.states]
    assert set(served) == {(view, e) for view in views for e in ("ball", "cup")}
    assert len(served[views[0], "ball"]) >= 4 and len(served[views[0], "cup"]) >= 4
    # and each was built once: the same object every time
    assert all(b is boxes[0] for boxes in served.values() for b in boxes)


def test_an_entity_lacking_a_parameter_unfilters_only_its_own_pairs(monkeypatch):
    circles = [make_entity(f"c{i}", "Circle", ShapeKind.CIRCLE, [10 * i, 0, 1]) for i in range(4)]
    entities = circles + [make_entity("q", "Circle", ShapeKind.CIRCLE, [5, 20, 1])]
    values = {k: v for k, v in initial_state(entities).values.items() if k != ("q", "r")}
    moved = {**values, ("c1", "x"): Fraction(2)}  # c1 touches c0 at t=1
    # built directly: `declare_scenario` rejects a state without q.r
    sc = Scenario(tuple(entities), trace=Trace((State(0, values), State(1, moved))))
    theory = Theory("T", roles=(("a", "Entity"), ("b", "Entity")),
                    axioms=(parse_formula("eventually contact(a, b)"),))
    ctx = EvalContext.for_scenario(sc, theory)
    refined = []
    real_decide = logic.decide

    def counting(phi, states, t, binding, ctx):
        refined.append((t, binding["a"], binding["b"]))
        return real_decide(phi, states, t, binding, ctx)

    monkeypatch.setattr(logic, "decide", counting)
    joined = list(candidate_bindings(theory, sc, ctx, conditions=necessary_conditions(theory)))
    monkeypatch.undo()
    # q's pairs are refined at instant 0, and at instant 1 those with c1, the
    # one entity that moves; of the others only the pair in contact
    ids = [e.id for e in entities]
    with_q = [(t, a, b) for t in (0, 1) for a, b in permutations(ids, 2)
              if "q" in (a, b) and (t == 0 or "c1" in (a, b))]
    assert sorted(refined) == sorted(with_q + [(1, "c0", "c1"), (1, "c1", "c0")])
    assert joined == [{"a": "c0", "b": "c1"}, {"a": "c1", "b": "c0"}]
    got = [r.binding.roles for r in classify(sc, [theory])]
    assert got == list(_unfiltered(theory, sc, DEFAULT_EPSILON, Fraction(1, 2), None))
    assert got == [(("a", "c0"), ("b", "c1")), (("a", "c1"), ("b", "c0"))]


def test_the_join_tests_only_pairs_whose_boxes_lie_within_the_margin(monkeypatch):
    # points 10 apart, farther than LINK's tau of 2 and SUPPORT's epsilon,
    # but for q, 1 from p0; more of them than the index's least pool
    points = [make_entity(f"p{i}", "Object", ShapeKind.POINT, [10 * i, 0])
              for i in range(library.INDEX_MIN_POOL + 4)]
    points.append(make_entity("q", "Object", ShapeKind.POINT, [1, 0]))
    values = initial_state(points).values
    sc = declare_scenario(points, trace=Trace(tuple(State(time=t, values=values) for t in range(3))))
    tested, decided = [], set()
    boxes_apart, decide = geometry.boxes_apart, logic.decide

    def counting(state, a, b, margin):
        tested.append((a.id, b.id))
        return boxes_apart(state, a, b, margin)

    def deciding(phi, states, t, binding, ctx):
        decided.add(tuple(binding.values()))
        return decide(phi, states, t, binding, ctx)

    monkeypatch.setattr(geometry, "boxes_apart", counting)
    monkeypatch.setattr(logic, "decide", deciding)
    got = [(r.binding.schema, r.binding.roles) for r in classify(sc, ["SUPPORT", "LINK"])]
    # the partner index keeps only the pairs whose boxes pass, so none is box-tested again
    assert tested == []
    assert sorted(decided) == [("p0", "q"), ("q", "p0")]
    assert got == [("LINK", (("a", "p0"), ("b", "q"))), ("LINK", (("a", "q"), ("b", "p0")))]


def _random_roles(rng):
    """A random scene, a theory of 0 to 5 roles over it, and roles fixed to
    an entity, which may be of a sort the role does not take, to an unknown
    entity, or now and then a role the theory lacks."""
    sc = random_shape_trace(rng, max_entities=7, max_len=1)
    sorts = ("Entity", "Entity", "Object", "Container", "Circle", "Path", "Floor")
    roles = tuple((f"r{i}", rng.choice(sorts)) for i in range(rng.randint(0, 5)))
    fixed = {}
    for role, _ in roles:
        if rng.random() < 0.2:
            fixed[role] = rng.choice(sc.entities).id
        elif rng.random() < 0.05:
            fixed[role] = "nobody"
    if rng.random() < 0.05:
        fixed["zz"] = sc.entities[0].id
    return sc, Theory("T", roles=roles), fixed


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_candidate_bindings_without_conditions_are_the_product(seed):
    sc, theory, fixed = _random_roles(random.Random(seed))
    ctx = EvalContext.for_scenario(sc, theory)
    got = list(candidate_bindings(theory, sc, ctx, fixed, conditions=()))
    assert got == list(_product_bindings(theory, sc, fixed))


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_count_candidates_equals_the_enumerated_count(seed):
    sc, theory, fixed = _random_roles(random.Random(seed))
    expected = sum(1 for _ in _product_bindings(theory, sc, fixed))
    assert count_candidates(theory, EvalContext.for_scenario(sc, theory), fixed) == expected


def test_count_candidates_needs_no_listing():
    points = [make_entity(f"p{i:02d}", "Object", ShapeKind.POINT, [i, 0]) for i in range(60)]
    sc = declare_scenario(points, trace=Trace((initial_state(points),)))
    roles = tuple((r, "Object") for r in "abcdef")
    theory = Theory("T", roles=roles)
    ctx = EvalContext.for_scenario(sc, theory)
    assert count_candidates(theory, ctx) == 60 * 59 * 58 * 57 * 56 * 55
    assert count_candidates(theory, ctx, {"a": "p00", "b": "p00"}) == 0


def test_a_search_takes_its_tolerances_from_one_place():
    points = [make_entity(f"p{i}", "Object", ShapeKind.POINT, [i, 0]) for i in range(3)]
    sc = declare_scenario(points, trace=Trace((initial_state(points),)))
    theory = Theory("T", roles=(("a", "Object"), ("b", "Object")), axioms=(parse_formula("closeTo(a, b)"),))
    ctx = EvalContext.for_scenario(sc, theory, tau=Fraction(1))
    # points one apart are close within tau 1, and not within the default 1/2
    assert len(list(search_bindings(theory, sc, ctx))) == 4
    assert list(search_bindings(theory, sc, EvalContext.for_scenario(sc, theory))) == []


def test_no_function_takes_the_tolerances_beside_a_context():
    """A context holds the tolerances, so a function that takes one takes
    no `epsilon` or `tau` beside it."""
    import importlib
    import inspect
    import pkgutil

    import ischema

    signatures = {}
    for info in pkgutil.iter_modules(ischema.__path__):
        module = importlib.import_module(f"ischema.{info.name}")
        owners = [module] + [c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == module.__name__]
        for owner in owners:
            for fn in vars(owner).values():
                fn = getattr(fn, "__func__", fn)  # a classmethod's or staticmethod's function
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    signatures[f"{module.__name__}.{fn.__qualname__}"] = set(inspect.signature(fn).parameters)
    assert "ctx" in signatures["ischema.logic.check_theory"]
    assert [name for name, params in signatures.items() if "ctx" in params and params & {"epsilon", "tau"}] == []

