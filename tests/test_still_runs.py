"""`always` and `eventually` decide a local operand only at the instants where
something it reads has changed (`logic.instants`, `Trace.changes`): the same
reports as deciding every instant, for a fraction of the work."""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from ischema import geometry, logic
from ischema.dsl import parse_formula
from ischema.geometry import EvalContext
from ischema.logic import check_theory, eval_formula, reference_eval
from ischema.model import (
    EXTENT_PARAMS,
    POSITION_X,
    POSITION_Y,
    SHAPE_PARAMS,
    RelationSig,
    ShapeKind,
    State,
    Theory,
    Trace,
    declare_scenario,
    initial_state,
    make_entity,
)

_SHAPES = (
    ("Object", ShapeKind.POINT, [0, 0]),
    ("Circle", ShapeKind.CIRCLE, [0, 0, 1]),
    ("Path", ShapeKind.SEGMENT, [0, 0, 1, 1]),
)


def _still_scene(rng: random.Random):
    """Two to four points, circles and segments over up to 12 instants. Each
    entity moves or holds still for stretches; a value that holds is at
    times written back as an equal but distinct Fraction."""
    entities = []
    for i in range(rng.randint(2, 4)):
        sort, shape, values = _SHAPES[0 if i < 2 else rng.randrange(3)]
        values = [v + (0 if name in EXTENT_PARAMS else Fraction(rng.randint(-4, 4), 2))
                  for v, name in zip(values, SHAPE_PARAMS[shape])]
        entities.append(make_entity(f"e{i}", sort, shape, values))
    moving = {e.id: rng.random() < 0.5 for e in entities}
    values = initial_state(entities).values
    states = []
    for t in range(rng.randint(1, 12)):
        if t:
            values = dict(values)
            for e in entities:
                if rng.random() < 0.3:
                    moving[e.id] = not moving[e.id]
                for p in POSITION_X[e.shape] + POSITION_Y[e.shape]:
                    v = values[(e.id, p)]
                    if moving[e.id] and rng.random() < 0.7:
                        values[(e.id, p)] = v + Fraction(rng.randint(-2, 2), 2)
                    elif rng.random() < 0.3:
                        values[(e.id, p)] = Fraction(v.numerator, v.denominator)
        states.append(State(time=t, values=values))
    return declare_scenario(entities, trace=Trace(tuple(states)))


# `near` names e1, which is not among its arguments. The parameter e0 is
# also an entity: an atom's bare e0 reads the parameter, and `e0.x` and
# `delta(e0, ...)` read the entity.
_NEAR = RelationSig("near", ("Entity",), parse_formula("delta(arg1, e1) <= 2"))
_LEAVES = (
    "motion({x})", "ccwStep({x}, {y})", "closeTo({x}, {y}, e0)", "closeTo({x}, {y})",
    "inside({x}, {y})", "near({x})", "{e}.x <= 1", "delta({e}, {y}) < 3", "final",
)
# Leaves that make the formula holding them not local.
_NON_LOCAL_LEAVES = (
    "next ({e}.x <= 1)", "before motion({x})", "({e}.x <= 1) until motion({x})",
    "exists v : Object . delta(v, {y}) > 2", "always closeTo({x}, {y}, e0)",
)


def _local(rng: random.Random, names: list[str], depth: int) -> str:
    """A formula over `names`, the roles and entities other than e0: atoms
    that hold, fail or raise (`inside` of an unsupported shape pair, a
    segment's x) under not, and, or, ->; local but for a few leaves."""
    if depth == 0 or rng.random() < 0.3:
        x, y, e = rng.choice(names), rng.choice(names), rng.choice(names + ["e0"])
        return rng.choice(_LEAVES if rng.random() < 0.85 else _NON_LOCAL_LEAVES).format(x=x, y=y, e=e)
    left, right = _local(rng, names, depth - 1), _local(rng, names, depth - 1)
    return rng.choice((f"not ({left})", f"({left}) and ({right})", f"({left}) or ({right})",
                       f"({left}) -> ({right})", f"not final -> ({left})"))


def _axiom(rng: random.Random, names: list[str]) -> str:
    """`always` or `eventually` of a `_local` formula, at instant 0 or
    nested under another operator, so that it starts at a later instant."""
    span = f"{rng.choice(('always', 'eventually'))} ({_local(rng, names, 2)})"
    outer = rng.choice(("{}", "always ({})", "eventually ({})", "next ({})", "({0}) until ({0})",
                        "({}) and eventually ({})", "always (({}) -> ({}))"))
    return outer.format(span, f"{rng.choice(('always', 'eventually'))} ({_local(rng, names, 1)})")


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # the class and the message must agree too
        return type(exc), str(exc)


def _every_instant(reads, trace, t, binding, ctx):
    return range(t, trace.length)


@given(st.integers(0, 10**6))
@settings(max_examples=600, derandomize=True, deadline=None)
def test_runs_report_what_every_instant_reports(seed):
    rng = random.Random(seed)
    sc = _still_scene(rng)
    ids = [e.id for e in sc.entities]
    names = ["a", "b", *ids[1:]]
    theory = Theory("T", roles=(("a", "Entity"), ("b", "Entity")), relations=(_NEAR,),
                    axioms=tuple(parse_formula(_axiom(rng, names)) for _ in range(3)),
                    numeric_params=(("e0", Fraction(3)),))
    ctx = EvalContext.for_scenario(sc, theory)
    binding = dict(zip(("a", "b"), rng.sample(ids, 2)))
    t = rng.randrange(sc.trace.length)

    def run():
        return (_outcome(lambda: check_theory(theory, sc, binding, ctx)),
                [_outcome(lambda: eval_formula(a, sc.trace, t, binding, ctx)) for a in theory.axioms])

    report, at_t = run()
    with mock.patch.object(logic, "instants", _every_instant):
        assert (report, at_t) == run()
    refs = [_outcome(lambda: reference_eval(a, sc.trace, 0, binding, ctx)) for a in theory.axioms]
    if type(report) is tuple:  # the error of an instant the oracle decides too
        assert any(type(r) is tuple for r in refs)
    else:
        for result, ref in zip(report.axioms, refs):
            assert type(ref) is tuple or result.satisfied == ref


# --- work pins ------------------------------------------------------------------


def _walk(moves: list[int], length: int = 20):
    """Points a, b and c over `length` instants; a moves to x = t at each
    instant in `moves`, b and c hold still, and every state writes b.x back
    as an equal but distinct Fraction."""
    entities = [make_entity(i, "Object", ShapeKind.POINT, [0, 0]) for i in "abc"]
    states, x = [], Fraction(0)
    for t in range(length):
        x = Fraction(t) if t in moves else x
        values = {**initial_state(entities).values, ("a", "x"): x, ("b", "x"): Fraction(0, 1)}
        states.append(State(time=t, values=values))
    return declare_scenario(entities, trace=Trace(tuple(states)))


def _relations_decided(text: str, sc) -> int:
    calls = []
    real = geometry.eval_relation

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    with mock.patch.object(geometry, "eval_relation", counting):
        eval_formula(parse_formula(text), sc.trace, 0, {}, EvalContext.for_scenario(sc))
    return len(calls)


def test_a_pair_that_never_moves_is_decided_once():
    sc = _walk([])
    assert _relations_decided("always closeTo(b, c, 2)", sc) == 1
    assert _relations_decided("eventually not closeTo(b, c, 2)", sc) == 1


def test_a_still_entity_is_decided_at_its_first_and_last_instants():
    assert _relations_decided("always not motion(b)", _walk([])) <= 2


def test_an_entity_that_moves_every_step_is_decided_at_every_instant():
    sc = _walk(list(range(20)))
    assert _relations_decided("always closeTo(a, c, 100)", sc) == 20
    assert _relations_decided("always (not closeTo(a, c, 100) -> motion(a))", sc) == 20


def test_a_step_relation_is_decided_on_both_sides_of_each_change():
    # at 0, at 4 and 5 and at 8 and 9 around a's moves, and at the last instant
    assert _relations_decided("always (motion(a) or b.x = 0)", _walk([5, 9])) == 6


def test_a_value_written_back_equal_is_no_change():
    sc = _walk([7])
    assert sc.trace.changes() == {"a": [7]}
    assert _relations_decided("always closeTo(b, c, 2)", sc) == 1


def test_a_suffix_gets_its_own_record():
    trace = _walk([3, 9]).trace
    assert trace.changes() == {"a": [3, 9]}
    suffix = trace.suffix(5)
    assert suffix.change_record is None
    assert suffix.changes() == {"a": [4]}
    assert trace.changes() == {"a": [3, 9]}
