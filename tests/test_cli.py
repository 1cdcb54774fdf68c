import json
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import mutate

from ischema.cli import main
from ischema import dsl, enumeration
from ischema.errors import ConflictingEffects, SearchSpaceTooLarge, UnsupportedShapePair
from ischema.geometry import EvalContext
from ischema.library import SHIPPED_SCHEMAS, _data_text, shipped_scenario
from ischema.model import Theory

DATA = Path(__file__).resolve().parents[1] / "src" / "ischema" / "data"


@pytest.fixture
def runner():
    return CliRunner(mix_stderr=False) if _mix_supported() else CliRunner()


def _mix_supported():
    import inspect

    return "mix_stderr" in inspect.signature(CliRunner.__init__).parameters


def _run(runner, args, **kw):
    return runner.invoke(main, args, env={"ISCHEMA_COLOR": "0"}, **kw)


def _path(name: str) -> str:
    return str(DATA / name)


def test_check_figure_containment(runner):
    result = _run(
        runner,
        ["check", _path("CONTAINMENT.ist"), _path("fig1.scn"), "--bind", "object=a", "--bind", "container=c"],
    )
    assert result.exit_code == 0, result.output
    assert "inside(a, c): satisfied" in result.output
    assert "result: satisfied" in result.output


def test_check_violated_exits_one(runner):
    result = _run(
        runner,
        ["check", _path("OBJECT_INTO_CONTAINER.ist"), _path("fig1.scn"), "--bind", "object=a", "--bind", "container=c"],
    )
    assert result.exit_code == 1
    assert "violated" in result.output


def test_check_unbound_roles_searches(runner):
    result = _run(runner, ["check", _path("CONTAINMENT.ist"), _path("fig1.scn")])
    assert result.exit_code == 0
    assert "inside(a, c): satisfied" in result.output


def test_check_unbound_roles_no_binding_exits_one(runner):
    result = _run(runner, ["check", _path("OBJECT_INTO_CONTAINER.ist"), _path("fig1.scn")])
    assert result.exit_code == 1
    assert "no satisfying binding" in result.output
    assert "2 candidates" in result.output


def test_check_json_matches_schema(runner):
    import jsonschema

    result = _run(
        runner,
        ["check", _path("CONTAINMENT.ist"), _path("fig1.scn"), "--bind", "object=a", "--bind", "container=c", "--json"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["satisfied"] is True
    _validate_cli_doc(doc)


def _validate_cli_doc(doc):
    import jsonschema
    from referencing import Registry, Resource

    cli_schema = json.loads(_data_text("cli_output.schema.json"))
    trace_schema = json.loads(_data_text("trace.schema.json"))
    registry = Registry().with_resources(
        [
            ("ischema/cli_output.schema.json", Resource.from_contents(cli_schema)),
            ("trace.schema.json", Resource.from_contents(trace_schema)),
            ("ischema/trace.schema.json", Resource.from_contents(trace_schema)),
        ]
    )
    validator = jsonschema.Draft7Validator(cli_schema, registry=registry)
    errors = list(validator.iter_errors(doc))
    assert not errors, errors


def test_parse_error_exits_two(runner, tmp_path):
    bad = tmp_path / "bad.ist"
    bad.write_text("theory Broken role x :\n", encoding="utf-8")
    result = _run(runner, ["check", str(bad), _path("fig1.scn")])
    assert result.exit_code == 2
    err = result.stderr if hasattr(result, "stderr") else result.output
    assert "bad.ist:" in err


def test_simulate_drop_golden(runner, tmp_path):
    out = tmp_path / "drop.trace.json"
    result = _run(
        runner,
        ["simulate", _path("drop.scn"), "--steps", "7", "--delta", "1", "--trace-out", str(out)],
    )
    assert result.exit_code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    ys = [state["values"]["o.y"] for state in doc["states"]]
    assert ys == ["5", "4", "3", "2", "1", "0", "0"]


def test_simulate_json_is_trace_json(runner):
    import jsonschema

    result = _run(runner, ["simulate", _path("drop.scn"), "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    schema = json.loads(_data_text("trace.schema.json"))
    jsonschema.validate(doc, schema)


def test_simulate_rejects_unstratifiable(runner, tmp_path):
    scn = tmp_path / "loop.scn"
    scn.write_text(
        """scenario loop
          entity a : Object = Point(0, 0)
          entity b : Object = Point(5, 5)
          rules
            rule u1 when not closeTo(a, b, 1) do b.x += 1
            rule u2 when not closeTo(b, a, 1) do a.x += 1
          horizon 3
        end""",
        encoding="utf-8",
    )
    result = _run(runner, ["simulate", str(scn)])
    assert result.exit_code == 3


def test_simulate_rejects_cycle_under_always_and_eventually(runner, tmp_path):
    scn = tmp_path / "temporal_loop.scn"
    scn.write_text(
        """scenario temporal_loop
          entity a : Object = Point(0, 0)
          entity b : Object = Point(0, 0)
          rules
            rule r1 when always (not (a.x > 0)) do b.x := 1
            rule r2 when eventually (not (b.x > 0)) do a.x := 1
          horizon 3
        end""",
        encoding="utf-8",
    )
    result = _run(runner, ["simulate", str(scn)])
    assert result.exit_code == 3
    assert "dependency cycle through a negated condition" in _stderr(result)


def test_simulate_rejects_conflicting_effects(runner, tmp_path):
    scn = tmp_path / "conflict.scn"
    scn.write_text(
        """scenario conflict
          entity o : Object = Point(0, 0)
          rules
            rule r1 when true do o.x := 1
            rule r2 when true do o.x := 2
          horizon 2
        end""",
        encoding="utf-8",
    )
    result = _run(runner, ["simulate", str(scn)])
    assert result.exit_code == 3


def test_simulate_rejects_one_rule_assigning_and_incrementing(runner, tmp_path):
    scn = tmp_path / "both.scn"
    scn.write_text(
        """scenario both
          entity o : Object = Point(0, 0)
          rules
            rule r when true do o.x := 1, o.x += 1
          horizon 2
        end""",
        encoding="utf-8",
    )
    result = _run(runner, ["simulate", str(scn)])
    assert result.exit_code == 3
    assert _stderr(result) == "error: o.x is both assigned and incremented in one step\n"


@pytest.mark.parametrize("effect", ["v.r += 1", "v.r := 2"], ids=["delta", "set"])
def test_simulate_scoped_write_to_a_missing_parameter_exits_two(runner, tmp_path, effect):
    scn = tmp_path / "grow.scn"
    scn.write_text(
        f"""scenario grow
          entity a : Object = Point(0, 0)
          entity c : Container = Circle(0, 0, 1)
          rules
            rule grow forall v : Entity when true do {effect}
          horizon 3
        end""",
        encoding="utf-8",
    )
    result = _run(runner, ["simulate", str(scn)])
    _assert_usage_error(result, "error: no value for a.r")


def test_classify_stack(runner):
    result = _run(runner, ["classify", _path("stack.scn"), "--schemas", "SUPPORT,AT_REST,MOTION"])
    assert result.exit_code == 0
    assert "SUPPORT: upper=crate, lower=f" in result.output
    assert "MOTION" not in result.output


def test_classify_empty_result_exits_zero(runner):
    result = _run(runner, ["classify", _path("fig1.scn"), "--schemas", "SOURCE_PATH_GOAL"])
    assert result.exit_code == 0
    assert "no schema instantiations" in result.output


def test_classify_json(runner):
    result = _run(runner, ["classify", _path("ball_cup.scn"), "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    _validate_cli_doc(doc)
    assert {"schema": "OBJECT_INTO_CONTAINER", "binding": {"object": "ball", "container": "cup"}} in doc["results"]


def test_a_theory_parameter_comes_before_a_same_named_entity(runner, tmp_path):
    # LINK's `param tau` stays its threshold next to an entity named tau
    scn = tmp_path / "pair.scn"
    scn.write_text(
        """scenario pair
          entity a : Object = Point(0, 0)
          entity tau : Object = Point(1, 0)
          trace length 1
        end""",
        encoding="utf-8",
    )
    result = _run(runner, ["classify", str(scn), "--schemas", "LINK"])
    assert result.exit_code == 0, result.output
    assert result.output == "LINK: a=a, b=tau\nLINK: a=tau, b=a\n"


def test_check_prints_a_bound_entity_apart_from_a_same_named_variable(runner, tmp_path):
    ist = tmp_path / "CAPTURE.ist"
    ist.write_text(
        "theory CAPTURE\n  role r : Container\n  axiom forall cup : Object . not inside(cup, r)\nend\n",
        encoding="utf-8",
    )
    result = _run(runner, ["check", str(ist), _path("ball_cup.scn"), "--bind", "r=cup"])
    assert result.exit_code == 0, result.output
    assert result.output == (
        "theory CAPTURE with r=cup\n"
        "  forall cup_1 : Object . not inside(cup_1, cup): satisfied\n"
        "result: satisfied\n"
    )


def test_a_witness_under_a_quantifier_prints_with_its_variable_bound(runner, tmp_path):
    ist = tmp_path / "EMPTY.ist"
    ist.write_text(
        "theory EMPTY\n  role r : Container\n  axiom always (forall o : Object . not inside(o, r))\nend\n",
        encoding="utf-8",
    )
    args = ["check", str(ist), _path("ball_cup.scn"), "--bind", "r=cup"]
    result = _run(runner, args)
    assert result.exit_code == 1, result.output
    assert result.output == (
        "theory EMPTY with r=cup\n"
        "  always (forall o : Object . not inside(o, cup)): violated\n"
        "    fails at t=2: not inside(ball, cup)\n"
        "result: violated\n"
    )
    # the JSON report keeps the subformula as the theory writes it
    doc = json.loads(_run(runner, [*args, "--json"]).output)
    assert doc["axioms"][0]["witness"] == {"time": 2, "formula": "not inside(o, r)"}


def test_analogy_solar_atom(runner):
    result = _run(
        runner, ["analogy", _path("solar.scn"), _path("atom.scn"), "--schema", "REVOLUTION", "--json"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    _validate_cli_doc(doc)
    assert doc["bindingA"] == {"orbiter": "planet", "center": "sun"}
    assert doc["bindingB"] == {"orbiter": "electron", "center": "nucleus"}


def test_analogy_static_exits_one(runner):
    result = _run(runner, ["analogy", _path("solar.scn"), _path("stack.scn"), "--schema", "REVOLUTION"])
    assert result.exit_code == 1


def test_enumerate_counts(runner):
    result = _run(
        runner,
        ["enumerate", _path("CONTAINMENT.ist"), _path("containment_grid.scn"), "--grid", "0:2,0:2", "--count-only"],
    )
    assert result.exit_code == 0
    assert "models: 5" in result.output


def test_enumerate_json(runner):
    result = _run(
        runner,
        ["enumerate", _path("CONTAINMENT.ist"), _path("containment_grid.scn"), "--grid", "0:2,0:2", "--json"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    _validate_cli_doc(doc)
    assert doc["count"] == 5
    assert len(doc["models"]) == 5


def test_enumerate_json_listing_is_the_brute_force_listing(runner):
    # two instants, so that models share the documents of their states
    theory = dsl.parse_theory(_data_text("OBJECT_INTO_CONTAINER.ist"))
    scenario = shipped_scenario("containment_grid")
    spec = enumeration.GridSpec(x_range=(0, 2), y_range=(0, 2), free_entities=("o",), horizon=2)
    models = enumeration.brute_force_models(theory, scenario, spec, {"object": "o", "container": "c"})
    expected = {"command": "enumerate", "count": len(models),
                "models": [dsl.trace_to_json(m, scenario.entities) for m in models]}
    result = _run(runner, ["enumerate", _path("OBJECT_INTO_CONTAINER.ist"), _path("containment_grid.scn"),
                           "--grid", "0:2,0:2", "--steps", "2", "--json"])
    assert result.exit_code == 0
    assert len(models) == 20
    assert result.stdout == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_enumerate_json_is_json_dumps_of_its_document(runner):
    # models on a 3x3 grid over three instants share State objects, and so
    # the text their documents keep in `shared`
    theory = dsl.parse_theory(_data_text("CONTAINMENT.ist"))
    scenario = shipped_scenario("containment_grid")
    spec = enumeration.GridSpec(x_range=(0, 2), y_range=(0, 2), free_entities=("o",), horizon=3)
    models = enumeration.enumerate_models(theory, scenario, spec, {"object": "o", "container": "c"})
    states = [s for m in models for s in m.states]
    assert len({id(s) for s in states}) < len(states)
    shared: dict = {}
    doc = {"command": "enumerate", "count": len(models),
           "models": [dsl.trace_to_json(m, scenario.entities, shared) for m in models]}
    result = _run(runner, ["enumerate", _path("CONTAINMENT.ist"), _path("containment_grid.scn"),
                           "--grid", "0:2,0:2", "--steps", "3", "--json"])
    assert result.exit_code == 0
    assert result.stdout == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_enumerate_cap_exits_four(runner):
    result = _run(
        runner,
        [
            "enumerate", _path("CONTAINMENT.ist"), _path("containment_grid.scn"),
            "--grid", "0:9,0:9", "--cap", "50", "--count-only",
        ],
    )
    assert result.exit_code == 4


@pytest.mark.parametrize(
    "args,message",
    [
        (["CONTAINMENT.ist", "containment_grid.scn", "--cap", "0"], "--cap must be at least 1, got 0"),
        (["CONTAINMENT.ist", "containment_grid.scn", "--cap", "-3"], "--cap must be at least 1, got -3"),
        (["SUPPORT.ist", "stack.scn", "--free", "f"], "free entity 'f' must have a center"),
        # o would be placed twice, and every model listed once per placement
        (["CONTAINMENT.ist", "containment_grid.scn", "--free", "o,o"], "error: --free names 'o' twice"),
        # a role the theory lacks is refused whether or not every real role is bound
        (["CONTAINMENT.ist", "containment_grid.scn", "--bind", "object=o", "--bind", "container=c",
          "--bind", "bogus=zz"], "error: theory CONTAINMENT has no role 'bogus'"),
        (["CONTAINMENT.ist", "containment_grid.scn", "--bind", "object=o", "--bind", "bogus=zz"],
         "error: theory CONTAINMENT has no role 'bogus'"),
    ],
    ids=["cap-0", "cap-negative", "free-floor", "free-repeated", "unknown-role", "unknown-role-unbound"],
)
def test_bad_enumerate_options_are_usage_errors(runner, args, message):
    theory, scenario, *options = args
    result = _run(runner, ["enumerate", _path(theory), _path(scenario), "--grid", "0:2,0:2"] + options)
    _assert_usage_error(result, message)
    assert result.stdout == ""


# Per command: the engine call it makes, its files and its options.
_ENGINE_CALLS = {
    "check": ("library.search_bindings", ["SUPPORT.ist", "stack.scn"], []),
    "simulate": ("dynamics.simulate", ["drop.scn"], []),
    "classify": ("library.classify", ["stack.scn"], []),
    "analogy": ("library.analogy", ["solar.scn", "atom.scn"], ["--schema", "REVOLUTION"]),
    "enumerate": ("enumeration.count_models", ["CONTAINMENT.ist", "containment_grid.scn"],
                  ["--grid", "0:2,0:2", "--count-only"]),
}


@pytest.mark.parametrize(
    "error,code",
    [(SearchSpaceTooLarge, 4), (ConflictingEffects, 3), (UnsupportedShapePair, 2)],
    ids=["SearchSpaceTooLarge", "ConflictingEffects", "UnsupportedShapePair"],
)
@pytest.mark.parametrize("command", sorted(_ENGINE_CALLS))
def test_engine_errors_exit_by_class_in_every_command(runner, monkeypatch, command, error, code):
    target, files, options = _ENGINE_CALLS[command]

    def fail(*args, **kwargs):
        raise error("the engine gave up")

    monkeypatch.setattr(f"ischema.{target}", fail)
    result = _run(runner, [command, *map(_path, files), *options])
    assert result.exit_code == code, result.output
    assert _stderr(result) == "error: the engine gave up\n"
    assert result.stdout == ""


def test_theory_template_overrides_step_relation(runner, tmp_path):
    theory = tmp_path / "T.ist"
    theory.write_text(
        "theory T\n  role o : Object\n  relation motion(Object) := arg1.x > 100\n"
        "  axiom motion(o)\nend\n"
    )
    scenario = tmp_path / "s.scn"
    scenario.write_text(
        "scenario s\n  entity a : Object = Point(0, 0)\n  trace length 2\n"
        "    state 1 { a.x = 5 }\nend\n"
    )
    result = _run(runner, ["check", str(theory), str(scenario), "--bind", "o=a"])
    assert result.exit_code == 1, result.output
    assert "motion(a): violated\n    fails at t=0: motion(a)\n" in result.output


@pytest.mark.parametrize(
    "relation, axiom, message",
    [
        ("foo(Object)", "foo(o)", "T.ist:5:9: error[unknown-relation]: unknown relation 'foo'"),
        ("motion(Object, Object)", "motion(o, p)", "T.ist:5:9: error[arity]: motion takes 1 entity argument(s)"),
    ],
    ids=["unknown", "arity"],
)
def test_relation_without_template_is_sort_checked(runner, tmp_path, relation, axiom, message):
    theory = tmp_path / "T.ist"
    theory.write_text(
        f"theory T\n  role o : Object\n  role p : Object\n  relation {relation}\n  axiom {axiom}\nend\n"
    )
    scenario = tmp_path / "s.scn"
    scenario.write_text(
        "scenario s\n  entity a : Object = Point(0, 0)\n  entity b : Object = Point(1, 0)\n"
        "  trace length 1\nend\n"
    )
    result = _run(runner, ["check", str(theory), str(scenario), "--bind", "o=a", "--bind", "p=b"])
    _assert_usage_error(result, message)


def test_simulate_sort_checks_an_umph_goal(runner, tmp_path):
    scenario = tmp_path / "u.scn"
    scenario.write_text(
        "scenario u\n  entity o : Object = Point(0, 0)\n  rules\n"
        "    umph push on o (1, 0) until bogus(o)\n  horizon 3\nend\n"
    )
    result = _run(runner, ["simulate", str(scenario)])
    _assert_usage_error(result, f"{scenario}:4:33: error[unknown-relation]: unknown relation 'bogus'")
    assert result.stdout == ""


def test_template_given_a_numeric_argument_is_an_arity_error(runner, tmp_path):
    # a template takes entity arguments only; the 100 is not read as a bound
    theory = tmp_path / "T.ist"
    theory.write_text(
        "theory T\n  role a : Object\n  role b : Object\n"
        "  relation near(Object, Object) := delta(arg1, arg2) <= 1\n  axiom near(a, b, 100)\nend\n"
    )
    scenario = tmp_path / "s.scn"
    scenario.write_text(
        "scenario s\n  entity p : Object = Point(0, 0)\n  entity q : Object = Point(3, 4)\n"
        "  trace length 1\nend\n"
    )
    result = _run(runner, ["check", str(theory), str(scenario), "--bind", "a=p", "--bind", "b=q"])
    _assert_usage_error(result, "T.ist:5:9: error[arity]: near expects no numeric arguments, got 1")


def test_usage_error_exits_two(runner):
    result = _run(runner, ["analogy", _path("solar.scn"), _path("atom.scn")])
    assert result.exit_code == 2


def test_output_is_reproducible(runner):
    args = ["classify", _path("stack.scn"), "--json"]
    first = _run(runner, args)
    second = _run(runner, args)
    assert first.output == second.output
    assert first.exit_code == second.exit_code == 0


def test_text_and_json_agree_on_exit_code(runner):
    base = ["check", _path("OBJECT_INTO_CONTAINER.ist"), _path("fig1.scn"),
            "--bind", "object=a", "--bind", "container=c"]
    text = _run(runner, base)
    as_json = _run(runner, base + ["--json"])
    assert text.exit_code == as_json.exit_code == 1
    doc = json.loads(as_json.output)
    _validate_cli_doc(doc)
    assert doc["satisfied"] is False
    witnessed = [a for a in doc["axioms"] if not a["satisfied"]]
    assert all("witness" in a for a in witnessed)


def _stderr(result):
    return result.stderr if hasattr(result, "stderr") else result.output


def _assert_usage_error(result, text):
    assert result.exit_code == 2, result.output
    assert text in _stderr(result)
    assert "Traceback" not in _stderr(result) + result.output


_ENUMERATE = ["enumerate", _path("CONTAINMENT.ist"), _path("containment_grid.scn")]


@pytest.mark.parametrize(
    "args,message",
    [
        (["simulate", _path("drop.scn"), "--steps", "0"], "--steps must be at least 1"),
        (_ENUMERATE + ["--grid", "0:2,0:2", "--steps", "0"], "--steps must be at least 1"),
        (_ENUMERATE + ["--grid", "0:2,0:2,0"], "--grid step must be positive"),
        (_ENUMERATE + ["--grid", "2:0,0:2"], "--grid ranges must not run backwards"),
    ],
    ids=["simulate-steps-0", "enumerate-steps-0", "grid-step-0", "grid-reversed"],
)
def test_bad_steps_and_grids_are_usage_errors(runner, args, message):
    result = _run(runner, args)
    _assert_usage_error(result, message)
    assert "models:" not in result.output


def test_enumerate_cap_checked_before_grid_is_built(runner, monkeypatch):
    from ischema import enumeration

    def no_grid(spec):
        raise AssertionError("grid built before the cap was checked")

    monkeypatch.setattr(enumeration, "grid_points", no_grid)
    result = _run(runner, _ENUMERATE + ["--grid", "0:10000,0:0,1/10", "--cap", "10"])
    assert result.exit_code == 4
    assert "error: search space 100001^1 = 100001 exceeds the cap 10" in _stderr(result)


def test_enumerate_cap_decided_without_the_power(runner):
    # 9^5000 has 4,771 digits, too many to print; the cap is decided from bit lengths
    result = _run(runner, _ENUMERATE + ["--grid", "0:2,0:2", "--steps", "5000"])
    assert result.exit_code == 4
    assert _stderr(result) == "error: search space 9^5000 exceeds the cap 10000000\n"
    assert "Traceback" not in result.output


def test_check_unbound_search_keeps_bound_roles(runner, monkeypatch):
    built = []
    real_for_scenario = EvalContext.for_scenario.__func__
    real_hierarchy = Theory.hierarchy

    def for_scenario(cls, *args, **kwargs):
        built.append("context")
        return real_for_scenario(cls, *args, **kwargs)

    def hierarchy(theory):
        built.append("hierarchy")
        return real_hierarchy(theory)

    monkeypatch.setattr(EvalContext, "for_scenario", classmethod(for_scenario))
    monkeypatch.setattr(Theory, "hierarchy", hierarchy)
    result = _run(runner, ["check", _path("SUPPORT.ist"), _path("stack.scn"), "--bind", "lower=box"])
    assert result.exit_code == 0
    assert "theory SUPPORT with lower=box, upper=marble" in result.output
    # one hierarchy for the sort check of the file, and one context, with its hierarchy, for the search
    assert built == ["hierarchy", "context", "hierarchy"]


@pytest.mark.parametrize(
    "args",
    [
        # a search that finds no binding counts the candidates with its context
        ["check", "SUPPORT.ist", "stack.scn", "--bind", "lower=marble"],
        ["enumerate", "CONTAINMENT.ist", "containment_grid.scn", "--grid", "0:2,0:2"],
        ["enumerate", "CONTAINMENT.ist", "containment_grid.scn", "--grid", "0:2,0:2", "--count-only"],
    ],
)
def test_a_command_builds_one_context(runner, monkeypatch, args):
    built = []
    real_for_scenario = EvalContext.for_scenario.__func__
    real_hierarchy = Theory.hierarchy

    def for_scenario(cls, *args, **kwargs):
        built.append("context")
        return real_for_scenario(cls, *args, **kwargs)

    def hierarchy(theory):
        built.append("hierarchy")
        return real_hierarchy(theory)

    monkeypatch.setattr(EvalContext, "for_scenario", classmethod(for_scenario))
    monkeypatch.setattr(Theory, "hierarchy", hierarchy)
    result = _run(runner, [args[0], _path(args[1]), _path(args[2]), *args[3:]])
    assert result.exit_code == (1 if args[0] == "check" else 0), result.output
    # one hierarchy for the sort check of the file, and one context, with its hierarchy
    assert built == ["hierarchy", "context", "hierarchy"]


def test_check_unbound_search_unknown_role_has_no_candidates(runner):
    result = _run(
        runner, ["check", _path("SUPPORT.ist"), _path("stack.scn"), "--bind", "ghost=box", "--json"]
    )
    assert result.exit_code == 1
    doc = json.loads(result.output)
    _validate_cli_doc(doc)
    assert doc["searched"] == 0


def test_check_unknown_role_beside_every_real_role_has_no_candidates(runner):
    binds = ["--bind", "upper=box", "--bind", "lower=crate", "--bind", "bogus=zz"]
    result = _run(runner, ["check", _path("SUPPORT.ist"), _path("stack.scn"), *binds])
    assert result.exit_code == 1, result.output
    assert result.output == "theory SUPPORT: no satisfying binding among 0 candidates\n"
    result = _run(runner, ["check", _path("SUPPORT.ist"), _path("stack.scn"), *binds, "--json"])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    _validate_cli_doc(doc)
    assert (doc["satisfied"], doc["searched"]) == (False, 0)


def test_check_role_bound_twice_is_a_usage_error(runner):
    binds = ["--bind", "upper=box", "--bind", "lower=crate", "--bind", "upper=marble"]
    result = _run(runner, ["check", _path("SUPPORT.ist"), _path("stack.scn"), *binds])
    _assert_usage_error(result, "error: --bind names role 'upper' twice")
    assert result.stdout == ""


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_simulate_unwritable_trace_out_is_a_usage_error(runner, tmp_path, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "t.json"
    for extra in ([], ["--json"]):
        result = _run(runner, ["simulate", _path("drop.scn"), "--trace-out", str(target), *extra])
        _assert_usage_error(result, "error: ")
        assert result.stdout == ""


# --- nesting limit -------------------------------------------------------------------


def _nested_files(tmp_path, axiom):
    ist = tmp_path / "deep.ist"
    ist.write_text(f"theory DEEP\n  role x : Object\n  axiom {axiom}\nend\n", encoding="utf-8")
    scn = tmp_path / "one.scn"
    scn.write_text(
        "scenario one\n  entity p : Object = Point(0, 0)\n  trace length 3\nend\n", encoding="utf-8"
    )
    return str(ist), str(scn)


def test_nesting_at_the_limit_checks(runner, tmp_path):
    from ischema.dsl import MAX_NESTING

    ist, scn = _nested_files(tmp_path, "not " * MAX_NESTING + "true")
    result = _run(runner, ["check", ist, scn, "--bind", "x=p"])
    assert result.exit_code == 0, _stderr(result)
    assert "result: satisfied" in result.output


def test_nesting_at_the_limit_reports_a_witness(runner, tmp_path):
    from ischema.dsl import MAX_NESTING

    # the comparison's operands sit below MAX_NESTING - 1 `always` and the comparison
    ist, scn = _nested_files(tmp_path, "always " * (MAX_NESTING - 1) + "x.x > 1")
    result = _run(runner, ["check", ist, scn, "--bind", "x=p", "--json"])
    assert result.exit_code == 1, _stderr(result)
    doc = json.loads(result.output)
    assert doc["axioms"][0]["witness"] == {"time": 0, "formula": "x.x > 1"}


@pytest.mark.parametrize(
    "axiom",
    [
        "not " * 65 + "true",
        "not " * 1200 + "true",
        "always " * 64 + "x.x > 1",
        " and ".join(["true"] * 1000),
        "(" * 1000 + "true" + ")" * 1000,
        "x.x" + " + 1" * 1000 + " > 1",
        "-" * 1000 + "x.x > 1",
        "forall v : Object . " * 65 + "true",
    ],
    ids=["not-65", "not-1200", "always-64-compare", "and-chain", "parens", "sum-chain", "neg", "forall"],
)
def test_nesting_past_the_limit_exits_two(runner, tmp_path, axiom):
    ist, scn = _nested_files(tmp_path, axiom)
    result = _run(runner, ["check", ist, scn, "--bind", "x=p"])
    _assert_usage_error(result, "deep.ist:3:")
    assert "nesting deeper than 64 levels" in _stderr(result)


def test_zero_denominator_is_a_parse_error(runner, tmp_path):
    scn = tmp_path / "zero.scn"
    scn.write_text("scenario z\n  entity o : Object = Point(10, 0/0)\n  trace length 1\nend\n")
    result = _run(runner, ["classify", str(scn)])
    _assert_usage_error(result, f"{scn}:2:33: error[syntax]: zero denominator in '0/0'")


def test_role_of_unknown_sort_is_a_sort_error(runner, tmp_path):
    ist = tmp_path / "spg.ist"
    ist.write_text(_data_text("SOURCE_PATH_GOAL.ist").replace("w2 : Region", "w2 : Regio"))
    result = _run(runner, ["check", str(ist), _path("path3.scn")])
    _assert_usage_error(result, f"{ist}:7:13: error[unknown-sort]: role 'w2' has unknown sort 'Regio'")


@pytest.mark.parametrize(
    "effect, column, message",
    [
        ("ghost.x += 1", 25, "error[unbound-symbol]: unknown effect target 'ghost'"),
        ("o.z := 1", 25, "error[unknown-parameter]: o has no parameter 'z'"),
        ("o.x := k", 25, "error[unbound-symbol]: 'k' is not a declared numeric parameter"),
        ("addforce k on ghost (1, 0)", 39,
         "error[unbound-symbol]: force targets unknown entity 'ghost'"),
        ("removeforce k on ghost", 42,
         "error[unbound-symbol]: force targets unknown entity 'ghost'"),
    ],
    ids=["delta-target", "set-parameter", "expression", "addforce", "removeforce"],
)
def test_effect_diagnostics_have_a_position(runner, tmp_path, effect, column, message):
    scn = tmp_path / "ghost.scn"
    scn.write_text(
        "scenario g\n  entity o : Object = Point(0, 0)\n  rules\n"
        f"    rule r when true do {effect}\n  horizon 2\nend\n"
    )
    result = _run(runner, ["simulate", str(scn)])
    _assert_usage_error(result, f"{scn}:4:{column}: {message}")


def test_file_that_is_not_utf8_is_a_usage_error(runner, tmp_path):
    scn = tmp_path / "binary.scn"
    scn.write_bytes(b"\xffscenario")
    result = _run(runner, ["classify", str(scn)])
    _assert_usage_error(result, f"error: {scn} is not UTF-8 text: invalid start byte at byte 0")


_HUGE = "1" + "0" * 400
_FAR = f"entity a : Object = Point(0, 0)\n  entity b : Object = Point({_HUGE}, 1)"
_WIDE = f"entity a : Circle = Circle(0, 0, {_HUGE})\n  entity b : Container = Rectangle(0, 0, 1, 1)"
_APART = "entity a : Object = Point(0, 0)\n  entity b : Object = Point(3, 4)"
_MIXED = "error: a rational number combined with a distance, angle or measure is beyond the floating-point range"


@pytest.mark.parametrize(
    "axiom, entities, message",
    [
        # a lone delta against a rational is decided exactly, so it needs no float
        ("delta(p, q) > 1", _FAR, "result: satisfied"),
        ("theta(q, p) > 1", _FAR, "error: the offset of b from a is beyond the floating-point range"),
        ("measure(p) > 1", _WIDE, "error: the measure of a is beyond the floating-point range"),
        ("measure(p) > 1", _WIDE.replace(_HUGE, "1" + "0" * 154),  # pi * 10^308 is no float
         "error: the measure of a is beyond the floating-point range"),
        ("smaller(q, p)", _WIDE, "error: the measure of a is beyond the floating-point range"),
        (f"delta(p, q) = {_HUGE}", _APART, "result: violated"),
        (f"delta(p, q) * {_HUGE} > 1", _APART, _MIXED),
    ],
    ids=["delta", "theta", "measure", "measure-times-pi", "smaller-mixed-pi", "mixed-equality", "mixed-product"],
)
def test_values_beyond_float_range_are_usage_errors(runner, tmp_path, axiom, entities, message):
    ist = tmp_path / "T.ist"
    ist.write_text(f"theory T\n  role p : Entity\n  role q : Entity\n  axiom {axiom}\nend\n")
    scn = tmp_path / "s.scn"
    scn.write_text(f"scenario s\n  {entities}\n  trace length 1\nend\n")
    result = _run(runner, ["check", str(ist), str(scn), "--bind", "p=a", "--bind", "q=b"])
    if message.startswith("result: "):
        assert result.exit_code == (0 if message == "result: satisfied" else 1), _stderr(result)
        assert result.output.endswith(message + "\n")
    else:
        _assert_usage_error(result, message)


def test_delta_below_the_rational_value_of_float_sqrt2_is_satisfied(runner, tmp_path):
    """c = 6369051672525773 / 2^52 is the float nearest sqrt(2), and 2 < c^2,
    so delta((0, 0), (1, 1)) < c holds; a float delta rounds to c itself."""
    ist = tmp_path / "T.ist"
    ist.write_text("theory T\n  role x : Entity\n  role y : Entity\n"
                   "  axiom always delta(x, y) < 6369051672525773/4503599627370496\nend\n")
    scn = tmp_path / "s.scn"
    scn.write_text(f"scenario s\n  {_APART.replace('3, 4', '1, 1')}\n  trace length 1\nend\n")
    result = _run(runner, ["check", str(ist), str(scn), "--bind", "x=a", "--bind", "y=b"])
    assert result.exit_code == 0, _stderr(result)
    assert result.output.endswith("result: satisfied\n")


def test_effect_beyond_float_range_is_a_usage_error(runner, tmp_path):
    side = "1" + "0" * 154  # the measure, 10^308, is a float; twice it is not
    scn = tmp_path / "s.scn"
    scn.write_text(
        f"scenario s\n  entity c : Container = Rectangle(0, 0, {side}, {side})\n  rules\n"
        "    rule grow when true do c.x := measure(c) + measure(c)\n  horizon 2\nend\n"
    )
    result = _run(runner, ["simulate", str(scn)])
    _assert_usage_error(result, "error: the effect on c.x is beyond the floating-point range")


def test_check_counts_candidates_without_listing_them(runner, tmp_path):
    ist = tmp_path / "T.ist"
    ist.write_text("theory T\n  role a, b, c, d : Object\n  axiom inside(a, b) and inside(c, d)\nend\n")
    scn = tmp_path / "s.scn"
    points = "\n".join(f"  entity p{i:02d} : Object = Point({i}, 0)" for i in range(25))
    scn.write_text(f"scenario s\n{points}\n  trace length 1\nend\n")
    result = _run(runner, ["check", str(ist), str(scn)])
    assert result.exit_code == 1
    assert result.output == "theory T: no satisfying binding among 303600 candidates\n"
    result = _run(runner, ["check", str(ist), str(scn), "--bind", "b=p03", "--json"])
    assert json.loads(result.output)["searched"] == 24 * 23 * 22


@pytest.mark.parametrize(
    "args",
    [
        ["check", _path("CONTAINMENT.ist"), _path("fig1.scn")],
        ["simulate", _path("drop.scn")],
        ["classify", _path("fig1.scn")],
        ["analogy", _path("solar.scn"), _path("atom.scn"), "--schema", "REVOLUTION"],
        ["enumerate", _path("CONTAINMENT.ist"), _path("containment_grid.scn"), "--grid", "0:2,0:2"],
    ],
    ids=["check", "simulate", "classify", "analogy", "enumerate"],
)
def test_negative_epsilon_is_a_usage_error(runner, args):
    _assert_usage_error(_run(runner, args + ["--epsilon", "-1"]), "error: --epsilon must not be negative, got -1")
    assert _run(runner, args + ["--epsilon", "0"]).exit_code in (0, 1)


def _tolerance_files(tmp_path):
    """T: a point a quarter above a floor, in contact only within epsilon
    1/2. U: two points one apart, close only within tau 1, since `closeTo`
    with no threshold reads tau."""
    files = {
        "T.ist": "theory T\n  role a : Object\n  role f : Floor\n  axiom contact(a, f)\nend\n",
        "s.scn": "scenario s\n  entity p : Object = Point(0, 1/4)\n  entity g : Floor = Floor(0)\n"
                 "  trace length 1\nend\n",
        "U.ist": "theory U\n  role a, b : Object\n  axiom closeTo(a, b)\nend\n",
        "pair.scn": "scenario pair\n  entity p : Object = Point(0, 0)\n  entity q : Object = Point(1, 0)\n"
                    "  trace length 1\nend\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return lambda name: str(tmp_path / name)


@pytest.mark.parametrize(
    "ist, scn, bind, flag",
    [
        ("T.ist", "s.scn", ["--bind", "a=p", "--bind", "f=g"], ["--epsilon", "1/2"]),
        ("T.ist", "s.scn", [], ["--epsilon", "1/2"]),
        ("U.ist", "pair.scn", ["--bind", "a=p", "--bind", "b=q"], ["--tau", "1"]),
        ("U.ist", "pair.scn", [], ["--tau", "1"]),
    ],
    ids=["epsilon-bound", "epsilon-search", "tau-bound", "tau-search"],
)
def test_check_reads_the_tolerance_flags(runner, tmp_path, ist, scn, bind, flag):
    path = _tolerance_files(tmp_path)
    args = ["check", path(ist), path(scn), *bind]
    assert _run(runner, args).exit_code == 1
    assert _run(runner, args + flag).exit_code == 0


@pytest.mark.parametrize("count_only", [["--count-only"], []], ids=["count", "list"])
@pytest.mark.parametrize(
    "args, flag, before, after",
    [
        (["T.ist", "s.scn", "--grid", "0:1,0:1,1/4", "--bind", "f=g"], ["--epsilon", "1/2"], 5, 15),
        (["U.ist", "pair.scn", "--free", "p", "--grid", "0:2,0:0", "--bind", "a=p", "--bind", "b=q"],
         ["--tau", "1"], 1, 3),
    ],
    ids=["epsilon", "tau"],
)
def test_enumerate_reads_the_tolerance_flags(runner, tmp_path, count_only, args, flag, before, after):
    path = _tolerance_files(tmp_path)
    args = ["enumerate", path(args[0]), path(args[1]), *args[2:], *count_only]
    for extra, count in (([], before), (flag, after)):
        result = _run(runner, args + extra)
        assert result.exit_code == 0 and result.output.startswith(f"models: {count}\n"), result.output


def test_classify_and_analogy_read_the_epsilon_flag(runner, tmp_path):
    scn = _tolerance_files(tmp_path)("s.scn")
    classify = ["classify", scn, "--schemas", "SUPPORT"]
    assert _run(runner, classify).output == "no schema instantiations found\n"
    assert _run(runner, classify + ["--epsilon", "1/2"]).output == "SUPPORT: upper=p, lower=g\n"
    analogy = ["analogy", scn, scn, "--schema", "SUPPORT"]
    assert _run(runner, analogy).exit_code == 1
    assert _run(runner, analogy + ["--epsilon", "1/2"]).exit_code == 0


@pytest.mark.parametrize(
    "args",
    [
        ["check", "SUPPORT.ist", "stack.scn", "--bind", "upper=marble", "--bind", "lower=box"],
        ["check", "SUPPORT.ist", "stack.scn"],
        ["classify", "stack.scn"],
        ["analogy", "solar.scn", "atom.scn", "--schema", "REVOLUTION"],
        ["enumerate", "CONTAINMENT.ist", "containment_grid.scn", "--grid", "0:2,0:2", "--count-only"],
        ["enumerate", "CONTAINMENT.ist", "containment_grid.scn", "--grid", "0:2,0:2"],
    ],
    ids=["check-bound", "check-search", "classify", "analogy", "enumerate-count", "enumerate-list"],
)
def test_every_context_holds_the_tolerance_flags(runner, monkeypatch, args):
    """No shipped schema reads --tau (LINK names its own), so the contexts
    a command builds show that the flag reaches them."""
    tolerances = []
    real_for_scenario = EvalContext.for_scenario.__func__

    def for_scenario(cls, *args, **kwargs):
        ctx = real_for_scenario(cls, *args, **kwargs)
        tolerances.append((ctx.epsilon, ctx.tau))
        return ctx

    monkeypatch.setattr(EvalContext, "for_scenario", classmethod(for_scenario))
    files = [_path(a) if a.endswith((".ist", ".scn")) else a for a in args]
    result = _run(runner, files + ["--epsilon", "1/3", "--tau", "7/2"])
    assert result.exit_code in (0, 1), result.output
    assert tolerances and set(tolerances) == {(Fraction(1, 3), Fraction(7, 2))}


# --- fuzz: every command ends in a documented exit code -------------------------

_FUZZ_VOCABULARY = (
    "0/0", "1/0", "1.5", "1" + "0" * 400, "-", "(", ")", ",", ":", "=", "<", "<=",
    "end", "on", "until", "forall", "not", "always", "x", "o.x", "Regio", "ghost",
    "delta(a, b)", "measure(c)", "\n", "\t", "\r", "# c", "\u00e9",
    "sort Cup < Contaner\n", "role r : Object\n", "axiom true\n", "gravity(1)",
    "rule r when true do o.x += 1", "rule s when true do o.y := 1",
    "umph p on o (1, 0) until o.x > 3", "state 0 { o.x = 1 }",
)
# Per command of the CLI: (arguments, the shipped file whose mutant "{}" is).
_CONCRETE = sorted(p.name for p in DATA.glob("*.scn") if p.name != "drop.scn")
_FUZZ_CASES = {
    "check": [(["check", "{}", _path("fig1.scn")], f"{n}.ist") for n in SHIPPED_SCHEMAS]
    + [(["check", _path("SUPPORT.ist"), "{}", "--json"], n) for n in _CONCRETE],
    "simulate": [(["simulate", "{}", "--steps", "3"], "drop.scn"),
                 (["simulate", "{}", "--steps", "2", "--json"], "drop.scn")],
    "classify": [(["classify", "{}", "--json"], n) for n in _CONCRETE],
    "analogy": [(["analogy", "{}", _path("solar.scn"), "--schema", "REVOLUTION"], n)
                for n in _CONCRETE],
    "enumerate": [(["enumerate", "{}", _path("containment_grid.scn"), "--grid", "0:2,0:2",
                    "--cap", "1000"], f"{n}.ist") for n in SHIPPED_SCHEMAS]
    + [(["enumerate", "{}", _path("containment_grid.scn"), "--grid", "0:2,0:2", "--steps", "2",
         "--cap", "50"], f"{n}.ist") for n in SHIPPED_SCHEMAS]
    + [(["enumerate", _path("CONTAINMENT.ist"), "{}", "--grid", "0:2,0:2", "--cap", "1000"], n)
       for n in _CONCRETE],
}
# The lexemes of a text with the whitespace and comments between them, so
# that a mutant keeps the layout of the text around each edit.
_LAYOUT_LEXEME = re.compile(r"\s+|#[^\n]*|\d+/\d+|\d+\.\d+|\d+|\w+|:=|\+=|->|<=|>=|!=|\S")
# What `check` and `analogy` print when they exit 1.
_VERDICTS = (
    "result: violated", "no satisfying binding", '"satisfied": false',
    "no analogy", '"found": false',
)


@given(
    st.sampled_from(sorted(_FUZZ_CASES)).flatmap(lambda c: st.sampled_from(_FUZZ_CASES[c])),
    st.lists(
        st.tuples(st.sampled_from("dirs"), st.integers(0, 999), st.integers(0, 999),
                  st.sampled_from(_FUZZ_VOCABULARY)),
        min_size=1, max_size=2,
    ),
)
@settings(max_examples=1000, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_inputs_end_in_a_documented_exit_code(runner, case, edits):
    args, name = case
    with tempfile.TemporaryDirectory() as tmp:
        mutant = Path(tmp) / name
        lexemes = mutate(_LAYOUT_LEXEME.findall(_data_text(name)), edits)
        mutant.write_text("".join(lexemes), encoding="utf-8")
        result = _run(runner, [a.format(mutant) for a in args])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert "Traceback" not in result.output
    assert result.exit_code in range(5), result.output
    if result.exit_code == 1:
        assert args[0] in ("check", "analogy")
        assert any(v in result.stdout for v in _VERDICTS), result.output


# More instants than memory holds states for: every one is refused before any
# state is built.
_TOO_LONG = str(10**12)


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["classify"], f"  trace length {_TOO_LONG}\nend\n",
         "s.scn:3:16: error[syntax]: trace length must be at most 10000"),
        (["simulate"], f"  rules\n    gravity(1)\n  horizon {_TOO_LONG}\nend\n",
         "s.scn:5:11: error[syntax]: horizon must be at most 10000"),
        (["simulate", "--steps", _TOO_LONG], "  rules\n    gravity(1)\n  horizon 2\nend\n",
         f"error: --steps must be at most 10000, got {_TOO_LONG}"),
        (["enumerate", "--grid", "0:0,0:0", "--steps", _TOO_LONG], "  trace length 1\nend\n",
         f"error: --steps must be at most 10000, got {_TOO_LONG}"),
        # one grid point: the cap, 1^3000000 = 1, lets this length through
        (["enumerate", "--grid", "46:46,24:24", "--steps", "3000000", "--count-only"],
         "  trace length 1\nend\n", "error: --steps must be at most 10000, got 3000000"),
    ],
    ids=["trace-length", "horizon", "simulate-steps", "enumerate-steps", "enumerate-one-point"],
)
def test_instants_beyond_the_limit_are_refused(runner, tmp_path, command, text, message):
    scenario = tmp_path / "s.scn"
    scenario.write_text("scenario s\n  entity o : Object = Point(0, 0)\n" + text, encoding="utf-8")
    files = [_path("CONTAINMENT.ist"), str(scenario)] if command[0] == "enumerate" else [str(scenario)]
    result = _run(runner, command[:1] + files + command[1:])
    _assert_usage_error(result, message)
    assert result.stdout == ""


def test_enumerate_at_the_instant_limit(runner):
    result = _run(runner, _ENUMERATE + ["--grid", "1:1,1:1", "--steps", "10000", "--count-only"])
    assert result.exit_code == 0, result.output
    assert result.stdout == "models: 1\n"


_DIGITS = "1" * 5000  # beyond the interpreter's 4,300 digits of int-to-text conversion


@pytest.mark.parametrize(
    "name, text, where",
    [
        ("T.ist", f"theory T\n  role a : Object\n  axiom a.x < {_DIGITS}\nend\n", "3:15: error[syntax]: number of 5000 digits"),
        # the digits of 0.111...1 are 0111...1
        ("s.scn", f"scenario s\n  entity o : Object = Point(0.{_DIGITS}, 0)\n  trace length 1\nend\n",
         "2:29: error[syntax]: number of 5001 digits"),
    ],
    ids=["theory", "scenario"],
)
def test_literal_beyond_the_digit_limit_is_a_syntax_error(runner, tmp_path, name, text, where):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    files = [str(path), _path("fig1.scn")] if name.endswith(".ist") else [_path("CONTAINMENT.ist"), str(path)]
    result = _run(runner, ["check", *files])
    _assert_usage_error(result, f"{path}:{where} is too long")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command, horizon", [("simulate", 14), ("check", None), ("simulate", 17)],
                         ids=["simulate", "check", "simulate-mid-trace"])
def test_value_too_long_to_print_is_a_usage_error(runner, tmp_path, json_flag, command, horizon):
    if command == "simulate":  # state k holds 10^(2^k); state 13's 8,193 digits are the first too many
        scenario = tmp_path / "sq.scn"
        scenario.write_text(
            "scenario sq\n  entity o : Object = Point(10, 0)\n  rules\n"
            f"    rule sq when true do o.x := o.x * o.x\n  horizon {horizon}\nend\n",
            encoding="utf-8",
        )
        args = [str(scenario)]
    else:  # the literal parses, but its decimal has 14,000 digits
        theory = tmp_path / "T.ist"
        theory.write_text(f"theory T\n  role a : Object\n  axiom a.x < 1/{2 ** 14000}\nend\n", encoding="utf-8")
        args = [str(theory), _path("containment_grid.scn"), "--bind", "a=o"]
    result = _run(runner, [command, *args, *json_flag])
    limit = sys.get_int_max_str_digits()
    _assert_usage_error(result, f"error: a value of more than {limit} digits is too long to print")
    assert result.stdout == ""
