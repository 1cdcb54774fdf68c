import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from ischema.cli import main
from ischema.library import _data_text

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
    ],
    ids=["cap-0", "cap-negative", "free-floor"],
)
def test_bad_enumerate_options_are_usage_errors(runner, args, message):
    theory, scenario, *options = args
    result = _run(runner, ["enumerate", _path(theory), _path(scenario), "--grid", "0:2,0:2"] + options)
    _assert_usage_error(result, message)
    assert "models:" not in result.output


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


def test_check_unbound_search_keeps_bound_roles(runner):
    result = _run(runner, ["check", _path("SUPPORT.ist"), _path("stack.scn"), "--bind", "lower=box"])
    assert result.exit_code == 0
    assert "theory SUPPORT with lower=box, upper=marble" in result.output


def test_check_unbound_search_unknown_role_has_no_candidates(runner):
    result = _run(
        runner, ["check", _path("SUPPORT.ist"), _path("stack.scn"), "--bind", "ghost=box", "--json"]
    )
    assert result.exit_code == 1
    doc = json.loads(result.output)
    _validate_cli_doc(doc)
    assert doc["searched"] == 0


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
