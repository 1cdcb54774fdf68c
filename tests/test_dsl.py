import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mutate, random_trace_scenario

from ischema.dsl import (
    MAX_NESTING,
    DslError,
    formula_to_text,
    json_text,
    nesting_depth,
    parse_formula,
    parse_scenario,
    parse_theory,
    parse_trace_json,
    rational_to_text,
    serialize_scenario,
    serialize_theory,
    serialize_trace,
    sort_check,
    text_to_rational,
    tokenize,
    trace_to_json,
)
from ischema.dynamics import simulate
from ischema.errors import UnknownRelation
from ischema.geometry import BUILTIN_RELATIONS, EvalContext
from ischema.library import SHIPPED_SCHEMAS, schema_theory, _data_text
from ischema.logic import Always, And, Eventually, Implies, Not, Until, eval_formula
from ischema.model import ForceFluent

SHIPPED_SCENARIOS = (
    "fig1", "drop", "ball_cup", "path3", "stack", "solar", "atom", "containment_grid",
)


# --- rationals ----------------------------------------------------------------


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(4), "4"),
        (Fraction(-7), "-7"),
        (Fraction(9, 2), "4.5"),
        (Fraction(1, 4), "0.25"),
        (Fraction(-3, 25), "-0.12"),
        (Fraction(1, 3), "1/3"),
        (Fraction(-5, 6), "-5/6"),
    ],
)
def test_rational_rendering(value, text):
    assert rational_to_text(value) == text
    assert text_to_rational(text) == value


@given(st.fractions(max_denominator=10**6))
@settings(max_examples=200, deadline=None)
def test_rational_text_round_trip(q):
    assert text_to_rational(rational_to_text(q)) == q


@given(st.fractions(max_denominator=10**6))
@settings(max_examples=200, deadline=None)
def test_rational_literals_parse_to_their_value(q):
    text = f"scenario s\n  entity o : Object = Point({rational_to_text(q)}, 0)\n  trace length 1\nend"
    assert parse_scenario(text).entities[0].initial("x") == q


# --- lexing -------------------------------------------------------------------

# The oracle of the lexer: one `re.match` per lexeme, whitespace and comments
# included, counting lines and columns as it goes.
_ORACLE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<rational>\d+/\d+|\d+\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|\+=|->|<=|>=|!=|[()<>={},.:+\-*])
    """,
    re.VERBOSE,
)


def _oracle_tokens(text: str):
    """[(kind, text, line, column)] ending with eof, and the diagnostic of
    the first unexpected character (None when there is none)."""
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _ORACLE_TOKEN_RE.match(text, pos)
        if m is None:
            return tokens, f"t:{line}:{col}: error[syntax]: unexpected character {text[pos]!r}"
        if m.lastgroup not in ("ws", "comment"):
            tokens.append((m.lastgroup, m.group(), line, col))
        newlines = m.group().count("\n")
        if newlines:
            line += newlines
            col = len(m.group()) - m.group().rfind("\n")
        else:
            col += len(m.group())
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens, None


_LEX_FRAGMENTS = (
    " ", "  ", "\t", "\n", "\r\n", "\r", "# a comment", "# caf\u00e9 \u00df", "#", "x",
    "o_2", "Point", "theory", "0", "12", "3/4", "1.50", "0/0", "7.", ".5", "/", ":=", "+=",
    "->", "<=", ">=", "!=", ":", "+", "-", "*", "(", ")", "{", "}", "<", ">", "=", ",", ".",
    "\u0663", "@",
)
_UNEXPECTED = ("@", "$", "\u00e9", "\x0b", "\u2028")


@given(
    st.lists(st.sampled_from(_LEX_FRAGMENTS), max_size=40),
    st.sampled_from(["", "\n", "# a comment at the end", "\r\n# caf\u00e9"]),
    st.sampled_from(_UNEXPECTED),
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_lexer_agrees_with_the_one_match_per_lexeme_oracle(fragments, ending, unexpected):
    body = "".join(fragments) + ending
    for text in (body, unexpected + body, body + unexpected):
        expected, diagnostic = _oracle_tokens(text)
        try:
            tokens = tokenize(text, "t")
        except DslError as err:
            assert [str(d) for d in err.diagnostics] == [diagnostic]
            continue
        assert diagnostic is None
        assert [(t.kind, t.text, t.span.line, t.span.column) for t in tokens] == expected
        for t in tokens:
            before = text[: t.offset]
            line_start = before.rfind("\n") + 1
            assert (t.span.file, t.span.line, t.span.column) == (
                "t", before.count("\n") + 1, len(before) - line_start + 1
            )
        assert tokens[-1].offset == len(text)


# --- parsing ------------------------------------------------------------------


def test_parse_figure_scenario():
    sc = parse_scenario(_data_text("fig1.scn"), "fig1.scn")
    assert [e.id for e in sc.entities] == ["a", "b", "c"]
    assert sc.trace.length == 1
    state = sc.trace.states[0]
    assert state.value("a", "x") == 4
    assert state.value("b", "y") == Fraction("4.5")
    assert state.value("c", "r") == 3


def test_trace_block_textual_inertia():
    sc = parse_scenario(
        """scenario s
          entity o : Object = Point(0, 7)
          trace length 3
            state 1 { o.x = 2 }
        end"""
    )
    xs = [s.value("o", "x") for s in sc.trace.states]
    ys = [s.value("o", "y") for s in sc.trace.states]
    assert xs == [0, 2, 2]
    assert ys == [7, 7, 7]


def test_trace_block_without_overrides_is_constant():
    sc = parse_scenario(
        """scenario s
          entity o : Object = Point(1, 2)
          trace length 4
        end"""
    )
    assert all(s.value("o", "x") == 1 for s in sc.trace.states)


def test_state_index_out_of_bounds():
    with pytest.raises(DslError) as err:
        parse_scenario(
            """scenario s
              entity o : Object = Point(0, 0)
              trace length 3
                state 5 { o.x = 1 }
            end"""
        )
    diag = err.value.diagnostics[0]
    assert "state index 5" in diag.message
    assert diag.span.line == 4


def test_parse_error_has_position():
    with pytest.raises(DslError) as err:
        parse_theory("theory T axiom inside(a b) end", "bad.ist")
    diag = err.value.diagnostics[0]
    assert diag.severity == "error"
    assert diag.span.file == "bad.ist"
    assert diag.span.line == 1
    assert diag.span.column > 0


_ENTITY = "scenario s\n  entity o : Object = Point(0, 0)\n"
_RULES = _ENTITY + "  rules\n    "

# One malformed input for each message the lexer and the parser can give,
# with each description that `expected ...` names, and the exact diagnostic.
# The last rows parse and fail the sort check.
GOLDEN_DIAGNOSTICS = [
    (parse_theory, "theory T\n  axiom o.x @ 1\nend",
     "g:2:13: error[syntax]: unexpected character '@'"),
    # a tab and a "\r" are one column each; only "\n" ends a line
    (parse_theory, "theory T\n\taxiom o.x @ 1\nend",
     "g:2:12: error[syntax]: unexpected character '@'"),
    (parse_theory, "theory T\r\n  axiom o.x @ 1\r\nend",
     "g:2:13: error[syntax]: unexpected character '@'"),
    (parse_theory, "theory T\r  axiom o.x @ 1\nend",
     "g:1:22: error[syntax]: unexpected character '@'"),
    (parse_theory, "theory T\n  axiom o.x < \u00e9\nend",
     "g:2:15: error[syntax]: unexpected character '\u00e9'"),
    (parse_theory, "theory T\n  role a Object\nend",
     "g:2:10: error[syntax]: expected ':'"),
    (parse_scenario, _ENTITY + "  trace length 1\n",
     "g:4:1: error[syntax]: expected keyword 'end'"),
    (parse_scenario, _RULES + "umph push at o (1, 0)\n  horizon 1\nend",
     "g:4:15: error[syntax]: expected keyword 'on'"),
    (parse_theory, "theory 1 end",
     "g:1:8: error[syntax]: expected theory name"),
    (parse_theory, "theory T\n  sort 1 < Object\nend",
     "g:2:8: error[syntax]: expected sort name"),
    (parse_theory, "theory T\n  sort A < 1\nend",
     "g:2:12: error[syntax]: expected parent sort"),
    (parse_theory, "theory T\n  role 1 : Object\nend",
     "g:2:8: error[syntax]: expected role name"),
    (parse_theory, "theory T\n  relation 1(Object)\nend",
     "g:2:12: error[syntax]: expected relation name"),
    (parse_theory, "theory T\n  param 1 = 2\nend",
     "g:2:9: error[syntax]: expected parameter name"),
    (parse_formula, "forall 1 : Object . true",
     "g:1:8: error[syntax]: expected quantified variable"),
    (parse_formula, "delta(a, 1) < 2",
     "g:1:10: error[syntax]: expected entity"),
    (parse_formula, "a.1 < 2",
     "g:1:3: error[syntax]: expected parameter name"),
    (parse_scenario, "scenario 1 end",
     "g:1:10: error[syntax]: expected scenario name"),
    (parse_scenario, "scenario s\n  entity 1 : Object = Point(0, 0)\nend",
     "g:2:10: error[syntax]: expected entity id"),
    (parse_scenario, "scenario s\n  entity o : Object = 1(0, 0)\nend",
     "g:2:23: error[syntax]: expected shape name"),
    (parse_scenario, "scenario s\n  entity o : Object = Point(0, 0) with 1 = 2\nend",
     "g:2:40: error[syntax]: expected attribute name"),
    (parse_scenario, _RULES + "umph 1 on o (1, 0)\n  horizon 1\nend",
     "g:4:10: error[syntax]: expected force label"),
    (parse_scenario, _RULES + "rule r forall 1 : Object when true do o.x += 1\n  horizon 1\nend",
     "g:4:19: error[syntax]: expected variable"),
    (parse_scenario, _RULES + "rule 1 when true do o.x += 1\n  horizon 1\nend",
     "g:4:10: error[syntax]: expected rule name"),
    (parse_scenario, _RULES + "rule r when true do 1.x += 1\n  horizon 1\nend",
     "g:4:25: error[syntax]: expected entity id or variable"),
    (parse_theory, "theory axiom end",
     "g:1:8: error[syntax]: 'axiom' is a reserved word"),
    (parse_theory, "theory T\n  role a : Object\n  axiom closeTo(a, true)\nend",
     "g:3:20: error[syntax]: 'true' is a reserved word"),
    (parse_scenario, _ENTITY + "  trace length x\nend",
     "g:3:16: error[syntax]: expected a natural number"),
    (parse_scenario, "scenario s\n  entity o : Object = Point(0, x)\nend",
     "g:2:32: error[syntax]: expected a rational number"),
    (parse_scenario, "scenario s\n  entity o : Object = Point(0, 0/0)\nend",
     "g:2:32: error[syntax]: zero denominator in '0/0'"),
    (parse_formula, "o.x < 1/0",
     "g:1:7: error[syntax]: zero denominator in '1/0'"),
    (parse_formula, "not " * 65 + "true",
     "g:1:257: error[syntax]: nesting deeper than 64 levels"),
    (parse_formula, "o.x + 1",
     "g:1:8: error[syntax]: expected a comparison operator"),
    (parse_formula, "o.x < )",
     "g:1:7: error[syntax]: expected a numeric expression"),
    (parse_theory, "theory T\n  sorts A < Object\nend",
     "g:2:3: error[syntax]: expected sort, role, relation, param, axiom, or end"),
    (parse_theory, "theory T\nend\nend",
     "g:3:1: error[syntax]: unexpected trailing input"),
    (parse_scenario, _ENTITY + "end",
     "g:3:1: error[syntax]: expected a trace block or a rules block"),
    (parse_scenario, "scenario s\n  entity o : Object = Blob(0, 0)\nend",
     "g:2:23: error[syntax]: unknown shape 'Blob'"),
    (parse_scenario, _ENTITY + "  trace length 0\nend",
     "g:3:16: error[syntax]: trace length must be at least 1"),
    (parse_scenario, _ENTITY + "  trace length 2\n    state 2 { o.x = 1 }\nend",
     "g:4:11: error[syntax]: state index 2 outside trace of length 2"),
    (parse_scenario, _ENTITY + "  trace length 1\n    state 0 { q.x = 1 }\nend",
     "g:4:15: error[syntax]: unknown entity 'q'"),
    (parse_scenario, _ENTITY + "  trace length 1\n    state 0 { o.r = 1 }\nend",
     "g:4:17: error[syntax]: o has no parameter 'r'"),
    (parse_scenario, _RULES + "gravity(0)\n  horizon 1\nend",
     "g:4:13: error[syntax]: gravity step must be positive, got 0"),
    (parse_scenario, _RULES + "rule r when true do o.x = 1\n  horizon 1\nend",
     "g:4:29: error[syntax]: expected := or += in effect"),
    (parse_scenario, "scenario s\n  entity o : Thing = Point(0, 0)\nend",
     "g:2:10: error[syntax]: unknown sort 'Thing' for entity 'o'"),
    (parse_scenario, "scenario s\n  entity o : Floor = Point(0, 0)\nend",
     "g:2:10: error[syntax]: shape Point is not admissible at sort 'Floor'"),
    (parse_scenario, "scenario s\n  entity o : Object = Point(0)\nend",
     "g:2:10: error[syntax]: Point takes 2 parameters ('x', 'y'), got 1"),
    (parse_scenario, "scenario s\n  entity o : Object = Point(0, 0) with x = 1\nend",
     "g:2:10: error[syntax]: attribute 'x' collides with a shape parameter"),
    (parse_scenario, "scenario s\n  entity c : Container = Circle(0, 0, 0)\nend",
     "g:2:10: error[syntax]: c.r = 0 must be positive"),
    (parse_scenario, _ENTITY + "  entity o : Object = Point(1, 1)\n  trace length 1\nend",
     "g:1:10: error[syntax]: entity 'o' declared twice"),
    (parse_scenario, _RULES + "gravity(1)\n  horizon 0\nend",
     "g:1:10: error[syntax]: horizon must be at least 1"),
    (parse_theory, "theory T\n  axiom forall x : Blob . true\nend",
     "g:2:20: error[unknown-sort]: unknown sort 'Blob'"),
    (parse_theory, "theory T\n  axiom not exists y : Blob . true\nend",
     "g:2:24: error[unknown-sort]: unknown sort 'Blob'"),
    (parse_scenario, _RULES + "rule r forall x : Blob when true do x.x += 1\n  horizon 1\nend",
     "g:4:23: error[unknown-sort]: unknown sort 'Blob'"),
    (parse_theory, "theory T\n  role a : Object\n  role w2 : Regio\nend",
     "g:3:13: error[unknown-sort]: role 'w2' has unknown sort 'Regio'"),
    (parse_theory, "theory T\n  relation near(Object, Blob)\nend",
     "g:2:25: error[unknown-sort]: unknown sort 'Blob' in relation near"),
    (parse_theory, "theory T\n  role a : Object\n  param k = 1\n  relation near(Object, Region) := delta(arg1, zz) <= k\nend",
     "g:4:36: error[unbound-symbol]: unknown entity or role 'zz'"),
    (parse_theory, "theory T\n  role a : Object\n  param k = 1\n  relation near(Object, Region) := delta(arg1, arg2) <= bound\nend",
     "g:4:36: error[unbound-symbol]: 'bound' is not a declared numeric parameter"),
    # a role, variable or entity is no number
    (parse_theory, "theory T\n  role a : Object\n  axiom a > 0\nend",
     "g:3:9: error[unbound-symbol]: 'a' is not a declared numeric parameter"),
    (parse_scenario, _RULES + "rule r when true do o.x := o\n  horizon 1\nend",
     "g:4:25: error[unbound-symbol]: 'o' is not a declared numeric parameter"),
    # a template takes entity arguments only
    (parse_theory, "theory T\n  role a : Object\n  relation near(Object, Object) := delta(arg1, arg2) <= 1\n"
     "  axiom near(a, a, 100)\nend",
     "g:4:9: error[arity]: near expects no numeric arguments, got 1"),
    (parse_theory, "theory T\n  sort Cup < Contaner\nend",
     "g:2:14: error[unknown-sort]: unknown sort 'Contaner'"),
    (parse_theory, "theory T\n  sort Mug < Cup\n  sort Cup < Contaner\nend",
     "g:3:14: error[unknown-sort]: unknown sort 'Contaner'"),
    (parse_theory, "theory T\n  sort Object < Entity\nend",
     "g:2:8: error[unknown-sort]: sort 'Object' is already declared"),
    (parse_theory, "theory T\n  sort A < B\n  sort B < A\nend",
     "g:2:8: error[unknown-sort]: sort hierarchy has a cycle through 'A'"),
]


@pytest.mark.parametrize("parse, text, expected", GOLDEN_DIAGNOSTICS)
def test_golden_diagnostics(parse, text, expected):
    try:
        diagnostics = sort_check(parse(text, "g"))
    except DslError as err:
        diagnostics = err.diagnostics
    assert [str(d) for d in diagnostics] == [expected]


def test_nesting_depth_counts_formula_and_expression_levels():
    assert nesting_depth(parse_formula("true")) == 0
    assert nesting_depth(parse_formula("not not true")) == 2
    # Compare > Add > ParamRef; the atom's entity arguments are no level
    assert nesting_depth(parse_formula("a.x + 1 < 2")) == 2
    assert nesting_depth(parse_formula("always inside(a, b)")) == 1
    assert nesting_depth(parse_formula("true and true and true")) == 2


def test_nesting_limit():
    at_limit = "not " * MAX_NESTING + "true"
    phi = parse_formula(at_limit)
    assert nesting_depth(phi) == MAX_NESTING
    assert formula_to_text(phi) == at_limit
    theory = parse_theory(f"theory T\n  axiom {at_limit}\nend\n", "t.ist")
    assert sort_check(theory) == []
    for text, column in (("not " * (MAX_NESTING + 1) + "true", 4 * MAX_NESTING + 1),
                         (" and ".join(["true"] * (MAX_NESTING + 2)), 1)):
        with pytest.raises(DslError) as err:
            parse_formula(text, "deep")
        diag = err.value.diagnostics[0]
        assert f"nesting deeper than {MAX_NESTING} levels" in diag.message
        assert (diag.span.file, diag.span.line, diag.span.column) == ("deep", 1, column)


def test_reserved_words_rejected_as_names():
    with pytest.raises(DslError):
        parse_theory("theory axiom end")
    with pytest.raises(DslError):
        parse_scenario("scenario s entity not : Object = Point(0, 0) trace length 1 end")
    with pytest.raises(DslError, match="'not' is a reserved word"):
        parse_formula("closeTo(a, not)")


def test_negative_extent_diagnostic():
    with pytest.raises(DslError) as err:
        parse_scenario(
            "scenario s entity c : Container = Circle(0, 0, -1) trace length 1 end"
        )
    assert "positive" in err.value.diagnostics[0].message


def test_formula_precedence():
    phi = parse_formula("not final -> always inside(a, b) and eventually motion(a)")
    assert isinstance(phi, Implies)
    assert isinstance(phi.left, Not)
    assert isinstance(phi.right, And)
    assert isinstance(phi.right.left, Always)
    assert isinstance(phi.right.right, Eventually)
    chain = parse_formula("motion(a) until motion(b) until final")
    assert isinstance(chain, Until)
    assert isinstance(chain.right, Until)


def test_parenthesized_comparison_and_formula():
    phi = parse_formula("(a.x + 1) < 2")
    from ischema.logic import Compare

    assert isinstance(phi, Compare)
    phi2 = parse_formula("(a.x < 2) and true")
    assert isinstance(phi2, And)


def test_umph_and_generic_rules_parse():
    sc = parse_scenario(
        """scenario s
          entity o : Object = Point(0, 0)
          entity goal : Region = Point(3, 0)
          rules
            umph push on o (1, 0) until closeTo(o, goal, 0)
            rule spin forall x : Object when true do x.y += 1
          horizon 4
        end"""
    )
    assert [r.name for r in sc.rules] == ["umph:push", "spin"]
    assert sc.rules[0].until is not None
    assert sc.rules[1].scope == ("x", "Object")


# --- sort checking -----------------------------------------------------------------


def test_sort_check_rejects_misapplication():
    theory = parse_theory(
        """theory BAD
          role object : Object
          role container : Container
          relation inside(Object, Container)
          axiom inside(container, object)
        end""",
        "bad.ist",
    )
    diags = sort_check(theory)
    assert len(diags) == 2
    assert all(d.code == "sort-mismatch" for d in diags)
    assert all(d.span.file == "bad.ist" and d.span.line == 5 for d in diags)


def test_sort_check_accepts_subsort_application():
    theory = parse_theory(
        """theory OK
          role o : Object
          role circ : Circle
          relation inside(Object, Container)
          axiom inside(o, circ)
        end"""
    )
    assert sort_check(theory) == []


def test_sort_check_unbound_symbol():
    theory = parse_theory(
        """theory T
          role o : Object
          axiom eventually inside(o, c)
        end"""
    )
    diags = sort_check(theory)
    assert any(d.code == "unbound-symbol" for d in diags)


def test_sort_check_unknown_numeric_param():
    theory = parse_theory(
        """theory T
          role a : Entity
          role b : Entity
          axiom delta(a, b) <= tau
        end"""
    )
    assert any(d.code == "unbound-symbol" for d in sort_check(theory))


@pytest.mark.parametrize("name", list(BUILTIN_RELATIONS))
def test_builtin_arity_diagnostic_matches_run_time_error(name):
    # three entities is the wrong arity for every built-in relation
    roles = "".join(f"  role {r} : Object\n" for r in "abc")
    theory = parse_theory(f"theory T\n{roles}  axiom {name}(a, b, c)\nend")
    scenario = parse_scenario(
        "scenario s\n  entity a : Object = Point(0, 0)\n  entity b : Object = Point(1, 0)\n"
        "  entity c : Object = Point(2, 0)\n  trace length 2\nend"
    )
    (diag,) = sort_check(theory)
    assert diag.code == "arity"
    ctx = EvalContext.for_scenario(scenario, theory)
    with pytest.raises(UnknownRelation) as info:
        eval_formula(theory.axioms[0], scenario.trace, 0, {}, ctx)
    assert str(info.value) == diag.message


def test_template_arity_diagnostic_matches_run_time_error():
    theory = parse_theory(
        "theory T\n  role a : Object\n  relation near(Object, Object) := delta(arg1, arg2) <= 1\n"
        "  axiom near(a, a, 1, 2)\nend"
    )
    scenario = parse_scenario("scenario s\n  entity a : Object = Point(0, 0)\n  trace length 1\nend")
    (diag,) = sort_check(theory)
    assert diag.code == "arity"
    ctx = EvalContext.for_scenario(scenario, theory)
    with pytest.raises(UnknownRelation) as info:
        eval_formula(theory.axioms[0], scenario.trace, 0, {"a": "a"}, ctx)
    assert str(info.value) == diag.message == "near expects no numeric arguments, got 2"


def test_sort_check_reads_a_name_as_evaluation_does():
    # a role or bound variable first, then a numeric parameter, then an entity
    scenario = parse_scenario(
        "scenario s\n  entity a : Object = Point(0, 0)\n  entity b : Object = Point(1, 0)\n"
        "  entity k : Object = Point(2, 0)\n  trace length 2\nend"
    )

    def theory(roles):
        declared = "".join(f"  role {r} : Object\n" for r in roles)
        return parse_theory(f"theory T\n{declared}  param k = 3/2\n  axiom closeTo(a, b, k)\nend")

    parameter = theory("ab")
    ctx = EvalContext.for_scenario(scenario, parameter)
    assert sort_check(parameter, ctx) == []
    assert eval_formula(parameter.axioms[0], scenario.trace, 0, {"a": "a", "b": "b"}, ctx)
    role = theory("abk")
    ctx = EvalContext.for_scenario(scenario, role)
    (diag,) = sort_check(role, ctx)
    assert diag.code == "arity"
    with pytest.raises(UnknownRelation) as info:
        eval_formula(role.axioms[0], scenario.trace, 0, {"a": "a", "b": "b", "k": "k"}, ctx)
    assert str(info.value) == diag.message


def test_sort_check_scenario_rules():
    sc = parse_scenario(
        """scenario s
          entity o : Object = Point(0, 0)
          rules
            rule bad when true do o.r := 1
          horizon 2
        end"""
    )
    diags = sort_check(sc)
    assert any(d.code == "unknown-parameter" for d in diags)


def test_sort_check_rejects_stray_rule_targets():
    sc = parse_scenario(
        """scenario s
          entity o : Object = Point(0, 0)
          rules
            umph push on ghost (1, 0)
            rule windy when true do addforce gust on phantom (0, 1)
          horizon 2
        end"""
    )
    diags = sort_check(sc)
    flagged = {d.message for d in diags if d.code == "unbound-symbol"}
    assert any("ghost" in m for m in flagged)
    assert any("phantom" in m for m in flagged)


def test_umph_target_diagnostics_carry_a_position():
    sc = parse_scenario(_RULES + "umph push on ghost (1, 0)\n  horizon 1\nend", "s")
    assert {str(d) for d in sort_check(sc)} == {
        "s:4:18: error[unbound-symbol]: unknown effect target 'ghost'"
    }


# Mutations of the shipped texts: each edit deletes, inserts, replaces or swaps
# lexemes. The vocabulary adds zero denominators and an unknown sort name.
_LEXEME = re.compile(r"\d+/\d+|\d+\.\d+|\d+|\w+|:=|\+=|->|<=|>=|!=|\S")
_MUTATION_VOCABULARY = (
    "0/0", "1/0", "Regio", "ghost", "end", "(", ")", ",", "-", ":", "=", "<",
    "on", "passive", "until", "forall", "x", "1", "o.x",
)
_SHIPPED_TEXTS = [(parse_theory, _data_text(n + ".ist")) for n in SHIPPED_SCHEMAS] + [
    (parse_scenario, _data_text(n + ".scn")) for n in SHIPPED_SCENARIOS
]


@given(
    st.sampled_from(_SHIPPED_TEXTS),
    st.lists(
        st.tuples(st.sampled_from("dirs"), st.integers(0, 499), st.integers(0, 499),
                  st.sampled_from(_MUTATION_VOCABULARY)),
        min_size=1, max_size=3,
    ),
)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_mutated_texts_parse_or_give_diagnostics(shipped, edits):
    parse, text = shipped
    lexemes = mutate(_LEXEME.findall(re.sub(r"#[^\n]*", "", text)), edits)
    try:
        parsed = parse(" ".join(lexemes), "m")
    except DslError:
        return
    sort_check(parsed)


# --- round trips --------------------------------------------------------------------


@pytest.mark.parametrize("name", SHIPPED_SCHEMAS)
def test_shipped_theories_round_trip(name):
    text = _data_text(name + ".ist")
    theory = parse_theory(text, name)
    assert sort_check(theory) == []
    assert parse_theory(serialize_theory(theory)) == theory


def test_a_theory_with_sort_declarations_round_trips():
    theory = parse_theory(
        "theory T\n  sort Cup < Container\n  sort Mug < Cup\n  role m : Mug\n  role o : Object\n"
        "  axiom always inside(o, m)\nend\n"
    )
    text = serialize_theory(theory)
    assert "  sort Cup < Container\n  sort Mug < Cup\n" in text
    assert parse_theory(text) == theory


@pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
def test_shipped_scenarios_round_trip(name):
    text = _data_text(name + ".scn")
    sc = parse_scenario(text, name)
    assert sort_check(sc) == []
    assert parse_scenario(serialize_scenario(sc)) == sc


def test_shipped_source_path_goal_axiom_count():
    assert len(schema_theory("SOURCE_PATH_GOAL").axioms) == 2
    assert len(schema_theory("REVOLUTION").axioms) == 2


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_trace_json_round_trip_byte_identical(seed):
    rng = random.Random(seed)
    sc = random_trace_scenario(rng)
    payload = serialize_trace(sc.trace, sc.entities)
    entities, trace = parse_trace_json(payload)
    assert entities == sc.entities
    assert trace == sc.trace
    assert serialize_trace(trace, entities) == payload


def test_trace_json_document_is_what_serialize_trace_prints(fig1_scenario):
    doc = trace_to_json(fig1_scenario.trace, fig1_scenario.entities)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == serialize_trace(
        fig1_scenario.trace, fig1_scenario.entities
    )


def _plain_trace_document(trace, entities) -> dict:
    """The trace document as plain dicts and lists, one text per value."""
    def force(f):
        return {"label": f.label, "target": f.target, "dx": rational_to_text(f.dx),
                "dy": rational_to_text(f.dy), "mode": f.mode}

    return {
        "length": trace.length,
        "entities": [{"id": e.id, "sort": e.sort, "shape": e.shape.value,
                      "params": [[n, rational_to_text(v)] for n, v in e.params]} for e in entities],
        "states": [{"t": s.time,
                    "values": {f"{eid}.{p}": rational_to_text(v) for (eid, p), v in s.values.items()},
                    "forces": [force(f) for f in sorted(s.forces, key=lambda f: (f.label, f.target))]}
                   for s in trace.states],
    }


_body_offset = st.fractions(min_value=0, max_value=2, max_denominator=4)
_body_size = st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=4)


@st.composite
def _falling_scenario(draw):
    """A generative scenario of no bodies, or of 10 to 13 (so "b10.x" sorts
    before "b2.x") above a floor, under gravity and sideways pushes. With
    bodies, b0.x is rewritten each step with an equal new Fraction, and a
    force on b2 is added while b1, pushed 1/2 a step, is 1 to 2 from where
    it started, and removed after that."""
    n = draw(st.sampled_from([0, 10, 11, 12, 13]))
    lines = ["scenario falling"]
    if n:
        lines.append("  entity f : Floor = Floor(0)")
    starts = []
    for k in range(n):
        x, y = 3 * k + draw(_body_offset), 1 + draw(_body_offset) * 3
        starts.append(x)
        shape = draw(st.sampled_from(["Point", "Circle", "Rectangle"]))
        if shape == "Point":
            lines.append(f"  entity b{k} : Object = Point({x}, {y})")
        elif shape == "Circle":
            lines.append(f"  entity b{k} : Container = Circle({x}, {y + 2}, {draw(_body_size)})")
        else:
            lines.append(f"  entity b{k} : Container = Rectangle({x}, {y + 2}, {draw(_body_size)}, {draw(_body_size)})")
    lines += ["  rules", "    gravity(1)"]
    if n:
        lines.append("    umph shove on b1 (1/2, 0)")
        for k in draw(st.lists(st.integers(3, n - 1), max_size=3, unique=True)):
            lines.append(f"    umph push{k} on b{k} ({draw(st.sampled_from(['1', '1/3']))}, 0)")
        lines += [
            "    rule same when true do b0.x := b0.x + 0",
            f"    rule gusty when b1.x >= {starts[1] + 1} and b1.x < {starts[1] + 2}"
            " do addforce gust on b2 (0, 1/2)",
            f"    rule calm when b1.x >= {starts[1] + 2} do removeforce gust on b2",
        ]
    lines += [f"  horizon {draw(st.integers(1, 8))}", "end"]
    return "\n".join(lines) + "\n"


@given(_falling_scenario())
@settings(max_examples=60, deadline=None)
def test_serialize_trace_is_json_dumps_of_a_simulated_trace(text):
    sc = parse_scenario(text)
    trace = simulate(sc)
    expected = json.dumps(_plain_trace_document(trace, sc.entities), sort_keys=True, indent=2) + "\n"
    assert serialize_trace(trace, sc.entities) == expected
    assert json.dumps(trace_to_json(trace, sc.entities), sort_keys=True, indent=2) + "\n" == expected
    if sc.entities and trace.length > 1:  # the scenario does what its docstring says
        b0x = [s.values["b0", "x"] for s in trace.states]
        assert b0x[0] == b0x[1] and b0x[0] is not b0x[1]
    if sc.entities and trace.length > 5:
        assert [bool(s.forces) for s in trace.states[2:6]] == [True, True, False, False]


def test_a_trace_with_forces_round_trips_through_json():
    sc = parse_scenario(
        "scenario pushed\n  entity o : Object = Point(0, 0)\n  rules\n"
        "    rule gust when o.x < 2 do addforce wind on o (1/2, -1/3) passive\n"
        "    umph shove on o (1, 0)\n  horizon 3\nend\n"
    )
    trace = simulate(sc)
    assert ForceFluent("wind", "o", Fraction(1, 2), Fraction(-1, 3), "passive") in trace.states[1].forces
    payload = serialize_trace(trace, sc.entities)
    entities, parsed = parse_trace_json(payload)
    assert (entities, parsed) == (sc.entities, trace)
    assert serialize_trace(parsed, entities) == payload


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@given(_JSON_VALUES, st.integers(1, 3))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_json_text_is_json_dumps(value, repeats):
    # a dict or list that occurs more than once, as one object, is written once
    doc = {"one": value, "many": [value] * repeats, "nested": [{"v": value}]}
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_json_text_writes_a_changed_trace_document_as_json_dumps(fig1_scenario):
    doc = trace_to_json(fig1_scenario.trace, fig1_scenario.entities)
    assert json_text(doc) + "\n" == serialize_trace(fig1_scenario.trace, fig1_scenario.entities)
    doc["length"] = True
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)
    doc["model"] = 3
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)
    del doc["model"]
    doc["states"] = []
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)
    del doc["states"]
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_trace_json_figure_values(fig1_scenario):
    doc = json.loads(serialize_trace(fig1_scenario.trace, fig1_scenario.entities))
    assert doc["length"] == 1
    assert doc["states"][0]["values"]["a.x"] == "4"
    assert doc["states"][0]["values"]["c.r"] == "3"
    assert doc["states"][0]["values"]["b.y"] == "4.5"
    assert doc["states"][0]["forces"] == []


def test_trace_json_validates_against_schema(fig1_scenario):
    import jsonschema

    schema = json.loads(_data_text("trace.schema.json"))
    doc = json.loads(serialize_trace(fig1_scenario.trace, fig1_scenario.entities))
    jsonschema.validate(doc, schema)


def test_umphs_and_generic_rules_round_trip():
    sc = parse_scenario(
        """scenario push
          entity o : Object = Point(0, 0)
          entity goal : Region = Point(-3, 1)
          rules
            umph shove on o (-1/2, 3/4) passive until closeTo(o, goal, 1)
            rule r forall x : Object when x.x < 5 do x.x := x.x * 2, x.y += -1/3, addforce wind on o (1, -2) passive, removeforce gust on goal until x.y < -1
          horizon 3
        end"""
    )
    text = serialize_scenario(sc)
    assert text.splitlines()[4:6] == [
        "  umph shove on o (-0.5, 0.75) passive until closeTo(o, goal, 1)",
        "  rule r forall x : Object when x.x < 5 do x.x := x.x * 2, x.y += -1/3, "
        "addforce wind on o (1, -2) passive, removeforce gust on goal until x.y < -1",
    ]
    assert parse_scenario(text) == sc


def test_scenario_with_attributes_round_trips():
    sc = parse_scenario(
        """scenario s
          entity cup : Container = Circle(0, 0, 2) with open = 1
          trace length 1
        end"""
    )
    assert sc.entities[0].initial("open") == 1
    assert parse_scenario(serialize_scenario(sc)) == sc
