"""Command-line interface: check, simulate, classify, analogy, enumerate.

Exit codes separate semantic outcomes from operational failures:

    0  satisfied / done / analogy found
    1  theory violated / no analogy / no satisfying binding
    2  usage, parse, or sort errors (diagnostics on stderr as file:line:col)
    3  the rule set is rejected (conflicting effects, unstratifiable)
    4  a search space exceeds the cap

An engine error decides the exit code by its class, the same way in every
command (`_ERROR_EXITS`), and is written as `error: <message>` on stderr. A
command that fails writes nothing to stdout. A `--bind` role the theory lacks
leaves `check` no candidate (exit 1) and is a usage error in `enumerate`.

Set ISCHEMA_COLOR=0|1 to force plain or colored text output; --json emits
machine-readable documents that validate against data/cli_output.schema.json.
Given identical inputs and flags, output bytes are identical across runs.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import NoReturn, Optional, Sequence

import click

from . import dsl, dynamics, enumeration, library, logic
from .errors import (
    ConflictingEffects,
    IschemaError,
    SearchSpaceTooLarge,
    UnstratifiableRuleSet,
)
from .geometry import DEFAULT_EPSILON, DEFAULT_TAU, EvalContext

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_USAGE = 2
EXIT_RULESET = 3
EXIT_SEARCH_SPACE = 4


def _color_enabled() -> Optional[bool]:
    flag = os.environ.get("ISCHEMA_COLOR")
    if flag == "0":
        return False
    if flag == "1":
        return True
    return None


def _stream(err: bool = False):
    """stdout, or stderr, as click.echo picks it, looked up on every call.
    click.echo keeps the stream it picks in a cache that holds on to every
    stream it is given, so commands run in one process on fresh streams, as
    tests and benchmarks run them, would keep all their output alive."""
    return click.get_text_stream("stderr" if err else "stdout", errors=None)


def _fail_usage(message: str) -> NoReturn:
    click.echo(f"error: {message}", file=_stream(err=True))
    sys.exit(EXIT_USAGE)


def _load(path: str, parse):
    """The theory or scenario that `parse` reads from `path`, sort-checked.
    Exits 2 with the diagnostics when it does not parse or check."""
    try:
        obj = parse(Path(path).read_text(encoding="utf-8"), path)
    except OSError as exc:
        _fail_usage(str(exc))
    except UnicodeDecodeError as exc:
        _fail_usage(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    except dsl.DslError as exc:
        diags = exc.diagnostics
    else:
        diags = dsl.sort_check(obj)
    if diags:
        for d in diags:
            click.echo(str(d), file=_stream(err=True))
        sys.exit(EXIT_USAGE)
    return obj


def _parse_bindings(pairs: Sequence[str]) -> dict[str, str]:
    binding = {}
    for pair in pairs:
        if "=" not in pair:
            _fail_usage(f"--bind expects role=entity, got {pair!r}")
        role, entity = (part.strip() for part in pair.split("=", 1))
        if role in binding:
            _fail_usage(f"--bind names role {role!r} twice")
        binding[role] = entity
    return binding


def _rational_option(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        _fail_usage(f"{what} must be a rational number, got {text!r}")


def _epsilon_option(text: Optional[str]) -> Fraction:
    """The --epsilon tolerance: a rational of at least 0, since under a
    negative one `contact` and `on` could never hold."""
    if not text:
        return DEFAULT_EPSILON
    eps = _rational_option(text, "--epsilon")
    if eps < 0:
        _fail_usage(f"--epsilon must not be negative, got {text}")
    return eps


def _tolerances(epsilon: Optional[str], tau: Optional[str]) -> tuple[Fraction, Fraction]:
    """The --epsilon and --tau tolerances, in that order."""
    eps = _epsilon_option(epsilon)
    return eps, (_rational_option(tau, "--tau") if tau else DEFAULT_TAU)


# The exit code of a command that an engine error stops; any error not named
# here is a usage error.
_ERROR_EXITS = {
    SearchSpaceTooLarge: EXIT_SEARCH_SPACE,
    ConflictingEffects: EXIT_RULESET,
    UnstratifiableRuleSet: EXIT_RULESET,
}


def _runs(body):
    """The command callback that runs `body`, which returns (output, exit
    code), writes the output to stdout and exits with the code. The output is
    a JSON document, text written as it is, or a list of (line, color) pairs.
    An engine error that `body` raises, rendering included, is written as
    `error: <message>` on stderr, and nothing goes to stdout."""

    @functools.wraps(body)
    def run(**options):
        try:
            output, code = body(**options)
            if isinstance(output, dict):
                output = dsl.json_text(output) + "\n"
        except IschemaError as exc:
            click.echo(f"error: {exc}", file=_stream(err=True))
            sys.exit(_ERROR_EXITS.get(type(exc), EXIT_USAGE))
        out = _stream()
        if isinstance(output, str):
            click.echo(output, nl=False, file=out)
        else:
            color = _color_enabled()
            for line, fg in output:
                if fg is not None and color is not False:
                    click.secho(line, fg=fg, color=color, file=out)
                else:
                    click.echo(line, file=out)
        sys.exit(code)

    return run


def _report_to_json(report: logic.CheckReport) -> dict:
    axioms = []
    for a in report.axioms:
        entry = {
            "index": a.index,
            "formula": dsl.formula_to_text(a.formula),
            "satisfied": a.satisfied,
        }
        if a.witness is not None:
            entry["witness"] = {
                "time": a.witness.time,
                "formula": dsl.formula_to_text(a.witness.formula),
            }
        axioms.append(entry)
    return {
        "command": "check",
        "theory": report.theory,
        "binding": dict(report.binding),
        "satisfied": report.satisfied,
        "axioms": axioms,
    }


def _report_lines(report: logic.CheckReport) -> list[tuple[str, Optional[str]]]:
    """The text report, as (line, color) pairs."""
    binding = dict(report.binding)
    bound = ", ".join(f"{r}={e}" for r, e in report.binding)
    lines = [(f"theory {report.theory}" + (f" with {bound}" if bound else ""), None)]
    for a in report.axioms:
        shown = logic.substitute_symbols(a.formula, binding)
        verdict = "satisfied" if a.satisfied else "violated"
        lines.append((f"  {dsl.formula_to_text(shown)}: {verdict}", "green" if a.satisfied else "red"))
        if a.witness is not None:
            wf = logic.substitute_symbols(a.witness.formula, dict(a.witness.binding))
            lines.append((f"    fails at t={a.witness.time}: {dsl.formula_to_text(wf)}", None))
    lines.append((f"result: {'satisfied' if report.satisfied else 'violated'}", None))
    return lines


@click.group(name="ischema")
def main() -> None:
    """Check, simulate, classify, match, and enumerate embodied scenarios
    against image-schema theories."""


@main.command("check")
@click.argument("theory_file")
@click.argument("scenario_file")
@click.option("--bind", "binds", multiple=True, help="role=entity (repeatable)")
@click.option("--epsilon", default=None, help="coincidence tolerance")
@click.option("--tau", default=None, help="default proximity threshold")
@click.option("--json", "json_output", is_flag=True)
@_runs
def cmd_check(theory_file, scenario_file, binds, epsilon, tau, json_output):
    """Check a concrete scenario against a theory under a role binding.

    Roles left unbound trigger a search over sort-compatible bindings; the
    first satisfying one is reported.
    """
    theory = _load(theory_file, dsl.parse_theory)
    scenario = _load(scenario_file, dsl.parse_scenario)
    if scenario.trace is None:
        _fail_usage("the scenario is generative; run `ischema simulate` first")
    ctx = EvalContext.for_scenario(scenario, theory, *_tolerances(epsilon, tau))
    binding = _parse_bindings(binds)

    # a binding that leaves a role unbound, or names one the theory
    # lacks, goes through the search, which finds no candidate for the latter
    if binding.keys() == {role for role, _ in theory.roles}:
        report = logic.check_theory(theory, scenario, binding, ctx)
    else:
        found = next(library.search_bindings(theory, scenario, ctx, binding), None)
        if found is None:
            searched = library.count_candidates(theory, ctx, binding)
            if json_output:
                return {
                    "command": "check",
                    "theory": theory.name,
                    "binding": binding,
                    "satisfied": False,
                    "axioms": [],
                    "searched": searched,
                }, EXIT_UNSATISFIED
            text = f"theory {theory.name}: no satisfying binding among {searched} candidates\n"
            return text, EXIT_UNSATISFIED
        report = found.report
    output = _report_to_json(report) if json_output else _report_lines(report)
    return output, EXIT_OK if report.satisfied else EXIT_UNSATISFIED


@main.command("simulate")
@click.argument("scenario_file")
@click.option("--steps", type=int, default=None, help="override the horizon")
@click.option("--delta", default=None, help="gravity step size")
@click.option("--trace-out", default=None, help="write the trace JSON here")
@click.option("--epsilon", default=None)
@click.option("--json", "json_output", is_flag=True)
@_runs
def cmd_simulate(scenario_file, steps, delta, trace_out, epsilon, json_output):
    """Run a generative scenario and emit its trace."""
    scenario = _load(scenario_file, dsl.parse_scenario)
    if not scenario.is_generative:
        _fail_usage("the scenario already carries a trace; nothing to simulate")
    _check_steps(steps)
    eps = _epsilon_option(epsilon)
    if delta is not None:
        delta_v = _rational_option(delta, "--delta")
        if delta_v <= 0:
            _fail_usage("--delta must be positive")
        rules = tuple(
            dynamics.gravity_rule(delta_v) if r.kind == "gravity" else r
            for r in scenario.rules
        )
        scenario = dataclasses.replace(scenario, rules=rules)
    trace = dynamics.simulate(scenario, epsilon=eps, horizon=steps)
    if not (json_output or trace_out):
        return "".join(
            f"t={state.time} " + " ".join(
                f"{eid}.{p}={dsl.rational_to_text(v)}"
                for (eid, p), v in sorted(state.values.items())
            ) + "\n"
            for state in trace.states
        ), EXIT_OK
    payload = dsl.serialize_trace(trace, scenario.entities)
    if trace_out:
        try:
            Path(trace_out).write_text(payload, encoding="utf-8")
        except OSError as exc:
            _fail_usage(str(exc))
    return payload if json_output else "", EXIT_OK


@main.command("classify")
@click.argument("scenario_file")
@click.option("--schemas", default=None, help="comma-separated schema names")
@click.option("--epsilon", default=None)
@click.option("--tau", default=None)
@click.option("--json", "json_output", is_flag=True)
@_runs
def cmd_classify(scenario_file, schemas, epsilon, tau, json_output):
    """List every (schema, binding) pair the scenario's trace satisfies."""
    scenario = _load(scenario_file, dsl.parse_scenario)
    if scenario.trace is None:
        _fail_usage("the scenario is generative; run `ischema simulate` first")
    eps, tau_v = _tolerances(epsilon, tau)
    names = [s.strip() for s in schemas.split(",")] if schemas else None
    results = library.classify(scenario, names, epsilon=eps, tau=tau_v)
    if json_output:
        return {
            "command": "classify",
            "results": [
                {"schema": r.binding.schema, "binding": r.binding.as_dict()}
                for r in results
            ],
        }, EXIT_OK
    lines = [
        (f"{r.binding.schema}: " + ", ".join(f"{role}={e}" for role, e in r.binding.roles), "green")
        for r in results
    ]
    return lines or [("no schema instantiations found", None)], EXIT_OK


@main.command("analogy")
@click.argument("scenario_a")
@click.argument("scenario_b")
@click.option("--schema", required=True, help="schema acting as the shared structure")
@click.option("--epsilon", default=None)
@click.option("--tau", default=None)
@click.option("--json", "json_output", is_flag=True)
@_runs
def cmd_analogy(scenario_a, scenario_b, schema, epsilon, tau, json_output):
    """Find bindings showing both scenarios instantiate the same schema."""
    sc_a = _load(scenario_a, dsl.parse_scenario)
    sc_b = _load(scenario_b, dsl.parse_scenario)
    for sc, path in ((sc_a, scenario_a), (sc_b, scenario_b)):
        if sc.trace is None:
            _fail_usage(f"{path} is generative; run `ischema simulate` first")
    eps, tau_v = _tolerances(epsilon, tau)
    pair = library.analogy(sc_a, sc_b, schema, epsilon=eps, tau=tau_v)
    if pair is None:
        if json_output:
            return {"command": "analogy", "schema": schema, "found": False}, EXIT_UNSATISFIED
        return f"no analogy: {schema} is not instantiated in both scenarios\n", EXIT_UNSATISFIED
    ba, bb = pair
    if json_output:
        return {
            "command": "analogy",
            "schema": schema,
            "found": True,
            "bindingA": ba.as_dict(),
            "bindingB": bb.as_dict(),
        }, EXIT_OK
    return [
        (f"analogy via {schema}:", "green"),
        ("  " + ", ".join(f"{r}={e}" for r, e in ba.roles), None),
        ("  " + ", ".join(f"{r}={e}" for r, e in bb.roles), None),
    ], EXIT_OK


def _parse_grid(text: str) -> tuple[tuple[int, int], tuple[int, int], Fraction]:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        _fail_usage("--grid expects x0:x1,y0:y1[,step]")
    try:
        x0, x1 = (int(v) for v in parts[0].split(":"))
        y0, y1 = (int(v) for v in parts[1].split(":"))
        step = Fraction(parts[2]) if len(parts) == 3 else Fraction(1)
    except (ValueError, ZeroDivisionError):
        _fail_usage("--grid expects x0:x1,y0:y1[,step]")
    if x0 > x1 or y0 > y1:
        _fail_usage(f"--grid ranges must not run backwards, got {parts[0]} and {parts[1]}")
    if step <= 0:
        _fail_usage("--grid step must be positive")
    return (x0, x1), (y0, y1), step


def _check_at_least_one(option: str, value: Optional[int]) -> None:
    if value is not None and value < 1:
        _fail_usage(f"{option} must be at least 1, got {value}")


def _check_steps(value: Optional[int]) -> None:
    """--steps: from 1 to dsl.MAX_INSTANTS instants."""
    _check_at_least_one("--steps", value)
    if value is not None and value > dsl.MAX_INSTANTS:
        _fail_usage(f"--steps must be at most {dsl.MAX_INSTANTS}, got {value}")


@main.command("enumerate")
@click.argument("theory_file")
@click.argument("scenario_file")
@click.option("--grid", required=True, help="x0:x1,y0:y1[,step]")
@click.option("--steps", type=int, default=1, help="trace length per model")
@click.option("--free", default=None, help="comma-separated free entities")
@click.option("--bind", "binds", multiple=True, help="role=entity (repeatable)")
@click.option("--cap", type=int, default=enumeration.DEFAULT_CAP)
@click.option("--count-only", is_flag=True)
@click.option("--epsilon", default=None)
@click.option("--tau", default=None)
@click.option("--json", "json_output", is_flag=True)
@_runs
def cmd_enumerate(theory_file, scenario_file, grid, steps, free, binds, cap,
                  count_only, epsilon, tau, json_output):
    """Enumerate grid placements of the free entities that satisfy the theory.

    Without --free, every entity of sort Object varies; fixed entities keep
    their declared values. Unbound roles take the first sort-compatible
    binding.
    """
    theory = _load(theory_file, dsl.parse_theory)
    scenario = _load(scenario_file, dsl.parse_scenario)
    eps, tau_v = _tolerances(epsilon, tau)
    _check_steps(steps)
    _check_at_least_one("--cap", cap)
    x_range, y_range, step = _parse_grid(grid)

    ctx = EvalContext.for_scenario(scenario, theory, epsilon=eps, tau=tau_v)
    if free:
        free_ids = tuple(s.strip() for s in free.split(","))
    else:
        free_ids = ctx.domain("Object")
    if not free_ids:
        _fail_usage("no free entities: pass --free or declare Object entities")
    for i, eid in enumerate(free_ids):
        if eid in free_ids[:i]:
            _fail_usage(f"--free names {eid!r} twice")

    binding = _parse_bindings(binds)
    roles = [role for role, _ in theory.roles]
    for role in binding:
        if role not in roles:
            _fail_usage(f"theory {theory.name} has no role {role!r}")
    unbound = [role for role in roles if role not in binding]
    if unbound:
        full = next(library.candidate_bindings(theory, scenario, ctx, binding), None)
        if full is None:
            _fail_usage(f"no sort-compatible binding for roles {', '.join(unbound)}")
        binding = full

    spec = enumeration.GridSpec(
        x_range=x_range,
        y_range=y_range,
        free_entities=free_ids,
        step=step,
        horizon=steps,
        cap=cap,
    )
    if count_only:
        count = enumeration.count_models(theory, scenario, spec, binding, ctx=ctx)
        models = ()
    else:
        models = enumeration.enumerate_models(theory, scenario, spec, binding, ctx=ctx)
        count = len(models)
    if json_output:
        doc = {"command": "enumerate", "count": count}
        if not count_only:
            shared: dict = {}
            doc["models"] = [dsl.trace_to_json(m, scenario.entities, shared) for m in models]
        return doc, EXIT_OK
    return f"models: {count}\n" + "".join(f"  {_placements(m, free_ids)}\n" for m in models), EXIT_OK


def _placements(model, free_ids: Sequence[str]) -> str:
    """Where the free entities of `model` are, instant by instant."""
    placements = []
    for eid in free_ids:
        xs = [dsl.rational_to_text(s.value(eid, "x")) for s in model.states]
        ys = [dsl.rational_to_text(s.value(eid, "y")) for s in model.states]
        coords = " -> ".join(f"({x}, {y})" for x, y in zip(xs, ys))
        placements.append(f"{eid}: {coords}")
    return "; ".join(placements)


if __name__ == "__main__":
    main()
