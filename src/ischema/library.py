"""The standard library: conceptual primitives, shipped schema theories,
trace classification, and analogy matching.

Schema theories live as editable .ist data files next to this module; the
primitive catalog is data too (primitives.json). Classification searches all
sort-compatible role bindings (distinct entities per binding) and reports the
satisfied ones in canonical order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Iterator, Mapping, Optional, Sequence

from . import dsl, geometry, logic
from .errors import EVALUATION_GAP_ERRORS, UnknownSchema
from .geometry import Const, EvalContext, ParamRef
from .logic import (
    And,
    Atom,
    CheckReport,
    Compare,
    Exists,
    Forall,
    Formula,
    Not,
    NumTerm,
    Sym,
    check_theory,
)
from .model import Scenario, Theory

SHIPPED_SCHEMAS = (
    "AT_REST",
    "CONTAINMENT",
    "LINK",
    "MOTION",
    "OBJECT_INTO_CONTAINER",
    "REVOLUTION",
    "SOURCE_PATH_GOAL",
    "SUPPORT",
)

# The composite image schemas; the rest are primitive-level theories that the
# classifier also understands.
COMPOSITE_SCHEMAS = ("SOURCE_PATH_GOAL", "OBJECT_INTO_CONTAINER", "SUPPORT", "LINK", "REVOLUTION")


def _data_text(name: str) -> str:
    return resources.files("ischema.data").joinpath(name).read_text(encoding="utf-8")


_theory_cache: dict[str, Theory] = {}


def schema_theory(name: str) -> Theory:
    """Load a shipped schema theory by name."""
    if name not in SHIPPED_SCHEMAS:
        raise UnknownSchema(f"unknown schema {name!r}; shipped: {', '.join(SHIPPED_SCHEMAS)}")
    if name not in _theory_cache:
        _theory_cache[name] = dsl.parse_theory(_data_text(name + ".ist"), name + ".ist")
    return _theory_cache[name]


def shipped_scenario(name: str) -> Scenario:
    """Load one of the bundled example scenarios (fig1, drop, ball_cup, ...)."""
    return dsl.parse_scenario(_data_text(name + ".scn"), name + ".scn")


# --- primitive catalog -------------------------------------------------------


@dataclass(frozen=True)
class PrimitiveDef:
    name: str
    kind: str  # entity | relational | attributive | force-dynamic
    realization: tuple[tuple[str, str], ...]
    doc: str

    def realization_map(self) -> dict[str, str]:
        return dict(self.realization)


def primitive_catalog() -> list[PrimitiveDef]:
    """Every conceptual primitive with its one normative realization."""
    raw = json.loads(_data_text("primitives.json"))
    out = []
    for entry in raw:
        realization = tuple(
            (k, v if isinstance(v, str) else json.dumps(v))
            for k, v in sorted(entry["realization"].items())
        )
        out.append(
            PrimitiveDef(
                name=entry["name"],
                kind=entry["kind"],
                realization=realization,
                doc=entry["doc"],
            )
        )
    return out


def primitive(name: str) -> PrimitiveDef:
    for p in primitive_catalog():
        if p.name == name:
            return p
    raise UnknownSchema(f"unknown primitive {name!r}")


# --- formula macros -----------------------------------------------------------


def empty_formula(container: str) -> Formula:
    """No declared object is inside the container."""
    return Forall("o", "Object", Not(Atom("inside", (Sym("o"), Sym(container)))))


def occupied_formula(container: str) -> Formula:
    return Exists("o", "Object", Atom("inside", (Sym("o"), Sym(container))))


def full_formula(container: str) -> Formula:
    """Occupied, and every declared object is already inside: nothing is left
    that could still go in (objects are points, so any remaining one would fit)."""
    return And(
        occupied_formula(container),
        Forall("o", "Object", Atom("inside", (Sym("o"), Sym(container)))),
    )


def open_formula(container: str) -> Formula:
    return Compare(geometry.ConstraintAtom(ParamRef(container, "open"), "=", Const(Fraction(1))))


def closed_formula(container: str) -> Formula:
    return Compare(geometry.ConstraintAtom(ParamRef(container, "open"), "=", Const(Fraction(0))))


def motion_formula(entity: str) -> Formula:
    return Atom("motion", (Sym(entity),))


def at_rest_formula(entity: str) -> Formula:
    return Not(Atom("motion", (Sym(entity),)))


def link_formula(a: str, b: str, threshold: Fraction | int) -> Formula:
    return Atom("closeTo", (Sym(a), Sym(b), NumTerm(Const(Fraction(threshold)))))


def ccw_step_formula(orbiter: str, center: str) -> Formula:
    return Atom("ccwStep", (Sym(orbiter), Sym(center)))


def theta_increase_formula(orbiter: str, center: str) -> Formula:
    """The literal angular reading: theta grows across the step. Agrees with
    ccwStep whenever a step turns less than a half-circle and does not wrap."""
    return Atom("thetaStep", (Sym(orbiter), Sym(center)))


def path_start(path: str) -> tuple[ParamRef, ParamRef]:
    return ParamRef(path, "x1"), ParamRef(path, "y1")


def path_end(path: str) -> tuple[ParamRef, ParamRef]:
    return ParamRef(path, "x2"), ParamRef(path, "y2")


MACROS = {
    "empty_formula": empty_formula,
    "occupied_formula": occupied_formula,
    "full_formula": full_formula,
    "open_formula": open_formula,
    "closed_formula": closed_formula,
    "motion_formula": motion_formula,
    "at_rest_formula": at_rest_formula,
    "link_formula": link_formula,
    "ccw_step_formula": ccw_step_formula,
    "theta_increase_formula": theta_increase_formula,
    "path_start": path_start,
    "path_end": path_end,
}


def make_source_path_goal(n: int = 3, tau: Fraction = Fraction(1, 2)) -> Theory:
    """The journey schema with a configurable number of waypoints."""
    if n < 2:
        raise UnknownSchema("a path needs at least two waypoints")
    shipped = schema_theory("SOURCE_PATH_GOAL")
    if n == 3 and tau == Fraction(1, 2):
        return shipped
    roles = [("traveler", "Object")] + [(f"w{i}", "Region") for i in range(1, n + 1)]

    def at(i: int) -> Formula:
        return Atom("at", (Sym("traveler"), Sym(f"w{i}")))

    visit: Formula = at(n)
    for i in range(n - 1, 0, -1):
        visit = And(at(i), logic.Eventually(visit))
    forward: Optional[Formula] = None
    for i in range(2, n + 1):
        clause = logic.Implies(at(i), logic.Before(at(i - 1)))
        forward = clause if forward is None else And(forward, clause)
    return Theory(
        name=f"SOURCE_PATH_GOAL_{n}",
        roles=tuple(roles),
        relations=shipped.relations,
        axioms=(visit, logic.Always(forward)),
        numeric_params=(("tau", tau),),
    )


# --- classification -------------------------------------------------------------


@dataclass(frozen=True)
class SchemaBinding:
    """A witnessed instantiation: schema roles mapped to scenario entities."""

    schema: str
    roles: tuple[tuple[str, str], ...]  # (role, entity) in role declaration order

    def as_dict(self) -> dict[str, str]:
        return dict(self.roles)


def candidate_bindings(
    theory: Theory,
    scenario: Scenario,
    fixed: Optional[Mapping[str, str]] = None,
) -> Iterator[dict[str, str]]:
    """All sort-compatible role bindings, entities sorted by id, roles in
    declaration order; roles bind distinct entities. Roles named in
    `fixed` keep the entity given there; naming a role the theory lacks
    leaves no candidate."""
    fixed = fixed or {}
    if not set(fixed) <= {role for role, _ in theory.roles}:
        return
    hierarchy = theory.hierarchy()
    ids = sorted(e.id for e in scenario.entities)
    sorts = {e.id: e.sort for e in scenario.entities}
    pools = []
    for role, sort in theory.roles:
        pool = [i for i in ids if hierarchy.subsort_of(sorts[i], sort)]
        pools.append([i for i in pool if i == fixed[role]] if role in fixed else pool)
    for combo in itertools.product(*pools):
        if len(set(combo)) != len(combo):
            continue
        yield {role: entity for (role, _), entity in zip(theory.roles, combo)}


@dataclass(frozen=True)
class ClassifyResult:
    binding: SchemaBinding
    report: CheckReport


def search_bindings(
    theory: Theory,
    scenario: Scenario,
    epsilon: Fraction = geometry.DEFAULT_EPSILON,
    tau: Fraction = geometry.DEFAULT_TAU,
    fixed: Optional[Mapping[str, str]] = None,
) -> Iterator[ClassifyResult]:
    """The binding search behind classify, analogy and `check` with unbound
    roles: every satisfying binding of `theory`, lazily, in the canonical
    order of `candidate_bindings`.

    The evaluation context is built once. Each candidate's axioms are
    evaluated in order up to the first false one, and a candidate whose
    evaluation raises one of EVALUATION_GAP_ERRORS (a relation undefined for
    the shapes bound) is skipped; any other error propagates. A satisfying
    binding's report lists every axiom as satisfied.
    """
    ctx = EvalContext.for_scenario(scenario, theory, epsilon=epsilon, tau=tau)
    for binding in candidate_bindings(theory, scenario, fixed=fixed):
        try:
            report = check_theory(theory, scenario, binding, ctx=ctx, stop_at_first_false=True)
        except EVALUATION_GAP_ERRORS:
            continue
        if report.satisfied:
            roles = tuple((role, binding[role]) for role, _ in theory.roles)
            yield ClassifyResult(SchemaBinding(theory.name, roles), report)


def classify(
    scenario: Scenario,
    schemas: Optional[Sequence[str | Theory]] = None,
    epsilon: Fraction = geometry.DEFAULT_EPSILON,
    tau: Fraction = geometry.DEFAULT_TAU,
) -> list[ClassifyResult]:
    """Every (schema, binding) pair the trace satisfies, in canonical order.

    Bindings whose evaluation runs into a shape a relation is not defined for
    do not instantiate the schema and are skipped.
    """
    if scenario.trace is None:
        raise UnknownSchema("classification needs a concrete trace")
    theories: list[Theory] = []
    for s in schemas if schemas is not None else SHIPPED_SCHEMAS:
        theories.append(s if isinstance(s, Theory) else schema_theory(s))
    results = [r for theory in theories for r in search_bindings(theory, scenario, epsilon, tau)]
    results.sort(key=lambda r: (r.binding.schema, r.binding.roles))
    return results


def satisfying_bindings(
    theory: Theory,
    scenario: Scenario,
    epsilon: Fraction = geometry.DEFAULT_EPSILON,
    tau: Fraction = geometry.DEFAULT_TAU,
) -> Iterator[SchemaBinding]:
    """Satisfying bindings of one theory, lazily, in canonical order."""
    for result in search_bindings(theory, scenario, epsilon, tau):
        yield result.binding


def analogy(
    scenario_a: Scenario,
    scenario_b: Scenario,
    schema: str | Theory,
    epsilon: Fraction = geometry.DEFAULT_EPSILON,
    tau: Fraction = geometry.DEFAULT_TAU,
) -> Optional[tuple[SchemaBinding, SchemaBinding]]:
    """First binding pair under which both scenarios satisfy the same schema
    theory; that shared theory is the formal witness of the analogy. None when
    either side has no satisfying binding."""
    theory = schema if isinstance(schema, Theory) else schema_theory(schema)
    first_a = next(satisfying_bindings(theory, scenario_a, epsilon, tau), None)
    if first_a is None:
        return None
    first_b = next(satisfying_bindings(theory, scenario_b, epsilon, tau), None)
    if first_b is None:
        return None
    return first_a, first_b
