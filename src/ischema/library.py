"""The standard library: conceptual primitives, shipped schema theories,
trace classification, and analogy matching.

Schema theories live as editable .ist data files next to this module; the
primitive catalog is data too (primitives.json), where a formula realization
is DSL text over arg1, arg2, ... with their sorts, which `realize` parses
and instantiates; `make_source_path_goal` writes its theory as .ist text and
parses it. Classification searches all
sort-compatible role bindings (distinct entities per binding) and reports the
satisfied ones in canonical order.

The search (`search_bindings`) checks each candidate that
`candidate_bindings` yields under one evaluation context, which holds the
tolerances; `classify` and `analogy` build it once per theory and
scenario. A theory is gap-only (`gap_only`) when it sort-checks against the
scenario's entities and is exact.
Exact means that every atom applies a built-in whose row is `exact` or a
template whose body is an exact comparison, that each side of a comparison
is a lone delta or a rational expression, and that delta, theta and measure
appear nowhere else. Then evaluating it can raise nothing but
EVALUATION_GAP_ERRORS, which the search skips, so the candidates need only
meet the positive atoms every satisfying binding must make true
(`necessary_conditions`), each decided by filter and refine as the canonical
order reaches it. A two-role condition with a box margin takes its later
role's entities from a partner index, those whose boxes lie within the
margin of the earlier role's entity (at instant 0, or at any distinct state
for a condition that holds at some instant), when that role's pool holds at
least INDEX_MIN_POOL entities; a smaller pool is tested pair by pair. Any
other theory has no conditions, and every candidate is checked. The
results, their order and the errors raised are those of the full search.
`count_candidates` counts the candidates without listing them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import dsl, geometry, logic
from .errors import EVALUATION_GAP_ERRORS, UnknownSchema
from .geometry import Const, DeltaExpr, EvalContext, MeasureExpr, ThetaExpr, eval_num_expr
from .logic import (
    Always,
    And,
    Atom,
    CheckReport,
    Compare,
    Eventually,
    Formula,
    Next,
    Until,
    check_theory,
)
from .model import EntityDecl, Scenario, Theory, Trace
from .tree import Node, all_symbols

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


def realize(name: str, *entities: str) -> Formula:
    """The formula realization of primitive `name`, its DSL text with arg1,
    arg2, ... renamed to `entities`."""
    realization = primitive(name).realization_map()
    if realization["type"] != "formula":
        raise UnknownSchema(f"primitive {name} has no formula realization")
    arity = len(json.loads(realization["args"]))
    if len(entities) != arity:
        raise UnknownSchema(f"primitive {name} takes {arity} entities, not {len(entities)}")
    phi = dsl.parse_formula(realization["formula"], name)
    return logic.substitute_symbols(phi, {f"arg{i}": e for i, e in enumerate(entities, 1)})


def make_source_path_goal(n: int = 3) -> Theory:
    """The journey schema with n waypoints, 2 <= n <= 33, written as .ist
    text with the shipped theory's relation and parameter lines. From n = 34
    the visit axiom nests deeper than the parser allows, and it raises
    DslError."""
    if n < 2:
        raise UnknownSchema("a path needs at least two waypoints")
    if n == 3:
        return schema_theory("SOURCE_PATH_GOAL")
    shipped = _data_text("SOURCE_PATH_GOAL.ist").splitlines()
    at = [f"at(traveler, w{i})" for i in range(1, n + 1)]
    visit = " and eventually (".join(at[:-1]) + f" and eventually {at[-1]}" + ")" * (n - 2)
    forward = " and ".join(f"({at[i]} -> before {at[i - 1]})" for i in range(1, n))
    lines = [
        f"theory SOURCE_PATH_GOAL_{n}",
        "  role traveler : Object",
        *(f"  role w{i} : Region" for i in range(1, n + 1)),
        *(line for line in shipped if line.startswith(("  relation ", "  param "))),
        f"  axiom {visit}",
        f"  axiom always ({forward})",
        "end",
    ]
    return dsl.parse_theory("\n".join(lines), f"SOURCE_PATH_GOAL_{n}.ist")


# --- classification -------------------------------------------------------------


@dataclass(frozen=True)
class SchemaBinding:
    """A witnessed instantiation: schema roles mapped to scenario entities."""

    schema: str
    roles: tuple[tuple[str, str], ...]  # (role, entity) in role declaration order

    def as_dict(self) -> dict[str, str]:
        return dict(self.roles)


def _role_pools(
    theory: Theory, ctx: EvalContext, fixed: Optional[Mapping[str, str]]
) -> Optional[list[list[str]]]:
    """Each role's sort-compatible entities, sorted by id, in role
    declaration order; a role named in `fixed` keeps only the entity given
    there. None when `fixed` names a role the theory lacks."""
    fixed = fixed or {}
    if not set(fixed) <= {role for role, _ in theory.roles}:
        return None
    pools = []
    for role, sort in theory.roles:
        pool = sorted(ctx.domain(sort))
        pools.append([i for i in pool if i == fixed[role]] if role in fixed else pool)
    return pools


def count_candidates(
    theory: Theory,
    ctx: EvalContext,
    fixed: Optional[Mapping[str, str]] = None,
) -> int:
    """How many bindings `candidate_bindings` yields without conditions,
    without listing them; `ctx` is a context for the theory and the scenario.

    A dynamic program over the entities: `ways` maps each set of roles (a
    bitmask) to the number of ways to bind exactly those roles to distinct
    entities among the ones seen so far; each entity binds at most one more
    role. Linear in the entities, exponential only in the roles.
    """
    pools = _role_pools(theory, ctx, fixed)
    if pools is None:
        return 0
    members = [set(pool) for pool in pools]
    ways = {0: 1}
    for entity in set().union(*members):
        bits = [1 << i for i, pool in enumerate(members) if entity in pool]
        for mask, n in list(ways.items()):  # the counts before this entity
            for bit in bits:
                if not mask & bit:
                    ways[mask | bit] = ways.get(mask | bit, 0) + n
    return ways.get((1 << len(pools)) - 1, 0)


@dataclass(frozen=True)
class ClassifyResult:
    binding: SchemaBinding
    report: CheckReport


def search_bindings(
    theory: Theory,
    scenario: Scenario,
    ctx: EvalContext,
    fixed: Optional[Mapping[str, str]] = None,
) -> Iterator[ClassifyResult]:
    """The binding search behind classify, analogy and `check` with unbound
    roles: every satisfying binding of `theory`, lazily, in the canonical
    order of `candidate_bindings`.

    `ctx`, a context for the theory and the scenario, holds the sort
    hierarchy and the tolerances. The conditions are built once: the
    `necessary_conditions` of a gap-only theory over
    a concrete trace, none for any other. Each candidate's axioms are
    evaluated in order up to the first false one, and a candidate whose
    evaluation raises one of EVALUATION_GAP_ERRORS (a relation undefined for
    the shapes bound) is skipped; any other error propagates. A satisfying
    binding's report lists every axiom as satisfied.
    """
    conditions = necessary_conditions(theory) if scenario.trace is not None else ()
    if conditions and not gap_only(theory, ctx):
        conditions = ()
    for binding in candidate_bindings(theory, scenario, ctx, fixed, conditions):
        try:
            report = check_theory(theory, scenario, binding, ctx=ctx, stop_at_first_false=True)
        except EVALUATION_GAP_ERRORS:
            continue
        if report.satisfied:
            roles = tuple((role, binding[role]) for role, _ in theory.roles)
            yield ClassifyResult(SchemaBinding(theory.name, roles), report)


# --- the join -------------------------------------------------------------------

# A two-role condition with a box margin takes its later role's candidates
# from a partner index (`_partners`) when that role's pool holds at least
# this many entities. Measured on classify of scenes of 2 to 16 entities
# with pools of every entity: the index cost 6-13% more time up to 4
# entities, broke even at 5 to 7, and saved 16-45% from 8 on.
INDEX_MIN_POOL = 6


def gap_only(theory: Theory, ctx: EvalContext) -> bool:
    """Whether evaluating the theory's axioms under any candidate binding can
    raise nothing but EVALUATION_GAP_ERRORS, decided from the text alone:
    the theory is exact (`_exact`), its numeric parameters are rationals,
    and `dsl.sort_check` against `ctx`, a context built for the theory and
    a scenario, reports nothing, so every symbol, parameter, sort and arity
    resolves."""
    return (
        all(_exact(axiom, ctx) for axiom in theory.axioms)
        and all(type(v) is Fraction for v in ctx.numeric_params.values())
        and not dsl.sort_check(theory, ctx)
    )


def _exact(node: Node, ctx: EvalContext) -> bool:
    """Whether every atom below `node` applies a built-in whose row is
    `exact` and that no template overrides, or a template whose body is an
    exact comparison; every comparison, of a form other than "real",
    decides each side in rationals or as a lone delta; and every other
    number is a rational constant, a parameter or arithmetic on them."""
    kind = type(node)
    if kind is Atom:
        template = ctx.relations.get(node.relation)
        if template is None:
            row = geometry.BUILTIN_RELATIONS.get(node.relation)
            if row is None or not row.exact:
                return False
        elif not (type(template.definition) is Compare and _exact(template.definition, ctx)):
            return False
    elif kind is Compare:
        if node.form == "real" or node.cmp not in geometry.COMPARATORS:
            return False
        return all(type(side) is DeltaExpr or _exact(side, ctx) for side in (node.lhs, node.rhs))
    elif kind is Const:
        return type(node.value) is Fraction
    elif kind is DeltaExpr or kind is ThetaExpr or kind is MeasureExpr:
        return False
    return all(_exact(child, ctx) for child in node.children)


class Condition(NamedTuple):
    """A positive atom or comparison that holds at instant 0, or at some
    instant when `later`, under every binding that satisfies the theory.
    `roles` are the indices of the roles it names, ascending."""

    atom: Formula
    later: bool
    roles: tuple[int, ...]


def necessary_conditions(theory: Theory) -> list[Condition]:
    """The conditions read off each axiom's positive skeleton: an atom or a
    comparison keeps the current mode; `and` contributes both sides; `always
    f` at 0 implies f at 0, so keeps it; `eventually f`, strong `next f` and
    the right side of `until` switch to "at some instant". Every other node
    contributes nothing. Conditions naming more than two roles are left out."""
    index = {role: i for i, (role, _) in enumerate(theory.roles)}
    out: list[Condition] = []
    for axiom in theory.axioms:
        _collect_conditions(axiom, False, index, out)
    return out


def _collect_conditions(phi: Formula, later: bool, index: Mapping[str, int], out: list[Condition]) -> None:
    kind = type(phi)
    if kind in logic.LEAVES:
        roles = sorted({index[n] for n in all_symbols(phi) if n in index})
        if len(roles) <= 2:
            out.append(Condition(phi, later, tuple(roles)))
    elif kind is And:
        _collect_conditions(phi.left, later, index, out)
        _collect_conditions(phi.right, later, index, out)
    elif kind is Always:
        _collect_conditions(phi.operand, later, index, out)
    elif kind is Eventually or kind is Next:
        _collect_conditions(phi.operand, True, index, out)
    elif kind is Until:
        _collect_conditions(phi.right, True, index, out)


def candidate_bindings(
    theory: Theory,
    scenario: Scenario,
    ctx: EvalContext,
    fixed: Optional[Mapping[str, str]] = None,
    conditions: Sequence[Condition] = (),
) -> Iterator[dict[str, str]]:
    """The sort-compatible role bindings that meet every one of `conditions`
    (all of them, without conditions): entities sorted by id, roles in
    declaration order; roles bind distinct entities. Roles named in `fixed`
    keep the entity given there; naming a role the theory lacks leaves no
    candidate. `conditions` are the `necessary_conditions` of a gap-only
    theory over a concrete trace.

    Backtracking over the roles in declaration order, each pool in id order,
    tests a condition as soon as its last role is bound: forward checking
    (Haralick and Elliott, AIJ 1980) over a filter-and-refine spatial join
    (Brinkhoff, Kriegel and Seeger, SIGMOD 1993; see `_tester`). `_filter`
    runs once per condition, and its margin and slots serve the tester and
    the partner index. The first condition of a role whose filter has a
    margin and reads the boxes of its own two roles gives that role a
    partner index (`_partners`) when its pool holds at least INDEX_MIN_POOL
    entities: the role then runs only over the partners of the entity bound
    to the earlier role, an index nested-loop join (Jacox and Samet, TODS
    2007), and every test still refines each of them; unless `later`, the
    indexing condition's own test skips the box test the index made. The
    partners are a subset of the pool in id order that holds every entity
    the filter keeps, so the candidates and their order are those of the
    pair tests. A tuple
    is decided when first reached, so a search that stops at its first
    binding decides only what it reaches. A gap-only theory raises nothing
    but EVALUATION_GAP_ERRORS, which the search skips, so dropping a binding
    that fails a condition changes neither the results nor the errors.
    """
    pools = _role_pools(theory, ctx, fixed)
    if pools is None:
        return
    names = [role for role, _ in theory.roles]
    trace = scenario.trace
    tests: list[list[tuple[tuple[int, ...], Callable]]] = [[] for _ in names]
    indexes: list[Optional[tuple[int, Callable]]] = [None for _ in names]
    for cond in conditions:
        roles = [names[i] for i in cond.roles]
        margin, slots = _filter(cond.atom, roles, trace, ctx)
        if not cond.roles:
            if not _tester(cond, roles, margin, slots, trace, ctx)(()):
                return
            continue
        last = cond.roles[-1]
        own_boxes = margin is not None and set(slots) == {0, 1}
        if own_boxes and indexes[last] is None and len(pools[last]) >= INDEX_MIN_POOL:
            indexes[last] = cond.roles[0], _partners(pools[last], margin, cond.later, trace, ctx)
            if not cond.later:  # the partners are the pairs whose boxes pass at instant 0
                margin = None
        tests[last].append((cond.roles, _tester(cond, roles, margin, slots, trace, ctx)))
    yield from _extend(names, pools, tests, indexes, [])


def _extend(
    names: Sequence[str],
    pools: Sequence[Sequence[str]],
    tests: Sequence[list],
    indexes: Sequence[Optional[tuple[int, Callable]]],
    chosen: list[str],
):
    """The bindings that extend `chosen`, the entities of the first roles,
    by backtracking; a role with an index takes only the partners of the
    entity bound to the index's earlier role, and a condition is tested
    once its last role is bound."""
    depth = len(chosen)
    if depth == len(names):
        yield dict(zip(names, chosen))
        return
    index = indexes[depth]
    for entity in pools[depth] if index is None else index[1](chosen[index[0]]):
        if entity in chosen:
            continue
        chosen.append(entity)
        if all(test(tuple([chosen[i] for i in roles])) for roles, test in tests[depth]):
            yield from _extend(names, pools, tests, indexes, chosen)
        chosen.pop()


def _partners(
    pool: Sequence[str], margin: Fraction, later: bool, trace: Trace, ctx: EvalContext
) -> Callable[[str], list[str]]:
    """The partner index of a two-role condition whose box filter has
    `margin`: a function that gives the partners of an entity bound to the
    earlier role, the entities of `pool`, the later role's, whose boxes are
    not `geometry.boxes_apart` from its box by the margin at instant 0 or,
    when `later`, at some distinct state. The distinct states are instant 0
    and every `Trace.changes` instant; any other state has the values of the
    one before, so the union holds every pair the tester could accept. The
    partners come in id order. Each state's column of boxes, and each
    entity's partners, are found on first use.
    """
    decls = [ctx.entities[e] for e in pool]
    instants = sorted({0}.union(*trace.changes().values())) if later else (0,)
    columns: dict[int, Callable[[EntityDecl], list[int]]] = {}
    memo: dict[str, list[str]] = {}

    def partners(entity: str) -> list[str]:
        found = memo.get(entity)
        if found is None:
            decl = ctx.entities[entity]
            near: set[int] = set()
            for t in instants:
                if t not in columns:
                    columns[t] = geometry.near_boxes(trace.states[t], decls, margin)
                near.update(columns[t](decl))
            found = memo[entity] = [pool[i] for i in sorted(near)]
        return found

    return partners


def _tester(
    cond: Condition, roles: Sequence[str], margin: Optional[Fraction], slots: list, trace: Trace, ctx: EvalContext
) -> Callable[[tuple[str, ...]], bool]:
    """Whether the condition holds, at instant 0 or at some instant when
    `later`, for a tuple of entities bound to `roles`, its roles; memoized.

    Filter: where `_filter` finds a margin, an instant counts only where the
    boxes of the two entities in `slots` are not `geometry.boxes_apart` by
    that margin. Refine: the atom or comparison itself, where a gap error
    counts as not holding. A `later` condition tries only `logic.instants`,
    as at any other its box test and its value are those of the one before.
    The tester decides every tuple it is given, also one that a partner
    index let through.
    """
    phi = cond.atom
    states = trace.states
    reads = logic.local_reads(phi) if cond.later else None
    memo: dict[tuple[str, ...], bool] = {}

    def holds(combo: tuple[str, ...]) -> bool:
        binding = dict(zip(roles, combo))
        if margin is not None:
            a, b = (ctx.entities[combo[x] if type(x) is int else x] for x in slots)
        for t in logic.instants(reads, trace, 0, binding, ctx) if cond.later else (0,):
            if margin is not None and geometry.boxes_apart(states[t], a, b, margin):
                continue
            try:
                if logic.decide(phi, states, t, binding, ctx):
                    return True
            except EVALUATION_GAP_ERRORS:
                pass
        return False

    def test(combo: tuple[str, ...]) -> bool:
        if combo not in memo:
            memo[combo] = holds(combo)
        return memo[combo]

    return test


def _filter(phi: Formula, roles: Sequence[str], trace: Trace, ctx: EvalContext) -> tuple[Optional[Fraction], list]:
    """The margin of a condition's box filter, None for a condition decided
    by refining alone, and the two entities whose boxes it reads, each a
    position in the tuple of entities bound to `roles` or an entity id.

    A built-in atom filters at its `geometry.box_margin`. A comparison
    `delta(a, b) <= k` or `< k`, in either orientation and with k free of
    entity symbols, filters at |k| (`_distance_margin`); so does an atom whose
    template body is one, with its `argN` read as the atom's N-th entity
    argument.
    """
    def slot(symbol: str):  # a role's position, or an entity id
        return roles.index(symbol) if symbol in roles else symbol

    if type(phi) is Compare:
        margin, pair = _distance_margin(phi, trace, ctx)
        return margin, [slot(s) for s in pair]
    if any(type(t) is not str and all_symbols(t) for t in phi.args):
        return None, []  # the threshold reads an entity's parameters
    entity_args, num_args = logic.resolve_args(phi, trace.states[0], {role: role for role in roles}, ctx)
    template = ctx.relations.get(phi.relation)
    if template is None:  # a built-in takes at most one numeric argument, closeTo's threshold
        return geometry.box_margin(phi.relation, ctx, *num_args), [slot(s) for s in entity_args]
    margin, pair = _distance_margin(template.definition, trace, ctx)
    args = {f"arg{i + 1}": slot(e) for i, e in enumerate(entity_args)}
    return margin, [args.get(s, s) for s in pair]


def _distance_margin(c: Compare, trace: Trace, ctx: EvalContext) -> tuple[Optional[Fraction], list]:
    """|k| for a comparison `delta(a, b) <= k` or `< k` in either
    orientation, with the symbols a and b: the anchors, which lie in the
    boxes, are within |k| of each other. None and [] for any other
    comparison."""
    cmp = c.cmp
    near, bound = (c.lhs, c.rhs) if cmp in ("<", "<=") else (c.rhs, c.lhs) if cmp in (">", ">=") else (None, None)
    if type(near) is not DeltaExpr or all_symbols(bound):
        return None, []
    return abs(eval_num_expr(bound, trace.states[0], ctx)), [near.a, near.b]


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
    results = [
        r
        for theory in theories
        for r in search_bindings(theory, scenario, EvalContext.for_scenario(scenario, theory, epsilon, tau))
    ]
    results.sort(key=lambda r: (r.binding.schema, r.binding.roles))
    return results


def satisfying_bindings(
    theory: Theory,
    scenario: Scenario,
    epsilon: Fraction = geometry.DEFAULT_EPSILON,
    tau: Fraction = geometry.DEFAULT_TAU,
) -> Iterator[SchemaBinding]:
    """Satisfying bindings of one theory, lazily, in canonical order."""
    for result in search_bindings(theory, scenario, EvalContext.for_scenario(scenario, theory, epsilon, tau)):
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
