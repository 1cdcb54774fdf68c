"""Non-monotonic forward simulation.

Each step fires rules stratum by stratum against the current state (negation
as failure), collects their effects, applies them atomically, and copies every
untouched parameter unchanged - persistence is the default. Gravity and
directed-push forces are built-in rule constructors.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import geometry
from .errors import (
    ConflictingEffects,
    NonPositiveDelta,
    UnknownParameter,
    UnstratifiableRuleSet,
)
from .geometry import EvalContext, NumExpr, eval_num_expr
from .logic import (
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Sym,
    TrueF,
    _domain,
    eval_formula,
)
from .model import (
    ForceFluent,
    Scenario,
    ShapeKind,
    State,
    Trace,
    displace,
    initial_state,
)
from .tree import Node


class Effect:
    __slots__ = ()


@dataclass(frozen=True)
class SetParam(Effect):
    target: str  # entity id or the rule's scope variable
    param: str
    expr: NumExpr


@dataclass(frozen=True)
class DeltaParam(Effect):
    target: str
    param: str
    expr: NumExpr


@dataclass(frozen=True)
class Fall(Effect):
    """Move the target down by up to `delta`, clamping at the highest surface
    directly beneath it so it lands exactly in contact."""

    target: str
    delta: Fraction


@dataclass(frozen=True)
class AddForce(Effect):
    force: ForceFluent


@dataclass(frozen=True)
class RemoveForce(Effect):
    label: str
    target: str


@dataclass(frozen=True)
class Rule:
    """Condition over the current state plus parameter-update effects.

    `scope` quantifies the rule over all entities of a sort; `until` suppresses
    firing for a target while it holds; `shapes` optionally restricts scope
    targets by shape kind.
    """

    name: str
    condition: Formula
    effects: tuple[Effect, ...]
    scope: Optional[tuple[str, str]] = None  # (variable, sort)
    until: Optional[Formula] = None
    shapes: Optional[frozenset[ShapeKind]] = None
    kind: str = "generic"  # generic | gravity | umph
    mode: Optional[str] = None  # umph only: active | passive


def gravity_rule(delta: Fraction | int = 1) -> Rule:
    """Every unsupported entity moves down by `delta` per step.

    Applies to bottom-bearing shapes (points, circles, rectangles); floors and
    segments are scenery. The drop clamps at the highest surface directly
    beneath, so a body lands exactly in contact instead of overshooting.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise NonPositiveDelta(f"gravity step must be positive, got {delta}")
    condition = Not(Exists("y", "Entity", Atom("on", (Sym("x"), Sym("y")))))
    return Rule(
        name="gravity",
        condition=condition,
        effects=(Fall("x", delta),),
        scope=("x", "Entity"),
        shapes=frozenset(geometry.CENTERED),
        kind="gravity",
    )


def umph_rule(
    label: str,
    target: str,
    dx: Fraction | int,
    dy: Fraction | int,
    mode: str = "active",
    until: Optional[Formula] = None,
) -> Rule:
    """A persistent directed push: displace `target` by (dx, dy) every step,
    optionally until a goal condition holds."""
    dx, dy = Fraction(dx), Fraction(dy)
    return Rule(
        name=f"umph:{label}",
        condition=TrueF(),
        effects=(
            DeltaParam(target, "x", geometry.Const(dx)),
            DeltaParam(target, "y", geometry.Const(dy)),
        ),
        until=until,
        kind="umph",
        mode=mode,
    )


# --- stratification -------------------------------------------------------------


def _scope_targets(rule: Rule, ctx: EvalContext) -> list[str]:
    if rule.scope is None:
        return []
    _, sort = rule.scope
    out = []
    for e in ctx.entities.values():
        if not ctx.hierarchy.subsort_of(e.sort, sort):
            continue
        if rule.shapes is not None and e.shape not in rule.shapes:
            continue
        out.append(e.id)
    return out


def _written(rule: Rule, ctx: EvalContext) -> set[str]:
    """The entities whose parameters the rule's effects write; forces write none."""
    scope_var = rule.scope[0] if rule.scope else None
    out: set[str] = set()
    for eff in rule.effects:
        if isinstance(eff, (SetParam, DeltaParam, Fall)):
            if eff.target == scope_var:
                out.update(_scope_targets(rule, ctx))
            else:
                out.add(eff.target)
    return out


def _condition_reads(
    phi: Node, ctx: EvalContext, locals_: dict[str, str], negated: bool, out: set[tuple]
) -> None:
    """Collect (negated, entity) reads: every entity a symbol under any
    operator may denote, tagged by negation parity. `not` and the left side
    of `->` flip the parity."""
    for name in phi.symbols:
        if name in locals_:
            out.update((negated, e) for e in _domain(ctx, locals_[name]))
        elif name in ctx.entities:
            out.add((negated, name))
    if isinstance(phi, (Forall, Exists)):
        locals_ = {**locals_, phi.var: phi.sort}
    for i, child in enumerate(phi.children):
        flip = isinstance(phi, Not) or (isinstance(phi, Implies) and i == 0)
        _condition_reads(child, ctx, locals_, negated != flip, out)


def _reads(rule: Rule, ctx: EvalContext) -> set[tuple]:
    locals_ = {rule.scope[0]: rule.scope[1]} if rule.scope else {}
    out: set[tuple] = set()
    _condition_reads(rule.condition, ctx, locals_, False, out)
    if rule.until is not None:
        # the stop condition gates firing the way a negated premise does
        _condition_reads(rule.until, ctx, locals_, True, out)
    return out


def stratify(rules: Sequence[Rule], ctx: EvalContext) -> list[list[Rule]]:
    """Layer the rules: the strongly connected components of the writer ->
    reader graph between distinct rules, in topological order (Kosaraju). A
    rule may read its own writes, which its condition never sees within a
    step; a dependency cycle through a negated read is rejected."""
    n = len(rules)
    written = [_written(r, ctx) for r in rules]
    reads = [_reads(r, ctx) for r in rules]
    edges = [
        {j for j in range(n) if j != i and any(e in written[i] for _, e in reads[j])}
        for i in range(n)
    ]
    discovered: dict[int, int] = {}
    finished: list[int] = []
    work = [(-1, iter(range(n)))]  # a virtual root over every rule; it finishes last
    while work:
        v, successors = work[-1]
        w = next((w for w in successors if w not in discovered), None)
        if w is None:
            finished.append(work.pop()[0])
        else:
            discovered[w] = len(discovered)
            work.append((w, iter(sorted(edges[w]))))
    component: dict[int, int] = {}
    comps: list[list[int]] = []
    for root in reversed(finished[:-1]):
        if root not in component:
            comps.append([root])
            component[root] = len(comps) - 1
            for v in comps[-1]:  # flood-fill the reversed graph
                for u in range(n):
                    if v in edges[u] and u not in component:
                        component[u] = component[root]
                        comps[-1].append(u)
    # name the pair Tarjan's search meets first: components last-first,
    # members by descending discovery index
    for comp in reversed(comps):
        for v in sorted(comp, key=discovered.get, reverse=True):
            for w in edges[v]:
                if component[w] == component[v] and any((True, e) in reads[w] for e in written[v]):
                    raise UnstratifiableRuleSet(
                        f"rules {rules[v].name!r} and {rules[w].name!r} form a "
                        "dependency cycle through a negated condition"
                    )
    return [[rules[v] for v in sorted(comp)] for comp in comps]


# --- stepping ----------------------------------------------------------------------


def _one_state_trace(state: State) -> Trace:
    return Trace((dataclasses.replace(state, time=0),))


def _fall_drop(state: State, ctx: EvalContext, target: str, delta: Fraction) -> Fraction:
    decl = ctx.decl(target)
    base = geometry.bottom(state, decl)
    if base is None:
        return Fraction(0)
    best_gap: Optional[Fraction] = None
    for other in ctx.entities.values():
        if other.id == target:
            continue
        surface = geometry.top(state, other)
        if surface is None or surface > base:
            continue
        if not geometry.horizontal_overlap(state, decl, other):
            continue
        gap = base - surface
        if best_gap is None or gap < best_gap:
            best_gap = gap
    if best_gap is None:
        return delta
    return min(delta, best_gap)


def _concrete_effects(
    rule: Rule, target: Optional[str], working: State, ctx: EvalContext
) -> list[tuple]:
    """Resolve a fired rule's effects against the working state.

    Returns (kind, payload) tuples; numeric expressions are evaluated now so
    all effects apply atomically afterwards.
    """
    binding = {rule.scope[0]: target} if rule.scope else {}

    def resolve(name: str) -> str:
        return binding.get(name, name)

    out: list[tuple] = []
    for eff in rule.effects:
        if isinstance(eff, SetParam):
            value = eval_num_expr(eff.expr, working, ctx, binding)
            out.append(("set", resolve(eff.target), eff.param, Fraction(value)))
        elif isinstance(eff, DeltaParam):
            value = eval_num_expr(eff.expr, working, ctx, binding)
            out.append(("delta", resolve(eff.target), eff.param, Fraction(value)))
        elif isinstance(eff, Fall):
            entity = resolve(eff.target)
            drop = _fall_drop(working, ctx, entity, eff.delta)
            if drop != 0:
                out.append(("delta", entity, "y", -drop))
        elif isinstance(eff, AddForce):
            out.append(("addforce", eff.force))
        elif isinstance(eff, RemoveForce):
            out.append(("rmforce", eff.label, resolve(eff.target)))
    return out


def _apply_param_effects(state: State, effects: Iterable[tuple]) -> dict:
    by_key: dict[tuple[str, str], dict] = {}
    for eff in effects:
        if eff[0] not in ("set", "delta"):
            continue
        _, entity, param, value = eff
        slot = by_key.setdefault((entity, param), {"set": None, "delta": Fraction(0), "has_delta": False})
        if eff[0] == "set":
            if slot["set"] is not None and slot["set"] != value:
                raise ConflictingEffects(
                    f"conflicting assignments to {entity}.{param}: {slot['set']} vs {value}"
                )
            slot["set"] = value
        else:
            slot["delta"] += value
            slot["has_delta"] = True

    values = dict(state.values)
    for (entity, param), slot in by_key.items():
        if slot["set"] is not None and slot["has_delta"]:
            raise ConflictingEffects(
                f"{entity}.{param} is both assigned and incremented in one step"
            )
        if (entity, param) not in values:
            raise UnknownParameter(f"no value for {entity}.{param}")
        if slot["set"] is not None:
            values[(entity, param)] = slot["set"]
        else:
            values[(entity, param)] += slot["delta"]
    return values


def step(
    state: State,
    rules: Sequence[Rule],
    ctx: EvalContext,
    strata: Optional[list[list[Rule]]] = None,
) -> State:
    """Compute the successor state.

    Rules fire by stratum against the current state with earlier strata's
    effects visible; all effects then apply atomically (same-parameter deltas
    sum, disagreeing assignments are an error); everything unwritten persists;
    active forces displace their targets and persist.
    """
    if strata is None:
        strata = stratify(rules, ctx)

    working = state
    all_effects: list[tuple] = []
    for stratum in strata:
        stratum_effects: list[tuple] = []
        for rule in stratum:
            targets: list[Optional[str]] = (
                _scope_targets(rule, ctx) if rule.scope else [None]
            )
            trace_view = _one_state_trace(working)
            for target in targets:
                binding = {rule.scope[0]: target} if rule.scope else {}
                if rule.until is not None and eval_formula(
                    rule.until, trace_view, 0, binding, ctx
                ):
                    continue
                if not eval_formula(rule.condition, trace_view, 0, binding, ctx):
                    continue
                stratum_effects.extend(_concrete_effects(rule, target, working, ctx))
        all_effects.extend(stratum_effects)
        working = dataclasses.replace(
            working, values=_apply_param_effects(working, stratum_effects)
        )

    # Global conflict check across strata, then rebuild from the base state so
    # the atomic-application contract holds exactly.
    values = _apply_param_effects(state, all_effects)

    forces = set(state.forces)
    for eff in all_effects:
        if eff[0] == "addforce":
            forces.add(eff[1])
        elif eff[0] == "rmforce":
            forces = {f for f in forces if not (f.label == eff[1] and f.target == eff[2])}

    for f in state.forces:
        if f.target in ctx.entities:
            displace(values, ctx.entities[f.target], f.dx, f.dy)

    return State(time=state.time + 1, values=values, forces=frozenset(forces))


def simulate(
    scenario: Scenario,
    epsilon: Fraction = geometry.DEFAULT_EPSILON,
    tau: Fraction = geometry.DEFAULT_TAU,
    horizon: Optional[int] = None,
    initial_forces: frozenset[ForceFluent] = frozenset(),
) -> Trace:
    """Run a generative scenario for its horizon; state 0 comes from the
    declared initial values."""
    if not scenario.is_generative:
        raise ConflictingEffects("simulate needs a generative scenario (rules + horizon)")
    T = horizon if horizon is not None else scenario.horizon
    if T is None or T < 1:
        raise ConflictingEffects("simulation horizon must be at least 1")
    ctx = EvalContext.for_scenario(scenario, epsilon=epsilon, tau=tau)
    rules = list(scenario.rules or ())
    strata = stratify(rules, ctx)
    states = [initial_state(scenario.entities, forces=initial_forces)]
    for _ in range(T - 1):
        states.append(step(states[-1], rules, ctx, strata=strata))
    return Trace(tuple(states))
