"""Non-monotonic forward simulation.

Each step fires rules stratum by stratum against the current state (negation
as failure), collects their effects, applies them atomically, and copies every
untouched parameter unchanged - persistence is the default. Gravity and
directed-push forces are built-in rule constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import geometry
from .errors import (
    ConflictingEffects,
    InvalidScenario,
    NonPositiveDelta,
    UnknownParameter,
    UnstratifiableRuleSet,
    ValueOutOfRange,
)
from .geometry import EvalContext, NumExpr, eval_num_expr
from .logic import (
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    TrueF,
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
    """A rule effect. Parsed effects carry their target's source `span`,
    which equality ignores."""

    __slots__ = ()


@dataclass(frozen=True)
class SetParam(Effect):
    target: str  # entity id or the rule's scope variable
    param: str
    expr: NumExpr
    span: Optional[object] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class DeltaParam(Effect):
    target: str
    param: str
    expr: NumExpr
    span: Optional[object] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Fall(Effect):
    """Move the target down by up to `delta`, clamping at the highest surface
    directly beneath it so it lands exactly in contact."""

    target: str
    delta: Fraction


@dataclass(frozen=True)
class AddForce(Effect):
    force: ForceFluent
    span: Optional[object] = field(default=None, compare=False, repr=False)

    @property
    def target(self) -> str:
        return self.force.target


@dataclass(frozen=True)
class RemoveForce(Effect):
    label: str
    target: str
    span: Optional[object] = field(default=None, compare=False, repr=False)


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
    scope_span: Optional[object] = field(default=None, compare=False, repr=False)  # of the scope's sort


def gravity_rule(delta: Fraction | int = 1) -> Rule:
    """Every unsupported entity moves down by `delta` per step.

    Applies to bottom-bearing shapes (points, circles, rectangles); floors and
    segments are scenery. The drop clamps at the highest surface directly
    beneath, so a body lands exactly in contact instead of overshooting.
    `step` decides the condition from a horizontal sweep carried across
    steps, and by the generic evaluator only under a theory's `on` template.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise NonPositiveDelta(f"gravity step must be positive, got {delta}")
    condition = Not(Exists("y", "Entity", Atom("on", ("x", "y"))))
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
    span: Optional[object] = None,
) -> Rule:
    """A persistent directed push: displace `target` by (dx, dy) every step,
    optionally until a goal condition holds. `span` locates `target` in the
    source."""
    dx, dy = Fraction(dx), Fraction(dy)
    return Rule(
        name=f"umph:{label}",
        condition=TrueF(),
        effects=(
            DeltaParam(target, "x", geometry.Const(dx), span),
            DeltaParam(target, "y", geometry.Const(dy), span),
        ),
        until=until,
        kind="umph",
        mode=mode,
    )


# --- stratification -------------------------------------------------------------


def _scope_targets(rule: Rule, ctx: EvalContext) -> list[str]:
    if rule.scope is None:
        return []
    shapes = rule.shapes
    return [e for e in ctx.domain(rule.scope[1]) if shapes is None or ctx.entities[e].shape in shapes]


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
            out.update((negated, e) for e in ctx.domain(locals_[name]))
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


def _clamped_drop(scale: int, base: int, surfaces: Iterable[Optional[int]], delta: Fraction) -> Fraction:
    """How far a body whose bottom is at `base` falls: `delta`, clamped at the
    highest of `surfaces` at or below `base`; heights are integers over
    `scale`."""
    below = [s for s in surfaces if s is not None and s <= base]
    if below:
        gap = base - max(below)
        if gap * delta.denominator < delta.numerator * scale:
            return Fraction(gap, scale)
    return delta


def _fall_drop(state: State, ctx: EvalContext, target: str, delta: Fraction) -> Fraction:
    """How far a `Fall` moves `target`: clamped at the tops of the other
    entities whose horizontal extent meets its own."""
    decl = ctx.decl(target)
    base = geometry.bottom(state, decl)
    if base is None:
        return Fraction(0)
    near = (
        geometry.top(state, other)
        for other in ctx.entities.values()
        if other.id != target and geometry.horizontal_overlap(state, decl, other)
    )
    return _clamped_drop(geometry.int_view(state).scale, base, near, delta)


def _gravity_effects(
    rule: Rule, state: State, ctx: EvalContext, targets: Sequence[str]
) -> list[tuple]:
    """The built-in gravity rule's effects on its scope `targets`, from a
    horizontal sweep of `state`. `on(x, y)` implies that x's and y's extents
    meet, so a target is supported iff it rests on one of its sweep
    neighbours, and only those can stop its fall.

    The sweep is kept on the state's view: each entity's x-extent, its
    neighbours (the entities whose x-extents meet its own, by
    `geometry.extents_meet`) and the targets gravity left in place. With
    no sweep for this context and effect, every pair of extents is tested.
    A view derived by `IntView.updated` carries it on with the entities
    moved since, so this tests again only the x-moved entities against the
    kept extents and skips each target that is still left in place: no
    moved entity is the target or one of its old or new neighbours, and a
    verdict reads only those."""
    (fall,) = rule.effects
    entities = ctx.entities
    view = geometry.int_view(state)
    meet = geometry.extents_meet
    carried = view.sweep
    if carried is not None and carried[0][0] is ctx and carried[0][1] == fall:
        (_, _, extents, neighbours, left), moved, x_moved = carried
        extents, neighbours, left = dict(extents), dict(neighbours), set(left) - moved
        x_moved = [m for m in x_moved if m in entities]
        for m in x_moved:
            extents[m] = geometry.horizontal_interval(state, entities[m])
        for m in x_moved:  # the lists are shared with the parent sweep, so replaced, never changed
            mine = extents[m]
            near = [e for e, extent in extents.items() if meet(mine, extent)]
            old = neighbours[m]
            for e in near:
                if e not in old and e != m:
                    neighbours[e] = neighbours[e] + [m]
            for e in old:
                if e not in near and e != m:
                    neighbours[e] = [o for o in neighbours[e] if o != m]
            left.difference_update(old)
            neighbours[m] = near
        for m in moved:
            left.difference_update(neighbours.get(m, ()))
    else:
        extents = {e: geometry.horizontal_interval(state, decl) for e, decl in entities.items()}
        neighbours = {e: [o for o, other in extents.items() if meet(mine, other)] for e, mine in extents.items()}
        left = set()
    eps = view.floor(ctx.epsilon)
    out: list[tuple] = []
    for target in targets:
        if target in left:
            continue
        decl = entities[target]
        base = geometry.bottom(state, decl)
        if base is None:
            continue
        below = []  # the tops of the other neighbours at or below `base`
        for y in neighbours[target]:
            surface = geometry.top(state, entities[y])
            if surface is None:
                continue
            # rel_on(x, y) is contact, top(y) - bottom(x) <= epsilon, and the
            # horizontal overlap that the sweep found. Contact implies
            # bottom(x) - top(y) <= epsilon too: for every pair `touches`
            # decides, it bounds the centers' vertical distance less the
            # half-heights by epsilon
            if abs(surface - base) <= eps and geometry.touches(state, ctx, decl, entities[y]):
                break
            if surface <= base and y != target:
                below.append(surface)
        else:
            drop = _clamped_drop(view.scale, base, below, fall.delta)
            if drop != 0:
                out.append(("delta", target, "y", -drop))
                continue
        left.add(target)
    view.sweep = (ctx, fall, extents, neighbours, left), frozenset(), frozenset()
    return out


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

    def value(eff: SetParam | DeltaParam) -> Fraction:
        result = eval_num_expr(eff.expr, working, ctx, binding)
        if result.__class__ is Fraction:
            return result
        if isinstance(result, float) and not math.isfinite(result):
            what = f"the effect on {resolve(eff.target)}.{eff.param}"
            raise ValueOutOfRange(f"{what} is beyond the floating-point range")
        return Fraction(result)

    out: list[tuple] = []
    for eff in rule.effects:
        if isinstance(eff, SetParam):
            out.append(("set", resolve(eff.target), eff.param, value(eff)))
        elif isinstance(eff, DeltaParam):
            out.append(("delta", resolve(eff.target), eff.param, value(eff)))
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


def _stratum_slots(values: dict, effects: Iterable[tuple]) -> dict[tuple[str, str], list]:
    """One stratum's parameter effects by (entity, param), in the order the
    keys first appear: [assigned value or None, summed delta, any delta].
    Raises on disagreeing assignments, on a key both assigned and
    incremented, and on a key `values` lacks."""
    by_key: dict[tuple[str, str], list] = {}
    for eff in effects:
        if eff[0] not in ("set", "delta"):
            continue
        _, entity, param, value = eff
        slot = by_key.setdefault((entity, param), [None, 0, False])
        if eff[0] == "set":
            if slot[0] is not None and slot[0] != value:
                raise ConflictingEffects(_CONFLICTING.format(entity, param, slot[0], value))
            slot[0] = value
        else:
            slot[1] = slot[1] + value if slot[2] else value
            slot[2] = True
    for (entity, param), (assigned, _, has_delta) in by_key.items():
        if assigned is not None and has_delta:
            raise ConflictingEffects(_ASSIGNED_AND_INCREMENTED.format(entity, param))
        if (entity, param) not in values:
            raise UnknownParameter(f"no value for {entity}.{param}")
    return by_key


_CONFLICTING = "conflicting assignments to {}.{}: {} vs {}"
_ASSIGNED_AND_INCREMENTED = "{}.{} is both assigned and incremented in one step"


@dataclass
class StepPlan:
    """What every step of one simulation shares: the strata, each rule with
    its scope targets ([None] for an unscoped rule)."""

    strata: list[list[tuple[Rule, list]]]

    @classmethod
    def build(cls, strata: list[list[Rule]], ctx: EvalContext) -> "StepPlan":
        return cls([[(rule, _scope_targets(rule, ctx) if rule.scope else [None]) for rule in s] for s in strata])


def step(
    state: State,
    rules: Sequence[Rule],
    ctx: EvalContext,
    plan: Optional[StepPlan] = None,
) -> State:
    """Compute the successor state; `plan`, of `StepPlan.build`, saves
    computing the strata and the scopes again.

    Rules fire by stratum against the current state with earlier strata's
    effects visible; all effects then apply atomically (same-parameter deltas
    sum, disagreeing assignments are an error); everything unwritten persists;
    every force, active or passive, displaces its target and persists.

    Each stratum reads a working state of its own. A rule whose condition is
    `true` and that has no `until` fires without the formula evaluator. The
    integer view is derived only when a rule reads it, by `IntView.updated`
    from the last view built in this step, or carried by `state`, and the
    keys written since; the successor carries the last view and the keys
    written after it the same way, so the next step starts from them.
    """
    if plan is None:
        plan = StepPlan.build(stratify(rules, ctx), ctx)

    # gravity's fast path decides `not exists y. on(x, y)` for the built-in `on`
    builtin_on = "on" not in ctx.relations
    # Each stratum's effects update `values` in place once all of its rules
    # have read them, so each stratum reads a state of its own, whose
    # integer view sees its values.
    values = dict(state.values)
    # the last view built and the keys of `values` written since
    view, changed = state.view, set()
    if view is not None and view.__class__ is not geometry.IntView:
        view, changed = view[0], set(view[1])
    # Across strata: (entity, param) -> [first assigned value, any delta], in
    # the order keys first appear, and the first assignment that disagrees
    # with an earlier stratum's. Both are reported once every stratum ran.
    written: dict[tuple[str, str], list] = {}
    disagreement: Optional[str] = None
    force_effects: list[tuple] = []
    for stratum in plan.strata:
        working = State(time=0, values=values, forces=state.forces)
        if view is not None:
            object.__setattr__(working, "view", (view, changed) if changed else view)
        trace_view = None
        stratum_effects: list[tuple] = []
        for rule, targets in stratum:
            if rule.kind == "gravity" and builtin_on:
                stratum_effects.extend(_gravity_effects(rule, working, ctx, targets))
                continue
            if rule.until is None and rule.condition.__class__ is TrueF:
                for target in targets:
                    stratum_effects.extend(_concrete_effects(rule, target, working, ctx))
                continue
            if trace_view is None:
                trace_view = Trace((working,))
            for target in targets:
                binding = {rule.scope[0]: target} if rule.scope else {}
                if rule.until is not None and eval_formula(
                    rule.until, trace_view, 0, binding, ctx
                ):
                    continue
                if not eval_formula(rule.condition, trace_view, 0, binding, ctx):
                    continue
                stratum_effects.extend(_concrete_effects(rule, target, working, ctx))
        if working.view.__class__ is geometry.IntView:
            view, changed = working.view, set()
        force_effects.extend(e for e in stratum_effects if e[0] in ("addforce", "rmforce"))
        for key, (assigned, delta, has_delta) in _stratum_slots(values, stratum_effects).items():
            if assigned is not None or delta:  # a zero sum keeps the value, the same object
                values[key] = assigned if assigned is not None else values[key] + delta
                changed.add(key)
            first = written.setdefault(key, [None, False])
            if assigned is not None:
                if first[0] is None:
                    first[0] = assigned
                elif first[0] != assigned and disagreement is None:
                    disagreement = _CONFLICTING.format(*key, first[0], assigned)
            first[1] = first[1] or has_delta
    if disagreement is not None:
        raise ConflictingEffects(disagreement)
    for (entity, param), (assigned, has_delta) in written.items():
        if assigned is not None and has_delta:
            raise ConflictingEffects(_ASSIGNED_AND_INCREMENTED.format(entity, param))

    forces = set(state.forces)
    for eff in force_effects:
        if eff[0] == "addforce":
            forces.add(eff[1])
        else:
            forces = {f for f in forces if not (f.label == eff[1] and f.target == eff[2])}

    for f in state.forces:
        decl = ctx.entities.get(f.target)
        if decl is not None:
            changed.update(displace(values, decl, f.dx, f.dy))

    after = State(time=state.time + 1, values=values, forces=frozenset(forces))
    if view is not None:
        object.__setattr__(after, "view", (view, changed) if changed else view)
    return after


def simulate(
    scenario: Scenario,
    epsilon: Fraction = geometry.DEFAULT_EPSILON,
    horizon: Optional[int] = None,
) -> Trace:
    """Run a generative scenario for its horizon; state 0 comes from the
    declared initial values."""
    if not scenario.is_generative:
        raise InvalidScenario("simulate needs a generative scenario (rules + horizon)")
    T = horizon if horizon is not None else scenario.horizon
    if T is None or T < 1:
        raise InvalidScenario("simulation horizon must be at least 1")
    ctx = EvalContext.for_scenario(scenario, epsilon=epsilon)
    rules = list(scenario.rules or ())
    plan = StepPlan.build(stratify(rules, ctx), ctx)
    states = [initial_state(scenario.entities)]
    for _ in range(T - 1):
        states.append(step(states[-1], rules, ctx, plan=plan))
        # the view a state carries serves the next step only, so a trace keeps none
        object.__setattr__(states[-2], "view", None)
    return Trace(tuple(states))
