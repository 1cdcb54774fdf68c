"""Bounded model finding over a grid of positions.

Free entities range over an integer-anchored grid of positions, one position
per state; every grid assignment whose trace satisfies all axioms at instant 0
is a model. Models come in the lexicographic order of the (entity, instant)
assignments, entity by entity.

The free entities' points at one instant form a *frame*: k free entities on a
grid of |G| points have |G|^k frames. The search grounds the bound axioms
once, expanding quantifiers over their domains. It decides each ground atom
and comparison once per frame by `logic.decide`, as the evaluators do. A
built-in step relation (`motion`, `ccwStep`, `thetaStep`) is the comparison
of two reads, one per state (`geometry.Step`): each ground step atom is
read once per frame, and its value for a pair of frames is the comparison
of their reads, so |G|^k reads and |G|^2k comparisons replace |G|^2k
evaluations. It is false at the last instant, where nothing is read. The
search then counts by one backward pass over the instants. The state of
that pass at instant t is the frame at t plus the truth values at t that
instant t-1 reads: the operand of each `next`, and each `always`,
`eventually` and `until` itself. This is finite-trace temporal logic (De
Giacomo and Vardi, IJCAI 2013) decided by table. Listing walks the same tables forward and
builds a `Trace` only for a model.

The brute force checks the trace of every assignment through the naive
`logic.reference_eval`, and stays as the independent oracle
(`brute_force_models`). It also decides a theory containing `before`, which
reads the past, and any run whose tabulation raises an `IschemaError`, a
step read at any frame included, so the errors of a search are the brute
force's own.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from . import geometry, logic
from .dsl import MAX_INSTANTS
from .errors import IschemaError, SearchSpaceTooLarge, UnknownEntity, UnsupportedShapePair
from .geometry import EvalContext
from .model import Scenario, State, Theory, Trace
from .tree import all_symbols

DEFAULT_CAP = 10**7


@dataclass(frozen=True)
class GridSpec:
    """Positions to try: x in [x0, x1], y in [y0, y1], spaced by `step`."""

    x_range: tuple[int, int]
    y_range: tuple[int, int]
    free_entities: tuple[str, ...]
    step: Fraction = Fraction(1)
    horizon: int = 1
    cap: int = DEFAULT_CAP


def grid_points(spec: GridSpec) -> list[tuple[Fraction, Fraction]]:
    """Grid points in lexicographic (x, y) order."""

    def axis(lo: int, hi: int) -> list[Fraction]:
        out = []
        v = Fraction(lo)
        while v <= hi:
            out.append(v)
            v += spec.step
        return out

    xs = axis(*spec.x_range)
    ys = axis(*spec.y_range)
    return [(x, y) for x in xs for y in ys]


def _check_spec(theory: Theory, scenario: Scenario, spec: GridSpec) -> list[tuple[Fraction, Fraction]]:
    if spec.step <= 0:
        raise SearchSpaceTooLarge("grid step must be positive")
    if spec.horizon < 1:
        raise SearchSpaceTooLarge("horizon must be at least 1")
    if spec.horizon > MAX_INSTANTS:
        raise SearchSpaceTooLarge(f"horizon {spec.horizon} exceeds the limit of {MAX_INSTANTS} instants")
    entity_map = scenario.entity_map()
    for eid in spec.free_entities:
        if eid not in entity_map:
            raise UnknownEntity(f"free entity {eid!r} is not declared")
        if entity_map[eid].shape not in geometry.CENTERED:
            raise UnsupportedShapePair(
                f"free entity {eid!r} must have a center to place on the grid"
            )
    # |G| from the ranges, so an oversized grid is rejected before it is built.
    (x0, x1), (y0, y1) = spec.x_range, spec.y_range
    n_points = max(0, (x1 - x0) // spec.step + 1) * max(0, (y1 - y0) // spec.step + 1)
    slots = len(spec.free_entities) * spec.horizon
    # |G|^slots >= 2^bits > cap once bits reaches the cap's bit length. From
    # 4096 bits on the power is not computed: it can take long and be too
    # long to print.
    bits = slots * (n_points.bit_length() - 1)
    if bits >= max(spec.cap.bit_length(), 4096):
        raise SearchSpaceTooLarge(f"search space {n_points}^{slots} exceeds the cap {spec.cap}")
    size = n_points ** slots if slots else 1
    if size > spec.cap:
        raise SearchSpaceTooLarge(
            f"search space {n_points}^{slots} = {size} exceeds the cap {spec.cap}"
        )
    return grid_points(spec)


def _assignment_traces(
    scenario: Scenario, spec: GridSpec, points: Sequence[tuple[Fraction, Fraction]]
) -> Iterator[Trace]:
    """Candidate traces in lexicographic order of (entity, t, x, y) assignments."""
    base = {(e.id, name): value for e in scenario.entities for name, value in e.params}
    slots = len(spec.free_entities) * spec.horizon
    for combo in itertools.product(points, repeat=slots):
        states = []
        for t in range(spec.horizon):
            values = dict(base)
            for i, eid in enumerate(spec.free_entities):
                x, y = combo[i * spec.horizon + t]
                values[(eid, "x")] = x
                values[(eid, "y")] = y
            states.append(State(time=t, values=values))
        yield Trace(tuple(states))


def _brute_force(
    theory: Theory, scenario: Scenario, spec: GridSpec, points, binding: Mapping[str, str], ctx: EvalContext
) -> Iterator[Trace]:
    for trace in _assignment_traces(scenario, spec, points):
        if all(
            logic.reference_eval(axiom, trace, 0, binding, ctx) for axiom in theory.axioms
        ):
            yield trace


# --- the tables ------------------------------------------------------------------

# Formula classes as ground node kinds; true and false are the empty
# conjunction and disjunction.
_KINDS = {
    logic.TrueF: "all", logic.And: "all", logic.Forall: "all",
    logic.FalseF: "any", logic.Or: "any", logic.Exists: "any",
    logic.Not: "not", logic.Implies: "implies", logic.Next: "next",
    logic.Always: "always", logic.Eventually: "eventually", logic.Until: "until",
}
_LAST = -1  # the values read from the next instant, at the last instant: none


class _Ground:
    """The bound axioms as one ground formula DAG, children before parents.

    Quantifiers are expanded over their domains. A node is (kind, child ids...)
    or a leaf: ("frame", i) for the i-th atom or comparison of `local`,
    decided per frame; ("pair", i) for the i-th atom of `steps`, read per
    frame and compared per pair of frames; ("final",). Equal nodes share one
    id, so an atom that recurs with its symbols bound alike is decided once.
    """

    def __init__(self, theory: Theory, binding: Mapping[str, str], ctx: EvalContext):
        self.ctx = ctx
        self.nodes: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self.local: list[tuple] = []  # (atom or comparison, binding)
        self.steps: list[tuple] = []  # (step atom, binding)
        self._leaves: dict[tuple, int] = {}
        scope = dict(binding)
        self.axioms = [self._ground(axiom, scope) for axiom in theory.axioms]
        # The nodes whose values at t+1 instant t reads, each with its place
        # in the tuple of those values.
        self.slot: dict[int, int] = {}
        for i, (kind, *args) in enumerate(self.nodes):
            if kind == "next":
                self.slot.setdefault(args[0], len(self.slot))
            elif kind in ("always", "eventually", "until"):
                self.slot.setdefault(i, len(self.slot))

    def _add(self, node: tuple) -> int:
        if node not in self._ids:
            self._ids[node] = len(self.nodes)
            self.nodes.append(node)
        return self._ids[node]

    def _ground(self, phi: logic.Formula, scope: dict) -> int:
        if type(phi) in logic.LEAVES:
            pair = isinstance(phi, logic.Atom) and geometry.reads_next_state(phi.relation, self.ctx)
            table = self.steps if pair else self.local
            # the binding matters to an atom only at the symbols it names
            key = phi, tuple(sorted((name, scope[name]) for name in all_symbols(phi) if name in scope))
            i = self._leaves.setdefault(key, len(table))
            if i == len(table):
                table.append((phi, scope))
            return self._add(("pair" if pair else "frame", i))
        if isinstance(phi, logic.Final):
            return self._add(("final",))
        kind = _KINDS.get(type(phi))
        if kind is None:
            raise TypeError(f"not a formula: {phi!r}")
        if isinstance(phi, (logic.Forall, logic.Exists)):
            children = [self._ground(phi.body, {**scope, phi.var: e}) for e in self.ctx.domain(phi.sort)]
        else:
            children = [self._ground(child, scope) for child in phi.children]
        return self._add((kind, *children))

    def values(self, local: tuple, pair: tuple, later: Optional[tuple]) -> list:
        """Every node's truth at one instant, from the frame atoms `local`, the
        step atoms `pair` and the values `later` of the read nodes at the next
        instant, None at the last."""
        vals: list = []
        slot = self.slot
        for i, (kind, *args) in enumerate(self.nodes):
            if kind == "frame":
                v = local[args[0]]
            elif kind == "pair":
                v = pair[args[0]]
            elif kind == "final":
                v = later is None
            elif kind == "all":
                v = all(vals[a] for a in args)
            elif kind == "any":
                v = any(vals[a] for a in args)
            elif kind == "not":
                v = not vals[args[0]]
            elif kind == "implies":
                v = not vals[args[0]] or vals[args[1]]
            elif kind == "next":
                v = later is not None and later[slot[args[0]]]
            elif kind == "always":
                v = vals[args[0]] and (later is None or later[slot[i]])
            elif kind == "eventually":
                v = vals[args[0]] or (later is not None and later[slot[i]])
            else:  # until
                v = vals[args[1]] or (vals[args[0]] and later is not None and later[slot[i]])
            vals.append(v)
        return vals


class _Tables:
    """Per-frame decisions and the backward pass of one search.

    Frame f places free entity i on the point of its i-th base-|G| digit,
    most significant first, so frames run in the order of
    `itertools.product(points, repeat=k)`. Tuples of truth values are
    interned as small ids: a frame's atoms (`local`), the step atoms at the
    last instant (`end`, all false) and of a pair of frames (`pair`, the
    comparisons of the two frames' reads), and the read values of an
    instant. `_counts(t, f)` counts, for each id of the read values at t,
    the suffixes from instant t that start at frame f; at instant 0 it
    counts by whether every axiom holds instead. `layers` holds
    them for every instant but the last, whose counts follow from the frame.
    """

    def __init__(self, ground: _Ground, scenario: Scenario, spec: GridSpec, points):
        self.ground = ground
        self.free = spec.free_entities
        self.points = points
        self.horizon = spec.horizon
        self.base = {(e.id, name): value for e in scenario.entities for name, value in e.params}
        self.n_frames = len(points) ** len(self.free)
        self._ids: dict[tuple, int] = {}
        self._tuples: list[tuple] = []
        self._memo: dict[tuple[int, int, int], tuple[int, bool]] = {}
        self.local: list[int] = []
        ctx = ground.ctx
        # Each step atom's row and entities, its arity checked once. Its
        # entity arguments do not depend on the frame, and numeric ones fail
        # the check wherever they are read.
        declared = State(time=0, values=self.base)
        steps = [geometry.builtin(atom.relation, *logic.resolve_args(atom, declared, env, ctx), ctx)
                 for atom, env in ground.steps]
        pairs = bool(steps) and self.horizon > 1
        reads = []
        for f in range(self.n_frames):
            state = State(time=0, values=self._values(f))
            local = [logic.decide(phi, (state,), 0, env, ctx) for phi, env in ground.local]
            self.local.append(self._intern(tuple(local)))
            if pairs:
                reads.append([row.step.read(state, decls) for row, decls in steps])
        advances = [row.step.advances for row, _ in steps]
        self.pair = [
            [self._intern(tuple([adv(a, b) for adv, a, b in zip(advances, now, later)])) for later in reads]
            for now in reads
        ] if pairs else None
        # A step relation is false at the last instant. Without a pair table
        # there is no step atom, or no instant but the last.
        self.end = self._intern((False,) * len(steps))
        self.layers: list[list[Counter]] = [[] for _ in range(self.horizon - 1)]
        for t in range(self.horizon - 2, -1, -1):
            self.layers[t] = self._backward(t)

    def _intern(self, values: tuple) -> int:
        if values not in self._ids:
            self._ids[values] = len(self._tuples)
            self._tuples.append(values)
        return self._ids[values]

    def _digits(self, f: int) -> list[int]:
        out = []
        for _ in self.free:
            f, d = divmod(f, len(self.points))
            out.append(d)
        return out[::-1]

    def _values(self, f: int) -> dict:
        values = dict(self.base)
        for eid, p in zip(self.free, self._digits(f)):
            values[(eid, "x")], values[(eid, "y")] = self.points[p]
        return values

    def _value(self, t: int, local: int, pair: int, later: int):
        """The id of the read values at instant t, or at instant 0 whether
        every axiom holds, given the frame's atoms, the step atoms and the id
        of the read values at t+1 (`_LAST` at the last instant)."""
        key = (local, pair, later)
        found = self._memo.get(key)
        if found is None:
            ground = self.ground
            vals = ground.values(
                self._tuples[local], self._tuples[pair], None if later == _LAST else self._tuples[later]
            )
            read = self._intern(tuple([vals[i] for i in ground.slot]))
            found = self._memo[key] = (read, all(vals[i] for i in ground.axioms))
        return found[1] if t == 0 else found[0]

    def _counts(self, t: int, f: int) -> Mapping:
        if t == self.horizon - 1:
            return {self._value(t, self.local[f], self.end, _LAST): 1}
        return self.layers[t][f]

    def _backward(self, t: int) -> list[Counter]:
        """The layer of instant t, from that of t+1."""
        later = [self._counts(t + 1, g) for g in range(self.n_frames)]
        if self.pair is None:  # the next frame counts only through its read values
            merged: Counter = Counter()
            for counts in later:
                merged.update(counts)
        layer = []
        for f in range(self.n_frames):
            local, out = self.local[f], Counter()
            rows = zip(self.pair[f], later) if self.pair is not None else ((self.end, merged),)
            for pair, counts in rows:
                for w, c in counts.items():
                    out[self._value(t, local, pair, w)] += c
            layer.append(out)
        return layer

    def count(self) -> int:
        return sum(self._counts(0, f).get(True, 0) for f in range(self.n_frames))

    def paths(self) -> Iterator[tuple[int, ...]]:
        """Each model's frames, instant by instant, in lexicographic order: a
        depth-first walk that keeps, with a prefix, the read values at its
        last instant that complete it to a model."""
        T = self.horizon
        path = [0] * T
        stack = [(0, f, {True}) for f in reversed(range(self.n_frames)) if self._counts(0, f).get(True)]
        while stack:
            t, f, wanted = stack.pop()
            path[t] = f
            if t == T - 1:
                yield tuple(path)
                continue
            children = []
            for g in range(self.n_frames):
                pair = self.pair[f][g] if self.pair is not None else self.end
                fits = {w for w in self._counts(t + 1, g) if self._value(t, self.local[f], pair, w) in wanted}
                if fits:
                    children.append((t + 1, g, fits))
            stack.extend(reversed(children))

    def traces(self) -> Iterator[Trace]:
        """The models in the order of `_assignment_traces`; states of one
        frame at one instant are shared between them."""
        paths = self.paths()
        if len(self.free) > 1 and self.horizon > 1:  # entity by entity, not instant by instant
            paths = sorted(paths, key=lambda path: tuple(zip(*map(self._digits, path))))
        states: dict[tuple[int, int], State] = {}
        for path in paths:
            trace = []
            for t, f in enumerate(path):
                if (t, f) not in states:
                    states[(t, f)] = State(time=t, values=self._values(f))
                trace.append(states[(t, f)])
            yield Trace(tuple(trace))


def _prepare(theory, scenario, spec, binding, ctx) -> tuple[list, EvalContext]:
    """The grid points and the evaluation context, `ctx` or else the default
    one, once the search is known to be within the cap and the binding to be
    sound."""
    points = _check_spec(theory, scenario, spec)
    if ctx is None:
        ctx = EvalContext.for_scenario(scenario, theory)
    logic.validate_binding(theory, binding, ctx)
    return points, ctx


def _has_before(node) -> bool:
    return isinstance(node, logic.Before) or any(map(_has_before, node.children))


def _search(
    theory: Theory, scenario: Scenario, spec: GridSpec, binding: Mapping[str, str], ctx: Optional[EvalContext]
) -> "_Tables | Iterator[Trace]":
    """The tables of the search or, for a theory with `before` and for a
    tabulation that raises, the brute force's models."""
    points, ctx = _prepare(theory, scenario, spec, binding, ctx)
    if not any(map(_has_before, theory.axioms)):
        try:
            return _Tables(_Ground(theory, binding, ctx), scenario, spec, points)
        except IschemaError:
            pass
    return _brute_force(theory, scenario, spec, points, binding, ctx)


def _models(
    theory: Theory, scenario: Scenario, spec: GridSpec, binding: Mapping[str, str], ctx: Optional[EvalContext]
) -> Iterator[Trace]:
    found = _search(theory, scenario, spec, binding, ctx)
    yield from found.traces() if isinstance(found, _Tables) else found


def enumerate_models(
    theory: Theory,
    scenario: Scenario,
    spec: GridSpec,
    binding: Mapping[str, str],
    ctx: Optional[EvalContext] = None,
) -> list[Trace]:
    """All grid traces satisfying every axiom at instant 0, in enumeration
    order. `ctx`, a context for the theory and the scenario, holds the
    tolerances; None means `EvalContext.for_scenario(scenario, theory)`, with
    the default ones."""
    return list(_models(theory, scenario, spec, binding, ctx))


def count_models(
    theory: Theory,
    scenario: Scenario,
    spec: GridSpec,
    binding: Mapping[str, str],
    ctx: Optional[EvalContext] = None,
) -> int:
    """len(enumerate_models(...)), counted from the tables without listing."""
    found = _search(theory, scenario, spec, binding, ctx)
    return found.count() if isinstance(found, _Tables) else sum(1 for _ in found)


def brute_force_models(
    theory: Theory,
    scenario: Scenario,
    spec: GridSpec,
    binding: Mapping[str, str],
    ctx: Optional[EvalContext] = None,
) -> list[Trace]:
    """`enumerate_models` by the oracle: every assignment's trace checked
    through `logic.reference_eval`."""
    points, ctx = _prepare(theory, scenario, spec, binding, ctx)
    return list(_brute_force(theory, scenario, spec, points, binding, ctx))
