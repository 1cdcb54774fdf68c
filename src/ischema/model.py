"""Core data model: order-sorted entities, parametric shapes, states, traces.

The declared fields of every value here are immutable after construction.
Three caches are filled in lazily, outside equality and the repr:
`State.view` (`geometry.int_view`, whose `IntView.sweep` gravity fills in
too) and `Trace.change_record`. So share a state or a trace between threads
only behind a lock. All parameter values are exact rationals
(`fractions.Fraction`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    BadShapeForSort,
    DuplicateEntity,
    InvalidScenario,
    NegativeExtent,
    UnknownParameter,
    UnknownSort,
)

Rational = Fraction


class ShapeKind(str, Enum):
    POINT = "Point"
    CIRCLE = "Circle"
    RECTANGLE = "Rectangle"
    SEGMENT = "Segment"
    FLOOR = "Floor"


# Geometric parameter lists are fixed per shape. Rectangles are axis-aligned
# and anchored at their center; Floor is a horizontal line of infinite extent.
SHAPE_PARAMS: dict[ShapeKind, tuple[str, ...]] = {
    ShapeKind.POINT: ("x", "y"),
    ShapeKind.CIRCLE: ("x", "y", "r"),
    ShapeKind.RECTANGLE: ("x", "y", "w", "h"),
    ShapeKind.SEGMENT: ("x1", "y1", "x2", "y2"),
    ShapeKind.FLOOR: ("y",),
}

# Extent parameters must stay strictly positive.
EXTENT_PARAMS = frozenset({"r", "w", "h"})

# Position parameters shifted by translations and force displacements.
POSITION_X: dict[ShapeKind, tuple[str, ...]] = {
    ShapeKind.POINT: ("x",),
    ShapeKind.CIRCLE: ("x",),
    ShapeKind.RECTANGLE: ("x",),
    ShapeKind.SEGMENT: ("x1", "x2"),
    ShapeKind.FLOOR: (),
}
POSITION_Y: dict[ShapeKind, tuple[str, ...]] = {
    ShapeKind.POINT: ("y",),
    ShapeKind.CIRCLE: ("y",),
    ShapeKind.RECTANGLE: ("y",),
    ShapeKind.SEGMENT: ("y1", "y2"),
    ShapeKind.FLOOR: ("y",),
}


@dataclass(frozen=True)
class Sort:
    """A named sort with at most one parent; the graph is a forest under Entity."""

    name: str
    parent: Optional[str] = None
    span: object = field(default=None, compare=False, repr=False)  # of the name, when parsed
    parent_span: object = field(default=None, compare=False, repr=False)  # of the parent's name


BUILTIN_SORTS: tuple[Sort, ...] = (
    Sort("Entity", None),
    Sort("Object", "Entity"),
    Sort("Container", "Entity"),
    Sort("Path", "Entity"),
    Sort("Region", "Entity"),
    Sort("Floor", "Entity"),
    Sort("Circle", "Container"),
    Sort("Rectangle", "Container"),
)

# Which shapes an entity may take at each built-in sort, the only sorts an
# entity may have.
ADMISSIBLE_SHAPES: dict[str, frozenset[ShapeKind]] = {
    "Entity": frozenset(ShapeKind),
    "Object": frozenset({ShapeKind.POINT}),
    "Container": frozenset({ShapeKind.CIRCLE, ShapeKind.RECTANGLE}),
    "Circle": frozenset({ShapeKind.CIRCLE}),
    "Rectangle": frozenset({ShapeKind.RECTANGLE}),
    "Path": frozenset({ShapeKind.SEGMENT}),
    "Region": frozenset({ShapeKind.POINT, ShapeKind.CIRCLE, ShapeKind.RECTANGLE}),
    "Floor": frozenset({ShapeKind.FLOOR}),
}


class SortHierarchy:
    """The sort forest: built-ins plus optional user sorts.

    Cycles and unknown parents are rejected at construction, at the span of
    the declaration at fault: the parent's name for an unknown parent, the
    sort's own name otherwise.
    """

    def __init__(self, extra: Iterable[Sort] = ()):
        self._parent: dict[str, Optional[str]] = {s.name: s.parent for s in BUILTIN_SORTS}
        declared: dict[str, Sort] = {}
        for s in extra:
            if s.name in self._parent:
                raise UnknownSort(f"sort {s.name!r} is already declared", s.span)
            if s.parent is None:
                raise UnknownSort(f"sort {s.name!r} must name a parent sort", s.span)
            self._parent[s.name] = s.parent
            declared[s.name] = s
        # The built-in sorts form a tree, so a cycle or an unknown parent is
        # met only on the way up from a declared sort.
        for decl in declared.values():
            seen = set()
            while decl is not None:
                if decl.name in seen:
                    raise UnknownSort(f"sort hierarchy has a cycle through {decl.name!r}", decl.span)
                if decl.parent not in self._parent:
                    raise UnknownSort(f"unknown sort {decl.parent!r}", decl.parent_span)
                seen.add(decl.name)
                decl = declared.get(decl.parent)

    def _walk_to_root(self, name: str) -> list[str]:
        if name not in self._parent:
            raise UnknownSort(f"unknown sort {name!r}")
        chain = []
        while name is not None:
            chain.append(name)
            name = self._parent[name]
        return chain

    def known(self, name: str) -> bool:
        return name in self._parent

    def subsort_of(self, s: str, t: str) -> bool:
        """True iff s equals t or is a transitive descendant of t."""
        if t not in self._parent:
            raise UnknownSort(f"unknown sort {t!r}")
        return t in self._walk_to_root(s)

    def sort_names(self) -> tuple[str, ...]:
        return tuple(self._parent)


BUILTIN_HIERARCHY = SortHierarchy()


def subsort_of(s: str, t: str) -> bool:
    """Reflexive-transitive subsort test over the built-in sorts."""
    return BUILTIN_HIERARCHY.subsort_of(s, t)


@dataclass(frozen=True)
class EntityDecl:
    """A declared entity: id, sort, shape and (ordered) initial parameters.

    `params` starts with the shape's geometric parameters, in their canonical
    order, optionally followed by extra named attributes (e.g. `open`).
    """

    id: str
    sort: str
    shape: ShapeKind
    params: tuple[tuple[str, Fraction], ...]

    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.params)

    def initial(self, name: str) -> Fraction:
        for pname, value in self.params:
            if pname == name:
                return value
        raise UnknownParameter(f"{self.id} has no parameter {name!r}")


def _exact(v: Rational | int | str) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


def make_entity(
    id: str,
    sort: str,
    shape: ShapeKind,
    values: Sequence[Rational | int | str],
    attrs: Sequence[tuple[str, Rational | int | str]] = (),
) -> EntityDecl:
    """Build and validate one entity declaration."""
    admissible = ADMISSIBLE_SHAPES.get(sort)
    if admissible is None:
        raise UnknownSort(f"unknown sort {sort!r} for entity {id!r}")
    if shape not in admissible:
        raise BadShapeForSort(f"shape {shape.value} is not admissible at sort {sort!r}")
    names = SHAPE_PARAMS[shape]
    if len(values) != len(names):
        raise InvalidScenario(
            f"{shape.value} takes {len(names)} parameters {names}, got {len(values)}"
        )
    params = [(n, _exact(v)) for n, v in zip(names, values)]
    for aname, avalue in attrs:
        if aname in names:
            raise InvalidScenario(f"attribute {aname!r} collides with a shape parameter")
        params.append((aname, _exact(avalue)))
    for name, value in params:
        if name in EXTENT_PARAMS and value <= 0:
            raise NegativeExtent(f"{id}.{name} = {value} must be positive")
    return EntityDecl(id=id, sort=sort, shape=shape, params=tuple(params))


@dataclass(frozen=True)
class ForceFluent:
    """A persistent per-step displacement acting on one entity."""

    label: str
    target: str
    dx: Fraction
    dy: Fraction
    mode: str = "active"  # "active" or "passive"


@dataclass(frozen=True)
class State:
    """Total assignment of values to every (entity, parameter) pair at one instant."""

    time: int
    values: Mapping[tuple[str, str], Fraction]
    forces: frozenset[ForceFluent] = frozenset()
    # geometry.int_view's cache: built on first use, never copied by
    # `dataclasses.replace`. Values must not change once it is built. It may
    # hold a (view, keys) pair instead: the view of values that differ from
    # these at most at `keys`, from which the state's own view is derived by
    # the changed keys, never by the identity of a values object.
    view: Optional[object] = field(default=None, init=False, compare=False, repr=False)

    def value(self, entity: str, param: str) -> Fraction:
        try:
            return self.values[(entity, param)]
        except KeyError:
            raise UnknownParameter(f"no value for {entity}.{param}") from None


@dataclass(frozen=True)
class Trace:
    """Finite state sequence; state i carries time index i."""

    states: tuple[State, ...]
    # `changes`' record: built on first use, never copied by `suffix`.
    change_record: Optional[dict] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.states) < 1:
            raise InvalidScenario("a trace needs at least one state")
        keys = self.states[0].values.keys()
        for i, s in enumerate(self.states):
            if s.time != i:
                raise InvalidScenario(f"state at position {i} has time index {s.time}")
            if s.values.keys() != keys:
                raise InvalidScenario(f"state {i} does not share the trace's key set")

    @property
    def length(self) -> int:
        return len(self.states)

    def changes(self) -> Mapping[str, list[int]]:
        """Each entity that ever changes -> the instants c >= 1, ascending, at
        which one of its values differs from instant c - 1. A value written
        back equal to the one before is no change."""
        record = self.change_record
        if record is None:
            record = {}
            for c in range(1, len(self.states)):
                before = self.states[c - 1].values
                for entity in {key[0] for key, v in self.states[c].values.items()
                               if v is not before[key] and v != before[key]}:
                    record.setdefault(entity, []).append(c)
            object.__setattr__(self, "change_record", record)
        return record

    def suffix(self, start: int) -> "Trace":
        """The sub-trace from `start` on, re-indexed from time 0."""
        if not 0 <= start < self.length:
            raise InvalidScenario(f"suffix start {start} out of range")
        states = tuple(
            dataclasses.replace(s, time=i) for i, s in enumerate(self.states[start:])
        )
        return Trace(states)


@dataclass(frozen=True)
class RelationSig:
    """Relation signature; definition is a builtin tag or a constraint template.

    A template constraint refers to its arguments through the reserved slot
    names arg1, arg2, ... A signature without a definition refines the sort
    contract of a builtin relation of the same name.
    """

    name: str
    arg_sorts: tuple[str, ...]
    definition: object = None  # None (builtin/abstract) or a logic.Compare over arg1, arg2, ...
    sort_spans: tuple = field(default=(), compare=False, repr=False)  # of the arg sorts' names


@dataclass(frozen=True)
class Theory:
    """A named constraint set: one image schema or scenario check."""

    name: str
    sorts: tuple[Sort, ...] = ()
    roles: tuple[tuple[str, str], ...] = ()  # (role, sort)
    relations: tuple[RelationSig, ...] = ()
    axioms: tuple = ()  # of logic.Formula
    numeric_params: tuple[tuple[str, Fraction], ...] = ()
    role_spans: tuple = field(default=(), compare=False, repr=False)  # of the roles' sort names

    def hierarchy(self) -> SortHierarchy:
        return SortHierarchy(self.sorts)

    def params_map(self) -> dict[str, Fraction]:
        return dict(self.numeric_params)


@dataclass(frozen=True)
class Scenario:
    """Either a concrete scenario (entities + trace) or a generative one
    (entities + rules + horizon)."""

    entities: tuple[EntityDecl, ...]
    trace: Optional[Trace] = None
    rules: Optional[tuple] = None  # of dynamics.Rule
    horizon: Optional[int] = None
    name: str = "scenario"

    def entity_map(self) -> dict[str, EntityDecl]:
        return {e.id: e for e in self.entities}

    @property
    def is_generative(self) -> bool:
        return self.rules is not None


def initial_state(entities: Sequence[EntityDecl], forces: frozenset[ForceFluent] = frozenset()) -> State:
    values = {(e.id, name): value for e in entities for name, value in e.params}
    return State(time=0, values=values, forces=forces)


def declare_scenario(
    entities: Sequence[EntityDecl],
    trace: Optional[Trace] = None,
    rules: Optional[Sequence] = None,
    horizon: Optional[int] = None,
    name: str = "scenario",
) -> Scenario:
    """Validate and assemble a scenario.

    Exactly one of `trace` and `rules`+`horizon` must be given. Generative
    scenarios get their implicit state 0 from the declared initial values at
    simulation time.
    """
    seen: set[str] = set()
    for e in entities:
        if e.id in seen:
            raise DuplicateEntity(f"entity {e.id!r} declared twice")
        seen.add(e.id)
        admissible = ADMISSIBLE_SHAPES.get(e.sort)
        if admissible is None:
            raise UnknownSort(f"unknown sort {e.sort!r} for entity {e.id!r}")
        if e.shape not in admissible:
            raise BadShapeForSort(
                f"entity {e.id!r}: shape {e.shape.value} is not admissible at sort {e.sort!r}"
            )
        shape_names = SHAPE_PARAMS[e.shape]
        if e.param_names()[: len(shape_names)] != shape_names:
            raise InvalidScenario(
                f"entity {e.id!r} must list the {e.shape.value} parameters {shape_names} first"
            )
        for pname, value in e.params:
            if pname in EXTENT_PARAMS and value <= 0:
                raise NegativeExtent(f"{e.id}.{pname} = {value} must be positive")

    has_trace = trace is not None
    has_rules = rules is not None and horizon is not None
    if has_trace == has_rules:
        raise InvalidScenario("a scenario is either concrete (trace) or generative (rules + horizon)")
    if has_rules and horizon < 1:
        raise InvalidScenario("horizon must be at least 1")

    if has_trace:
        keys = {(e.id, name) for e in entities for name, _ in e.params}
        for s in trace.states:
            if s.values.keys() != keys:
                raise InvalidScenario(
                    f"state {s.time} is not a total assignment over the declared parameters"
                )

    return Scenario(
        entities=tuple(entities),
        trace=trace,
        rules=tuple(rules) if rules is not None else None,
        horizon=horizon,
        name=name,
    )


def displace(
    values: dict[tuple[str, str], Fraction], decl: EntityDecl, dx: Fraction, dy: Fraction
) -> list[tuple[str, str]]:
    """Shift `decl`'s position parameters in an (entity, param)-keyed dict;
    an axis shifted by 0 keeps its values, the same objects. Returns the
    keys written."""
    written = []
    for names, d in ((POSITION_X[decl.shape], dx), (POSITION_Y[decl.shape], dy)):
        if d:
            for p in names:
                values[(decl.id, p)] += d
                written.append((decl.id, p))
    return written


def translate_entity(e: EntityDecl, dx: Fraction, dy: Fraction) -> EntityDecl:
    values = {(e.id, n): v for n, v in e.params}
    displace(values, e, dx, dy)
    return dataclasses.replace(e, params=tuple((n, values[(e.id, n)]) for n, _ in e.params))


def translate_scenario(sc: Scenario, dx: Rational | int, dy: Rational | int) -> Scenario:
    """Shift every entity (declarations and trace values) by (dx, dy)."""
    dx, dy = Fraction(dx), Fraction(dy)
    entities = tuple(translate_entity(e, dx, dy) for e in sc.entities)
    trace = sc.trace
    if trace is not None:
        states = []
        for s in trace.states:
            values = dict(s.values)
            for e in sc.entities:
                displace(values, e, dx, dy)
            states.append(dataclasses.replace(s, values=values))
        trace = Trace(tuple(states))
    return dataclasses.replace(sc, entities=entities, trace=trace)
