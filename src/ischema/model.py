"""Core data model: order-sorted entities, parametric shapes, states, traces.

Everything here is immutable after construction and safe to share between
threads. All parameter values are exact rationals (`fractions.Fraction`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    BadShapeForSort,
    DuplicateEntity,
    InvalidScenario,
    NegativeExtent,
    UnknownEntity,
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

# Which shapes an entity may take at each built-in sort. User-declared sorts
# inherit the admissible set of their nearest built-in ancestor.
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

    Cycles and unknown parents are rejected at construction.
    """

    def __init__(self, extra: Iterable[Sort] = ()):
        self._parent: dict[str, Optional[str]] = {}
        for s in BUILTIN_SORTS:
            self._parent[s.name] = s.parent
        for s in extra:
            if s.name in self._parent:
                raise UnknownSort(f"sort {s.name!r} is already declared")
            if s.parent is None:
                raise UnknownSort(f"sort {s.name!r} must name a parent sort")
            self._parent[s.name] = s.parent
        for name in self._parent:
            self._walk_to_root(name)

    def _walk_to_root(self, name: str) -> list[str]:
        chain = []
        seen = set()
        cur: Optional[str] = name
        while cur is not None:
            if cur in seen:
                raise UnknownSort(f"sort hierarchy has a cycle through {cur!r}")
            if cur not in self._parent:
                raise UnknownSort(f"unknown sort {cur!r}")
            seen.add(cur)
            chain.append(cur)
            cur = self._parent[cur]
        return chain

    def known(self, name: str) -> bool:
        return name in self._parent

    def subsort_of(self, s: str, t: str) -> bool:
        """True iff s equals t or is a transitive descendant of t."""
        if t not in self._parent:
            raise UnknownSort(f"unknown sort {t!r}")
        return t in self._walk_to_root(s)

    def builtin_ancestor(self, name: str) -> str:
        for anc in self._walk_to_root(name):
            if anc in ADMISSIBLE_SHAPES:
                return anc
        return "Entity"

    def admissible(self, sort: str, shape: ShapeKind) -> bool:
        return shape in ADMISSIBLE_SHAPES[self.builtin_ancestor(sort)]

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


def make_entity(
    id: str,
    sort: str,
    shape: ShapeKind,
    values: Sequence[Rational | int | str],
    attrs: Sequence[tuple[str, Rational | int | str]] = (),
) -> EntityDecl:
    """Build and validate one entity declaration."""
    if not BUILTIN_HIERARCHY.known(sort):
        raise UnknownSort(f"unknown sort {sort!r} for entity {id!r}")
    if not BUILTIN_HIERARCHY.admissible(sort, shape):
        raise BadShapeForSort(f"shape {shape.value} is not admissible at sort {sort!r}")
    names = SHAPE_PARAMS[shape]
    if len(values) != len(names):
        raise InvalidScenario(
            f"{shape.value} takes {len(names)} parameters {names}, got {len(values)}"
        )
    params = [(n, Fraction(v)) for n, v in zip(names, values)]
    for aname, avalue in attrs:
        if aname in names:
            raise InvalidScenario(f"attribute {aname!r} collides with a shape parameter")
        params.append((aname, Fraction(avalue)))
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

    def value(self, entity: str, param: str) -> Fraction:
        try:
            return self.values[(entity, param)]
        except KeyError:
            raise UnknownParameter(f"no value for {entity}.{param}") from None


@dataclass(frozen=True)
class Trace:
    """Finite state sequence; state i carries time index i."""

    states: tuple[State, ...]

    def __post_init__(self):
        if len(self.states) < 1:
            raise InvalidScenario("a trace needs at least one state")
        keys = set(self.states[0].values)
        for i, s in enumerate(self.states):
            if s.time != i:
                raise InvalidScenario(f"state at position {i} has time index {s.time}")
            if set(s.values) != keys:
                raise InvalidScenario(f"state {i} does not share the trace's key set")

    @property
    def length(self) -> int:
        return len(self.states)

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
    definition: object = None  # None (builtin/abstract) or geometry.ConstraintAtom


@dataclass(frozen=True)
class Theory:
    """A named constraint set: one image schema or scenario check."""

    name: str
    sorts: tuple[Sort, ...] = ()
    roles: tuple[tuple[str, str], ...] = ()  # (role, sort)
    relations: tuple[RelationSig, ...] = ()
    axioms: tuple = ()  # of logic.Formula
    numeric_params: tuple[tuple[str, Fraction], ...] = ()

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

    def entity(self, id: str) -> EntityDecl:
        for e in self.entities:
            if e.id == id:
                return e
        raise UnknownEntity(f"unknown entity {id!r}")

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
        if not BUILTIN_HIERARCHY.known(e.sort):
            raise UnknownSort(f"unknown sort {e.sort!r} for entity {e.id!r}")
        if not BUILTIN_HIERARCHY.admissible(e.sort, e.shape):
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
            missing = keys - set(s.values)
            extra = set(s.values) - keys
            if missing or extra:
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
) -> None:
    """Shift `decl`'s position parameters in an (entity, param)-keyed dict."""
    for p in POSITION_X[decl.shape]:
        values[(decl.id, p)] += dx
    for p in POSITION_Y[decl.shape]:
        values[(decl.id, p)] += dy


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
