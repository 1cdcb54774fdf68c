"""Spatial relations as algebraic constraints over object parameters.

Decided exactly, on the integers of the state's exact integer view
(`IntView`): the region relations (`inside`, `partOf`, `overlaps`,
`disjoint`, `contact` and `on`), bottoms, tops, horizontal extents and
boxes; and `closeTo` with a rational threshold and every comparison of a
lone `delta(a, b)` with a rational or with another lone `delta`, whose
squared distance is a ratio of integers on the view (`delta_squared`).
`delta` under arithmetic, `theta`, `measure`, and `smaller` or `larger`
between a Circle and another shape are floats. The tolerance epsilon
(itself a rational) only enters coincidence-style relations (contact, `on`)
and equality comparisons over the distance, angle and measure functions.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    CoincidentCenters,
    NotMeasurable,
    UnboundSymbol,
    UnknownEntity,
    UnknownParameter,
    UnknownRelation,
    UnsupportedShapePair,
    ValueOutOfRange,
)
from .model import (
    BUILTIN_HIERARCHY,
    POSITION_X,
    POSITION_Y,
    SHAPE_PARAMS,
    EntityDecl,
    RelationSig,
    Scenario,
    ShapeKind,
    SortHierarchy,
    State,
    Theory,
)
from .tree import Node

DEFAULT_EPSILON = Fraction(1, 10**9)
DEFAULT_TAU = Fraction(1, 2)

# The shapes as module constants: reading one is a name lookup, where
# `ShapeKind.POINT` is an attribute lookup on the enum class, ten times slower.
_POINT, _CIRCLE, _RECTANGLE, _SEGMENT, _FLOOR = (
    ShapeKind.POINT, ShapeKind.CIRCLE, ShapeKind.RECTANGLE, ShapeKind.SEGMENT, ShapeKind.FLOOR
)


# --- numeric expressions ----------------------------------------------------


class NumExpr(Node):
    """Base of numeric expression nodes."""

    __slots__ = ()


class Const(NumExpr):
    __slots__ = FIELDS = ("value",)


class ParamRef(NumExpr):
    __slots__ = FIELDS = ("entity", "param")  # the entity is an entity id, role, or bound variable
    SYMBOLS = ("entity",)


class NameRef(NumExpr):
    """Reference to a theory-level numeric parameter."""

    __slots__ = FIELDS = ("name",)


class Add(NumExpr):
    __slots__ = FIELDS = CHILDREN = ("left", "right")


class Sub(NumExpr):
    __slots__ = FIELDS = CHILDREN = ("left", "right")


class Mul(NumExpr):
    __slots__ = FIELDS = CHILDREN = ("left", "right")


class Neg(NumExpr):
    __slots__ = FIELDS = CHILDREN = ("operand",)


class DeltaExpr(NumExpr):
    """Euclidean distance between two entities: exact in a comparison of
    the "delta" `comparison_form` (see `delta_squared`), else a float (see
    `distance`)."""

    __slots__ = FIELDS = SYMBOLS = ("a", "b")


class ThetaExpr(NumExpr):
    """Angular position of a relative to b (see `angular_position`)."""

    __slots__ = FIELDS = SYMBOLS = ("a", "b")


class MeasureExpr(NumExpr):
    __slots__ = FIELDS = SYMBOLS = ("entity",)


# The comparators of a `logic.Compare`.
COMPARATORS = ("<", "<=", "=", "!=", ">=", ">")


# --- evaluation context -----------------------------------------------------


@dataclass
class EvalContext:
    """Everything relation evaluation needs besides the state itself."""

    entities: Mapping[str, EntityDecl]
    hierarchy: SortHierarchy = field(default_factory=lambda: BUILTIN_HIERARCHY)
    # the theory's templates, its signatures with a body, which override built-ins
    relations: Mapping[str, RelationSig] = field(default_factory=dict)
    numeric_params: Mapping[str, Fraction] = field(default_factory=dict)
    epsilon: Fraction = DEFAULT_EPSILON
    tau: Fraction = DEFAULT_TAU
    _domains: dict[str, tuple[str, ...]] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):  # a float tolerance becomes the Fraction of exactly its value
        for name in ("epsilon", "tau"):
            try:
                setattr(self, name, Fraction(getattr(self, name)))
            except (OverflowError, ValueError):
                raise ValueOutOfRange(f"{name} {getattr(self, name)!r} is not a finite number") from None

    @classmethod
    def for_scenario(
        cls,
        scenario: Scenario,
        theory: Optional[Theory] = None,
        epsilon: Fraction = DEFAULT_EPSILON,
        tau: Fraction = DEFAULT_TAU,
    ) -> "EvalContext":
        if theory is None:
            return cls(scenario.entity_map(), epsilon=epsilon, tau=tau)
        templates = {sig.name: sig for sig in theory.relations if sig.definition is not None}
        return cls(scenario.entity_map(), theory.hierarchy(), templates, theory.params_map(), epsilon, tau)

    def decl(self, entity: str) -> EntityDecl:
        try:
            return self.entities[entity]
        except KeyError:
            raise UnknownEntity(f"unknown entity {entity!r}") from None

    def domain(self, sort: str) -> tuple[str, ...]:
        """The ids of the entities whose sort is a subsort of `sort`, in
        declaration order; computed on first use."""
        ids = self._domains.get(sort)
        if ids is None:
            ids = self._domains[sort] = tuple(
                [e.id for e in self.entities.values() if self.hierarchy.subsort_of(e.sort, sort)]
            )
        return ids

    def resolve(self, symbol: str, binding: Mapping[str, str]) -> str:
        """Map a term symbol to an entity id through the binding."""
        if symbol in binding:
            return binding[symbol]
        if symbol in self.entities:
            return symbol
        raise UnboundSymbol(f"symbol {symbol!r} is not bound and names no entity")


# --- shape helpers ----------------------------------------------------------

CENTERED = (_POINT, _CIRCLE, _RECTANGLE)


def center(state: State, decl: EntityDecl) -> Optional[tuple[Fraction, Fraction]]:
    if decl.shape in CENTERED:
        return state.value(decl.id, "x"), state.value(decl.id, "y")
    return None


# --- the exact integer view -----------------------------------------------------

# Every parameter name some shape uses.
GEOMETRIC_PARAMS = frozenset(p for names in SHAPE_PARAMS.values() for p in names)
# The sizes that `half_size` halves: a Rectangle's width and height.
HALVED_PARAMS = frozenset(("w", "h"))
# The parameters a horizontal extent reads.
X_EXTENT_PARAMS = frozenset(("x", "w", "r", "x1", "x2"))


class _Ints(dict):
    """(entity, parameter) -> integer; a missing key raises as `State.value` does."""

    def __missing__(self, key: tuple[str, str]):
        raise UnknownParameter(f"no value for {key[0]}.{key[1]}")


# An entity's closed x-extent (None: unbounded) and y-extent, over a view's scale.
Box = tuple[Optional[tuple[int, int]], tuple[int, int]]


class IntView:
    """A state's geometric parameters as exact integers over one scale.

    The scale L is the least common multiple of the doubled denominators of
    the state's values of geometric parameters (the names some shape uses),
    so each of them, and each half-size, is an integer multiple of 1/L, and
    comparing them is comparing integers (exact integer predicates, Fortune
    and Van Wyk, ACM TOG 1996). A rational tolerance e enters exactly: an
    integer difference d is at most e*L when d <= floor(e*L), and a squared
    distance is compared by cross-multiplying with e's denominator. The
    view also keeps each entity's box (`box`) and extents (`extent`) once
    built, and in `sweep` gravity's horizontal sweep, each entity's
    x-extent and the entities whose extents meet it (`extents_meet`; see
    `dynamics._gravity_effects`): None, or (sweep, moved, x_moved), a sweep
    built on this view or an ancestor with the entities that a geometric key
    moved since and those whose x-extent keys (`X_EXTENT_PARAMS`) moved.

    A view may also be derived from the view of other values by `updated`,
    from the keys whose values changed: its scale is then a common multiple
    of the denominators, doubled only for a width or a height (`w`, `h`),
    the sizes that are halved. That is not always the least, which no exact
    test can tell apart. Only the changed keys make a derived view valid; a
    view is never reused because a values object is the same.
    """

    __slots__ = ("scale", "ints", "boxes", "extents", "sweep")

    def __init__(self, values: Mapping[tuple[str, str], Fraction]):
        geometric = [(key, v) for key, v in values.items() if key[1] in GEOMETRIC_PARAMS]
        self.scale = scale = math.lcm(*(2 * v.denominator for _, v in geometric))
        self.ints = _Ints((key, v.numerator * (scale // v.denominator)) for key, v in geometric)
        # entity -> (the shape its box was built for, the box)
        self.boxes: dict[str, tuple[ShapeKind, Box]] = {}
        # entity -> (the shape its record was built for, x-extent, bottom, top)
        self.extents: dict[str, tuple] = {}
        self.sweep: Optional[tuple] = None

    def updated(self, values: Mapping[tuple[str, str], Fraction], keys: Iterable[tuple[str, str]]) -> "IntView":
        """The view of `values`, which differ from this view's values at most
        at `keys`. It keeps this view's scale when it is a multiple of every
        changed geometric value's denominator, doubled for a width or a
        height: the integers are copied, only the changed keys are converted
        again, every entity none of them belongs to keeps its box and
        extents, and this view's sweep passes on with the entities the keys
        moved added to its moved sets. Otherwise the view of `values` is
        built anew, with no sweep; with no changed geometric value it is this
        view."""
        scale = self.scale
        changed = [(key, values[key]) for key in keys if key[1] in GEOMETRIC_PARAMS]
        if not changed:
            return self
        if any(scale % (2 * v.denominator if key[1] in HALVED_PARAMS else v.denominator) for key, v in changed):
            return IntView(values)
        view = IntView.__new__(IntView)
        view.scale = scale
        view.ints = ints = _Ints(self.ints)
        for key, v in changed:
            ints[key] = v.numerator * (scale // v.denominator)
        moved = {key[0] for key, _ in changed}
        view.boxes = {e: kept for e, kept in self.boxes.items() if e not in moved}
        view.extents = {e: kept for e, kept in self.extents.items() if e not in moved}
        view.sweep = None
        if self.sweep is not None:
            sweep, before, x_before = self.sweep
            x_moved = {key[0] for key, _ in changed if key[1] in X_EXTENT_PARAMS}
            view.sweep = sweep, before | moved, x_before | x_moved
        return view

    def floor(self, q: Fraction) -> int:
        """floor(q * L): an integer d over L is at most q exactly when d <= this."""
        return q.numerator * self.scale // q.denominator

    def within(self, d2: int, bound: int, eps: Fraction) -> bool:
        """|sqrt(d2) - bound| <= eps, for d2 over L^2 and bound over L: never
        where bound + eps < 0, since a distance is not negative; else d2
        lies between (bound - eps)^2, or 0 where bound - eps <= 0, and
        (bound + eps)^2, all multiplied by (L q)^2 for eps = p/q."""
        p, q = eps.numerator * self.scale, eps.denominator
        qd2, qb = q * q * d2, q * bound
        if qb + p < 0 or qd2 > (qb + p) ** 2:
            return False
        return qb - p <= 0 or (qb - p) ** 2 <= qd2

    def box(self, decl: EntityDecl) -> Box:
        """The entity's box over this view's scale, built on first use and
        kept, so every search over the state shares it; a declaration of
        another shape for the same id builds it anew.

        A box is the closed x- and y-extent around every point of the entity
        that a relation test reads: its center or nearest point, its boundary
        and its interior. Sizes count by absolute value, so a negative size
        leaves the box the right way out; a Floor's x-extent is None, unbounded.
        """
        kept = self.boxes.get(decl.id)
        if kept is not None and kept[0] is decl.shape:
            return kept[1]
        n = [self.ints[decl.id, p] for p in SHAPE_PARAMS[decl.shape]]
        if decl.shape is _FLOOR:
            out = None, (n[0], n[0])
        elif decl.shape is _SEGMENT:
            x1, y1, x2, y2 = n
            out = (min(x1, x2), max(x1, x2)), (min(y1, y2), max(y1, y2))
        else:
            x, y = n[0], n[1]
            hw, hh = abs(half_size(self.ints, decl, "x")), abs(half_size(self.ints, decl, "y"))
            out = (x - hw, x + hw), (y - hh, y + hh)
        self.boxes[decl.id] = decl.shape, out
        return out

    def extent(self, decl: EntityDecl) -> Optional[tuple]:
        """The entity's (shape, `horizontal_interval`, `bottom`, `top`) over
        this view's scale, built on first use and kept; a declaration of
        another shape for the same id builds it anew. None, and nothing
        kept, when the view lacks one of the entity's parameters: each of
        the three then reads only its own."""
        kept = self.extents.get(decl.id)
        if kept is not None and kept[0] is decl.shape:
            return kept
        n = self.ints
        try:
            out = decl.shape, _interval(n, decl), _bottom(n, decl), _top(n, decl)
        except UnknownParameter:
            return None
        self.extents[decl.id] = out
        return out


def int_view(state: State) -> IntView:
    """The state's `IntView`, built on first use and kept on the state. The
    state may hold instead a (view, keys) pair: the view of values that
    differ from the state's at most at `keys`, which `IntView.updated`
    derives the state's own view from."""
    view = state.view
    if view.__class__ is not IntView:
        view = IntView(state.values) if view is None else view[0].updated(state.values, view[1])
        object.__setattr__(state, "view", view)
    return view


# A centered shape's size parameters along x and along y, and their divisor.
_HALF_SIZES = {_POINT: None, _CIRCLE: ("r", "r", 1), _RECTANGLE: ("w", "h", 2)}


def half_size(n: Mapping[tuple[str, str], int], decl: EntityDecl, axis: str) -> int:
    """How far a Point (0), Circle (r) or Rectangle (w/2 along x, h/2 along y)
    reaches from its center along `axis`, "x" or "y", over the scale of the
    view whose integers are `n`. Reads only that axis's size parameter; an
    even integer halves exactly, since the scale doubles every denominator."""
    sizes = _HALF_SIZES[decl.shape]
    if sizes is None:
        return 0
    return n[decl.id, sizes[0] if axis == "x" else sizes[1]] // sizes[2]


def _bottom(n: Mapping[tuple[str, str], int], decl: EntityDecl) -> Optional[int]:
    if decl.shape not in CENTERED:
        return None
    return n[decl.id, "y"] - half_size(n, decl, "y")


def _top(n: Mapping[tuple[str, str], int], decl: EntityDecl) -> Optional[int]:
    if decl.shape is _FLOOR:
        return n[decl.id, "y"]
    if decl.shape not in CENTERED:
        return None
    return n[decl.id, "y"] + half_size(n, decl, "y")


def _interval(n: Mapping[tuple[str, str], int], decl: EntityDecl) -> Optional[tuple[int, int]]:
    e = decl.id
    if decl.shape in CENTERED:
        x, hw = n[e, "x"], half_size(n, decl, "x")
        return x - hw, x + hw
    if decl.shape is _SEGMENT:
        x1, x2 = n[e, "x1"], n[e, "x2"]
        return min(x1, x2), max(x1, x2)
    return None  # Floor spans everything


def bottom(state: State, decl: EntityDecl) -> Optional[int]:
    """The lowest y of a Point, Circle or Rectangle over `int_view(state).scale`;
    None for the other shapes."""
    view = int_view(state)
    kept = view.extent(decl)
    return kept[2] if kept is not None else _bottom(view.ints, decl)


def top(state: State, decl: EntityDecl) -> Optional[int]:
    """The highest y of every shape but a Segment over `int_view(state).scale`;
    None for a Segment."""
    view = int_view(state)
    kept = view.extent(decl)
    return kept[3] if kept is not None else _top(view.ints, decl)


def horizontal_interval(state: State, decl: EntityDecl) -> Optional[tuple[int, int]]:
    """Closed x-extent over `int_view(state).scale`, signed: a negative size
    turns it inside out; None means unbounded (Floor)."""
    view = int_view(state)
    kept = view.extent(decl)
    return kept[1] if kept is not None else _interval(view.ints, decl)


def horizontal_overlap(state: State, a: EntityDecl, b: EntityDecl) -> bool:
    return extents_meet(horizontal_interval(state, a), horizontal_interval(state, b))


def extents_meet(ia: Optional[tuple[int, int]], ib: Optional[tuple[int, int]]) -> bool:
    """Whether two closed horizontal extents meet; None is unbounded."""
    return ia is None or ib is None or (ia[0] <= ib[1] and ib[0] <= ia[1])


def boxes_apart(state: State, a: EntityDecl, b: EntityDecl, margin: Fraction) -> bool:
    """Whether the boxes of `a` and `b` lie more than `margin` apart in some
    axis, so that no relation whose `box_margin` is `margin` holds of them.
    False where either entity lacks a parameter, so only its own pairs go
    unfiltered."""
    view = int_view(state)
    try:
        (ax, ay), (bx, by) = view.box(a), view.box(b)
    except UnknownParameter:
        return False
    m = view.floor(margin)
    if ax is not None and bx is not None and (ax[0] > bx[1] + m or bx[0] > ax[1] + m):
        return True
    return ay[0] > by[1] + m or by[0] > ay[1] + m


def near_boxes(state: State, decls: Sequence[EntityDecl], margin: Fraction) -> Callable[[EntityDecl], list[int]]:
    """A function that gives, for an entity, the ascending positions in
    `decls` of the entities of which `boxes_apart(state, ..., margin)` does
    not hold with it.

    The bounded boxes are sorted once by left end. A box within the margin
    of box a in x has its left end between a's left end less the margin and
    the widest box's width, and a's right end plus the margin, so each query
    bisects that window and tests only the boxes in it (a plane-sweep order,
    Arge et al., VLDB 1998). A Floor's box, unbounded in x, is tested in y
    alone; an entity that lacks a parameter is near everything, as
    `boxes_apart` is False for it.
    """
    view = int_view(state)
    m = view.floor(margin)
    everywhere: list[int] = []
    unbounded: list[tuple[tuple[int, int], int]] = []
    bounded: list[tuple[int, int, tuple[int, int], int]] = []
    for i, decl in enumerate(decls):
        try:
            x, y = view.box(decl)
        except UnknownParameter:
            everywhere.append(i)
            continue
        if x is None:
            unbounded.append((y, i))
        else:
            bounded.append((x[0], x[1], y, i))
    bounded.sort(key=operator.itemgetter(0))
    lefts = [b[0] for b in bounded]
    reach = m + max((hi - lo for lo, hi, _, _ in bounded), default=0)

    def near(decl: EntityDecl) -> list[int]:
        try:
            ax, (ay0, ay1) = view.box(decl)
        except UnknownParameter:
            return list(range(len(decls)))
        out = list(everywhere)
        if ax is None:
            window = bounded
        else:
            window = bounded[bisect.bisect_left(lefts, ax[0] - reach):bisect.bisect_right(lefts, ax[1] + m)]
        for lo, hi, (y0, y1), i in window:
            if (ax is None or ax[0] <= hi + m and lo <= ax[1] + m) and y0 <= ay1 + m and ay0 <= y1 + m:
                out.append(i)
        out.extend(i for (y0, y1), i in unbounded if y0 <= ay1 + m and ay0 <= y1 + m)
        out.sort()
        return out

    return near


def delta_squared(state: State, a: EntityDecl, b: EntityDecl) -> tuple[int, int]:
    """The squared distance behind `delta(a, b)`, exactly, as an integer
    numerator and a positive integer denominator over `int_view(state)`.
    The anchors are the centers, with a Segment or a Floor taking its point
    nearest to the other entity's center."""
    view = int_view(state)
    n = view.ints
    ca = (n[a.id, "x"], n[a.id, "y"]) if a.shape in CENTERED else None
    cb = (n[b.id, "x"], n[b.id, "y"]) if b.shape in CENTERED else None
    if ca is not None and cb is not None:
        dx, dy = ca[0] - cb[0], ca[1] - cb[1]
        return dx * dx + dy * dy, view.scale * view.scale
    if ca is None and cb is not None:
        return _nearest_point_sq(view, a, cb)
    if cb is None and ca is not None:
        return _nearest_point_sq(view, b, ca)
    raise UnsupportedShapePair(
        f"distance between {a.shape.value} and {b.shape.value} needs a center on one side"
    )


def _nearest_point_sq(view: IntView, decl: EntityDecl, point: tuple[int, int]) -> tuple[int, int]:
    """`delta_squared` from a Floor or a Segment to `point`. The Segment's
    parameter t of the nearest point is clamped to [0, 1] by comparing its
    numerator with its denominator; inside, the squared distance to the
    line is cross^2 / |AB|^2."""
    n, (px, py), l2 = view.ints, point, view.scale * view.scale
    if decl.shape is _FLOOR:
        dy = py - n[decl.id, "y"]
        return dy * dy, l2
    if decl.shape is _SEGMENT:
        x1, y1, x2, y2 = (n[decl.id, p] for p in ("x1", "y1", "x2", "y2"))
        dx, dy, ex, ey = x2 - x1, y2 - y1, px - x1, py - y1
        dd, dot = dx * dx + dy * dy, ex * dx + ey * dy
        if dot <= 0:  # also where A = B, so dd = 0
            return ex * ex + ey * ey, l2
        if dot >= dd:
            fx, fy = px - x2, py - y2
            return fx * fx + fy * fy, l2
        cross = ex * dy - ey * dx
        return cross * cross, dd * l2
    raise UnsupportedShapePair(f"no nearest-point rule for {decl.shape.value}")


def _real(value: Fraction, what: str, factor: float = 1.0) -> float:
    """`value` times `factor` as a float, for the functions computed in
    floats (distance, angle, measure); `what` names it in the error raised
    when it is beyond the range of a float."""
    try:
        result = float(value) * factor
    except OverflowError:
        result = math.inf
    if math.isinf(result):
        raise ValueOutOfRange(f"{what} is beyond the floating-point range")
    return result


def distance(state: State, a: str, b: str, ctx: EvalContext) -> float:
    """Euclidean distance as a float: the value of `delta` under arithmetic."""
    return math.sqrt(_real(Fraction(*delta_squared(state, ctx.decl(a), ctx.decl(b))),
                           f"the squared distance between {a} and {b}"))


def _offset(state: State, a: EntityDecl, b: EntityDecl, what: str) -> tuple[Fraction, Fraction]:
    """The vector from b's center to a's center; `what` names the caller in
    the error raised when either has no center."""
    ca, cb = center(state, a), center(state, b)
    if ca is None or cb is None:
        raise UnsupportedShapePair(f"{what} needs centers on both sides")
    return ca[0] - cb[0], ca[1] - cb[1]


def _angle(state: State, a: EntityDecl, b: EntityDecl) -> float:
    dx, dy = _offset(state, a, b, "angular position")
    if dx == 0 and dy == 0:
        raise CoincidentCenters(f"{a.id} and {b.id} share a center")
    what = f"the offset of {a.id} from {b.id}"
    return math.atan2(_real(dy, what), _real(dx, what))


def angular_position(state: State, x: str, y: str, ctx: EvalContext) -> float:
    """Angle in (-pi, pi] of the vector from y's center to x's center."""
    return _angle(state, ctx.decl(x), ctx.decl(y))


def exact_measure(state: State, decl: EntityDecl) -> tuple[Fraction, bool]:
    """Area as (rational coefficient, multiplied-by-pi flag)."""
    if decl.shape is _POINT or decl.shape is _SEGMENT:
        return Fraction(0), False
    if decl.shape is _CIRCLE:
        return state.value(decl.id, "r") ** 2, True
    if decl.shape is _RECTANGLE:
        return state.value(decl.id, "w") * state.value(decl.id, "h"), False
    raise NotMeasurable(f"{decl.id} ({decl.shape.value}) has no measure")


def _float_measure(state: State, decl: EntityDecl) -> float:
    coeff, has_pi = exact_measure(state, decl)
    return _real(coeff, f"the measure of {decl.id}", math.pi if has_pi else 1.0)


def measure(state: State, e: str, ctx: EvalContext) -> float:
    return _float_measure(state, ctx.decl(e))


def _measure_less(state: State, a: EntityDecl, b: EntityDecl) -> bool:
    ca, pa = exact_measure(state, a)
    cb, pb = exact_measure(state, b)
    if pa == pb:
        return ca < cb
    return _float_measure(state, a) < _float_measure(state, b)


# --- numeric expression evaluation -------------------------------------------


def eval_num_expr(
    e: NumExpr,
    state: State,
    ctx: EvalContext,
    binding: Mapping[str, str] | None = None,
):
    """Fold an expression to a Fraction, or a float once distance/angle/measure
    terms are involved."""
    binding = binding or {}
    if isinstance(e, Const):
        return e.value
    if isinstance(e, ParamRef):
        return state.value(ctx.resolve(e.entity, binding), e.param)
    if isinstance(e, NameRef):
        if e.name in ctx.numeric_params:
            return ctx.numeric_params[e.name]
        raise UnboundSymbol(f"unknown numeric parameter {e.name!r}")
    if isinstance(e, (Add, Sub, Mul)):
        left = eval_num_expr(e.left, state, ctx, binding)
        left, right = _alike(left, eval_num_expr(e.right, state, ctx, binding))
        return left + right if isinstance(e, Add) else left - right if isinstance(e, Sub) else left * right
    if isinstance(e, Neg):
        return -eval_num_expr(e.operand, state, ctx, binding)
    if isinstance(e, DeltaExpr):
        return distance(state, ctx.resolve(e.a, binding), ctx.resolve(e.b, binding), ctx)
    if isinstance(e, ThetaExpr):
        return angular_position(state, ctx.resolve(e.a, binding), ctx.resolve(e.b, binding), ctx)
    if isinstance(e, MeasureExpr):
        return measure(state, ctx.resolve(e.entity, binding), ctx)
    raise TypeError(f"not a numeric expression: {e!r}")


def _alike(left, right) -> tuple:
    """Two operands of one arithmetic operation: a Fraction beside a float
    becomes a float through `_real`, so one beyond float range raises
    ValueOutOfRange and not OverflowError."""
    if isinstance(left, float) != isinstance(right, float):
        what = "a rational number combined with a distance, angle or measure"
        if isinstance(left, float):
            return left, _real(right, what)
        return _real(left, what), right
    return left, right


def _contains_real_terms(e: NumExpr) -> bool:
    """Whether `e` holds delta, theta or measure. Iterative, since a
    comparison is classified before the parser measures its depth."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (DeltaExpr, ThetaExpr, MeasureExpr)):
            return True
        stack.extend(node.children)
    return False


def comparison_form(lhs: NumExpr, rhs: NumExpr) -> str:
    """How `eval_constraint` decides a comparison of `lhs` and `rhs`:
    "rational" when neither side holds delta, theta or measure; "delta" when
    each side is a lone delta or holds none of them; "real" otherwise.
    `logic.Compare` keeps it, classified once per node."""
    real = _contains_real_terms(lhs), _contains_real_terms(rhs)
    if not any(real):
        return "rational"
    lone = type(lhs) is DeltaExpr, type(rhs) is DeltaExpr
    return "delta" if all(d or not r for d, r in zip(lone, real)) else "real"


_ORDERS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
# The comparator that holds of (b, a) where `cmp` holds of (a, b).
_MIRRORED = {"<": ">", "<=": ">=", "=": "=", "!=": "!=", ">=": "<=", ">": "<"}


def eval_constraint(c, state: State, ctx: EvalContext, binding: Mapping[str, str] | None = None) -> bool:
    """`c.lhs c.cmp c.rhs` of a `logic.Compare` in `state`.

    A comparison of the "delta" `comparison_form` is decided exactly (see
    `_distance_against`) wherever every number it reads is rational; the
    rest fold to Fractions, or to floats once delta, theta or measure is
    under arithmetic, where = and != hold within epsilon."""
    if c.form == "delta":
        return _compare_distance(c, state, ctx, binding or {})
    lhs = eval_num_expr(c.lhs, state, ctx, binding)
    rhs = eval_num_expr(c.rhs, state, ctx, binding)
    return _compare_values(lhs, c.cmp, rhs, c.form == "real", ctx.epsilon)


def _compare_values(lhs, cmp: str, rhs, real: bool, eps) -> bool:
    if cmp == "=" or cmp == "!=":
        if real:
            lhs, rhs = _alike(lhs, rhs)
            equal = abs(lhs - rhs) <= eps
        else:
            equal = lhs == rhs
        return equal if cmp == "=" else not equal
    order = _ORDERS.get(cmp)
    if order is None:
        raise UnknownRelation(f"unknown comparator {cmp!r}")
    return order(lhs, rhs)


def _compare_distance(c, state: State, ctx: EvalContext, binding: Mapping[str, str]) -> bool:
    """A comparison of the "delta" form: each lone delta side becomes its
    exact `delta_squared`, the other side its value, left side first."""
    lhs, rhs = (
        _delta_squared_of(side, state, ctx, binding) if type(side) is DeltaExpr
        else eval_num_expr(side, state, ctx, binding)
        for side in (c.lhs, c.rhs)
    )
    eps, cmp = ctx.epsilon, c.cmp
    if type(lhs) is tuple:
        if type(rhs) is tuple:
            return _compare_squares(lhs, cmp, rhs, eps)
        if isinstance(rhs, Fraction):
            return _distance_against(lhs, cmp, rhs, eps)
    elif isinstance(lhs, Fraction):
        return _distance_against(rhs, _MIRRORED.get(cmp, cmp), lhs, eps)
    # a float beside the delta: decided in floats, as under arithmetic
    lhs = eval_num_expr(c.lhs, state, ctx, binding)
    rhs = eval_num_expr(c.rhs, state, ctx, binding)
    return _compare_values(lhs, cmp, rhs, True, eps)


def _delta_squared_of(e: DeltaExpr, state: State, ctx: EvalContext, binding: Mapping[str, str]) -> tuple[int, int]:
    a, b = ctx.resolve(e.a, binding), ctx.resolve(e.b, binding)
    return delta_squared(state, ctx.decl(a), ctx.decl(b))


def _distance_against(sq: tuple[int, int], cmp: str, k: Fraction, eps: Fraction = Fraction(0)) -> bool:
    """sqrt(num / den) `cmp` k for sq = (num, den), exactly (Yap, Towards
    exact geometric computation, CGTA 1997): a distance exceeds a negative
    k, and against k >= 0 it compares as its square does with k^2, by
    cross-multiplying with k's denominator. = and != hold within eps:
    |d - k| <= eps exactly when k - eps <= d <= k + eps."""
    if cmp == "=" or cmp == "!=":
        near = _distance_against(sq, "<=", k + eps) and _distance_against(sq, ">=", k - eps)
        return near if cmp == "=" else not near
    order = _ORDERS.get(cmp)
    if order is None:
        raise UnknownRelation(f"unknown comparator {cmp!r}")
    p, q = k.numerator, k.denominator
    if p < 0:
        return cmp == ">" or cmp == ">="
    num, den = sq
    return order(num * q * q, p * p * den)


def _compare_squares(a: tuple[int, int], cmp: str, b: tuple[int, int], eps: Fraction) -> bool:
    """sqrt(A) `cmp` sqrt(B) for the `delta_squared` pairs a and b, exactly:
    the order of the roots is that of the squares. = and != hold within
    eps: for A >= B, sqrt(A) - sqrt(B) <= eps exactly when eps >= 0 and
    A - B - eps^2 <= 2 eps sqrt(B), squared where both sides are positive."""
    if cmp == "=" or cmp == "!=":
        low, high = sorted((Fraction(*a), Fraction(*b)))
        gap = high - low - eps * eps
        near = eps >= 0 and (gap <= 0 or gap * gap <= 4 * eps * eps * low)
        return near if cmp == "=" else not near
    order = _ORDERS.get(cmp)
    if order is None:
        raise UnknownRelation(f"unknown comparator {cmp!r}")
    return order(a[0] * b[1], b[0] * a[1])


# --- relation catalog ---------------------------------------------------------


def _gap(n: Mapping[tuple[str, str], int], a: EntityDecl, b: EntityDecl) -> tuple[int, int, int, int]:
    """The x and y distances between the centers of two centered shapes, and
    the sums of their half-sizes along x and along y."""
    dx, dy = abs(n[a.id, "x"] - n[b.id, "x"]), abs(n[a.id, "y"] - n[b.id, "y"])
    return dx, dy, half_size(n, a, "x") + half_size(n, b, "x"), half_size(n, a, "y") + half_size(n, b, "y")


def _contains(state: State, a: EntityDecl, b: EntityDecl, strict: bool) -> Optional[bool]:
    """a inside b; None when the shape pair is not supported. Decided on
    `int_view(state)`, with one rule per container shape.

    Strict containment turns every boundary comparison into a strict one; the
    non-strict variant realizes part-of.
    """
    lt = operator.lt if strict else operator.le
    if b.shape is not _CIRCLE and b.shape is not _RECTANGLE:
        return None
    n = int_view(state).ints
    bx, by, hx, hy = n[b.id, "x"], n[b.id, "y"], half_size(n, b, "x"), half_size(n, b, "y")
    if a.shape not in CENTERED:
        return None

    def reach(axis: str, c: int) -> int:  # how far a reaches from b's center along axis
        return abs(n[a.id, axis] - c) + half_size(n, a, axis)

    if b.shape is _RECTANGLE:  # a's reach within b's, along x and then along y
        return lt(reach("x", bx), hx) and lt(reach("y", by), hy)
    if a.shape is _CIRCLE:  # the centers no further apart than the radii differ
        ra = n[a.id, "r"]
        d2 = (n[a.id, "x"] - bx) ** 2 + (n[a.id, "y"] - by) ** 2
        return lt(ra, hx) and d2 <= (hx - ra) ** 2
    # a's corner farthest from b's center within b's radius
    return lt(reach("x", bx) ** 2 + reach("y", by) ** 2, hx * hx)


def touches(state: State, ctx: EvalContext, a: EntityDecl, b: EntityDecl) -> Optional[bool]:
    """Boundary contact; symmetric; None when the pair is not supported.
    Decided on `int_view(state)`."""
    sa, sb = a.shape, b.shape
    if sa is _FLOOR and sb is _FLOOR:
        return None
    if sa is _FLOOR:
        a, b, sa, sb = b, a, sb, sa
    view = int_view(state)
    n = view.ints
    if sb is _FLOOR:
        ba = bottom(state, a)
        return None if ba is None else abs(ba - n[b.id, "y"]) <= view.floor(ctx.epsilon)
    if (sa is _CIRCLE or sb is _CIRCLE) and sa in _ROUND and sb in _ROUND:
        # circle-circle or point-circle: the centers lie the radii apart
        dx, dy, radii, _ = _gap(n, a, b)
        return view.within(dx * dx + dy * dy, radii, ctx.epsilon)
    if (sa is _RECTANGLE or sb is _RECTANGLE) and sa in _BOXY and sb in _BOXY:
        # rectangle-rectangle or point-rectangle: an edge meets the other's
        dx, dy, hw, hh = _gap(n, a, b)
        eps = view.floor(ctx.epsilon)
        if dx - hw > eps or dy - hh > eps:
            return False
        return hw - dx <= eps or hh - dy <= eps
    return None


_ROUND = (_POINT, _CIRCLE)
_BOXY = (_POINT, _RECTANGLE)


def _interiors_overlap(state: State, a: EntityDecl, b: EntityDecl) -> Optional[bool]:
    """Two Circles or two Rectangles share interior points and neither holds
    the other strictly; None for other pairs. Decided on `int_view(state)`."""
    if a.shape is not b.shape or (a.shape is not _CIRCLE and a.shape is not _RECTANGLE):
        return None
    dx, dy, hw, hh = _gap(int_view(state).ints, a, b)
    apart = dx * dx + dy * dy >= hw * hw if a.shape is _CIRCLE else dx >= hw or dy >= hh
    return not apart and not _contains(state, a, b, True) and not _contains(state, b, a, True)


def _same_geometry(state: State, a: EntityDecl, b: EntityDecl) -> bool:
    if a.shape is not b.shape:
        return False
    n = int_view(state).ints
    return all(n[a.id, p] == n[b.id, p] for p in SHAPE_PARAMS[a.shape])


def rel_on(state: State, ctx: EvalContext, a: EntityDecl, b: EntityDecl) -> bool:
    """a rests on b: contact, a's bottom at or above b's top less epsilon,
    horizontal overlap. Decided on `int_view(state)`.

    Total over all shape pairs: pairs lacking the needed notions are simply
    not in the relation (so quantified conditions like gravity's stay safe).
    """
    if not touches(state, ctx, a, b):
        return False
    ba = bottom(state, a)
    tb = top(state, b)
    if ba is None or tb is None:
        return False
    return tb - ba <= int_view(state).floor(ctx.epsilon) and horizontal_overlap(state, a, b)


def rel_disjoint(state: State, ctx: EvalContext, a: EntityDecl, b: EntityDecl) -> bool:
    """No containment either way, no contact, no overlap.

    Component relations undefined for the pair count as not holding; two
    entities with identical geometry are never disjoint (a is never disjoint
    from itself).
    """
    if _same_geometry(state, a, b):
        return False
    for test in (
        _contains(state, a, b, False),
        _contains(state, b, a, False),
        touches(state, ctx, a, b),
        _interiors_overlap(state, a, b),
    ):
        if test:
            return False
    return True


def rel_close_to(state: State, ctx: EvalContext, a: EntityDecl, b: EntityDecl, threshold=None) -> bool:
    """delta(a, b) <= threshold (tau when None): exact for a rational threshold."""
    tau = ctx.tau if threshold is None else threshold
    sq = delta_squared(state, a, b)
    if isinstance(tau, Fraction):
        return _distance_against(sq, "<=", tau)
    return math.sqrt(_real(Fraction(*sq), f"the squared distance between {a.id} and {b.id}")) <= tau


def _position(state: State, decls: Sequence[EntityDecl]) -> tuple:
    """motion's read: the position parameters of its entity."""
    e = decls[0]
    return tuple(state.value(e.id, p) for p in POSITION_X[e.shape] + POSITION_Y[e.shape])


def _relative_position(state: State, decls: Sequence[EntityDecl]) -> tuple[Fraction, Fraction]:
    """ccwStep's read: the vector from c's center to o's."""
    return _offset(state, *decls, "relative position")


def _turns_ccw(p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]) -> bool:
    """ccwStep's comparison, cross(p, q) > 0: q lies counterclockwise of p.
    Wrap-safe replacement for "the angle increases"."""
    return p[0] * q[1] - p[1] * q[0] > 0


def _theta(state: State, decls: Sequence[EntityDecl]) -> float:
    """thetaStep's read, the literal one: theta(o, c)."""
    return _angle(state, *decls)


class Step(NamedTuple):
    """A step relation as a read of one state and a comparison of two reads:
    it holds between a state and the next when `advances(read(state),
    read(next))`. `read` gets the state and the entities' declarations."""

    read: Callable[[State, Sequence[EntityDecl]], object]
    advances: Callable[[object, object], bool]


def _step_test(step: Step):
    """A step row's test: false at the last instant, else the comparison of
    the reads, the next state read first."""

    def test(state: State, ctx: EvalContext, decls, nums, after: Optional[State]) -> bool:
        if after is None:
            return False
        later = step.read(after, decls)
        return step.advances(step.read(state, decls), later)

    return test


# The box margins of the rows (see `box_margin`), from the context and
# closeTo's threshold: containment and overlap keep the boxes meeting,
# contact and `on` keep them within epsilon, and closeTo keeps the anchors,
# which lie in the boxes, within its threshold. Absolute values keep the
# bound sound under a negative tolerance, where a negative size can still
# make the relation hold, and under a negative threshold.
_MEET, _EPSILON, _THRESHOLD = (
    lambda ctx, threshold: Fraction(0),
    lambda ctx, threshold: abs(ctx.epsilon),
    lambda ctx, threshold: abs(ctx.tau if threshold is None else threshold),
)


class Builtin(NamedTuple):
    """Everything the engine knows of one built-in relation. `test` gets the
    state, the context, the entities' declarations, the numeric arguments
    and the next state, and gives None for a shape pair outside the
    relation's domain. `exact`: on rational arguments it holds, fails or
    raises one of `errors.EVALUATION_GAP_ERRORS`, so the join may prune
    with it. `margin` bounds how far apart the boxes of two entities it
    holds of lie in each axis (None: no bound). `step`, for a relation that
    reads the next state: its read of one state and the comparison of two
    reads, from which its test is derived; the next state is None at the last
    instant of a trace, and the relation is false there. None otherwise."""

    entities: int  # the entity arity
    numeric: int  # the most numeric arguments
    test: Callable[[State, EvalContext, Sequence[EntityDecl], Sequence, Optional[State]], Optional[bool]]
    exact: bool
    margin: Optional[Callable[[EvalContext, Optional[Fraction]], Fraction]]
    step: Optional[Step]


def _step_row(entities: int, exact: bool, step: Step) -> Builtin:
    return Builtin(entities, 0, _step_test(step), exact, None, step)


# name -> Builtin(entities, numeric, test, exact, margin, step)
BUILTIN_RELATIONS: dict[str, Builtin] = {
    "inside": Builtin(2, 0, lambda st, ctx, d, n, after: _contains(st, *d, True), True, _MEET, None),
    "partOf": Builtin(2, 0, lambda st, ctx, d, n, after: _contains(st, *d, False), True, _MEET, None),
    "contact": Builtin(2, 0, lambda st, ctx, d, n, after: touches(st, ctx, *d), True, _EPSILON, None),
    "on": Builtin(2, 0, lambda st, ctx, d, n, after: rel_on(st, ctx, *d), True, _EPSILON, None),
    "overlaps": Builtin(2, 0, lambda st, ctx, d, n, after: _interiors_overlap(st, *d), True, _MEET, None),
    "disjoint": Builtin(2, 0, lambda st, ctx, d, n, after: rel_disjoint(st, ctx, *d), True, None, None),
    "closeTo": Builtin(2, 1, lambda st, ctx, d, n, after: rel_close_to(st, ctx, *d, *n), True, _THRESHOLD, None),
    "smaller": Builtin(2, 0, lambda st, ctx, d, n, after: _measure_less(st, *d), False, None, None),
    "larger": Builtin(2, 0, lambda st, ctx, d, n, after: _measure_less(st, d[1], d[0]), False, None, None),
    "motion": _step_row(1, True, Step(_position, operator.ne)),
    "ccwStep": _step_row(2, True, Step(_relative_position, _turns_ccw)),
    "thetaStep": _step_row(2, False, Step(_theta, operator.lt)),
}


def reads_next_state(name: str, ctx: EvalContext) -> bool:
    """Whether relation `name` reads the next state: a built-in step relation
    that no template of the theory overrides."""
    row = BUILTIN_RELATIONS.get(name)
    return row is not None and row.step is not None and name not in ctx.relations


def box_margin(name: str, ctx: EvalContext, threshold: Optional[Fraction] = None) -> Optional[Fraction]:
    """How far apart, in each axis, the boxes of two entities may lie when
    relation `name` holds of them: its row's margin at closeTo's
    `threshold`; None for a template or a relation that sets no bound."""
    row = BUILTIN_RELATIONS.get(name)
    if row is None or row.margin is None or name in ctx.relations:
        return None
    return row.margin(ctx, threshold)


def arity_message(name: str) -> str:
    """Why an application of built-in `name` has the wrong number of arguments."""
    row = BUILTIN_RELATIONS[name]
    return f"{name} takes {row.entities} entity argument(s)" + (
        f" and up to {row.numeric} numeric" if row.numeric else ""
    )


def builtin(
    name: str, entity_args: Sequence[str], num_args: Sequence, ctx: EvalContext
) -> tuple[Builtin, tuple[EntityDecl, ...]]:
    """The row of built-in relation `name` and the declarations of its
    entity arguments, once the application's arity is checked."""
    row = BUILTIN_RELATIONS.get(name)
    if row is None:
        raise UnknownRelation(f"unknown relation {name!r}")
    if len(entity_args) != row.entities or len(num_args) > row.numeric:
        raise UnknownRelation(arity_message(name))
    return row, tuple(map(ctx.decl, entity_args))


def eval_relation(
    name: str,
    entity_args: Sequence[str],
    state: State,
    ctx: EvalContext,
    num_args: Sequence = (),
    after: Optional[State] = None,
) -> bool:
    """Evaluate a relation atom: a theory-defined constraint template, which
    overrides a built-in of the same name, or a built-in from the catalog.
    `after` is the next state, None at the last instant."""
    template = ctx.relations.get(name)
    if template is not None:
        if len(entity_args) != len(template.arg_sorts):
            raise UnknownRelation(f"{name} expects {len(template.arg_sorts)} arguments")
        if num_args:
            raise UnknownRelation(f"{name} expects no numeric arguments, got {len(num_args)}")
        template_binding = {f"arg{i + 1}": e for i, e in enumerate(entity_args)}
        return eval_constraint(template.definition, state, ctx, template_binding)
    row, decls = builtin(name, entity_args, num_args, ctx)
    result = row.test(state, ctx, decls, num_args, after)
    if result is None:
        raise UnsupportedShapePair(f"{name}({', '.join(d.shape.value for d in decls)}) is not defined")
    return result
