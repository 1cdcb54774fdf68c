"""The relations that `ischema.geometry` decides on a state's integer view,
decided in `Fraction` arithmetic straight from the state's values: the
oracle the view is tested against.

Each function reads, before it decides, the parameters its `geometry`
counterpart reads, so a missing one raises the same `UnknownParameter`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ischema.errors import UnsupportedShapePair
from ischema.geometry import EvalContext, center
from ischema.model import SHAPE_PARAMS, EntityDecl, ShapeKind, State


def distance_squared(state: State, a: EntityDecl, b: EntityDecl) -> Fraction:
    """Exact squared distance; anchors are centers, with Segment/Floor taking
    the nearest point to the other entity's center."""
    ca, cb = center(state, a), center(state, b)
    if ca is not None and cb is not None:
        return (ca[0] - cb[0]) ** 2 + (ca[1] - cb[1]) ** 2
    if ca is None and cb is not None:
        return _nearest_point_sq(state, a, cb)
    if cb is None and ca is not None:
        return _nearest_point_sq(state, b, ca)
    raise UnsupportedShapePair(
        f"distance between {a.shape.value} and {b.shape.value} needs a center on one side"
    )


def _nearest_point_sq(state: State, decl: EntityDecl, point: tuple[Fraction, Fraction]) -> Fraction:
    px, py = point
    if decl.shape is ShapeKind.FLOOR:
        return (py - state.value(decl.id, "y")) ** 2
    if decl.shape is ShapeKind.SEGMENT:
        x1, y1 = state.value(decl.id, "x1"), state.value(decl.id, "y1")
        x2, y2 = state.value(decl.id, "x2"), state.value(decl.id, "y2")
        dx, dy = x2 - x1, y2 - y1
        dd = dx * dx + dy * dy
        if dd == 0:
            return (px - x1) ** 2 + (py - y1) ** 2
        t = ((px - x1) * dx + (py - y1) * dy) / dd
        t = min(Fraction(1), max(Fraction(0), t))
        qx, qy = x1 + t * dx, y1 + t * dy
        return (px - qx) ** 2 + (py - qy) ** 2
    raise UnsupportedShapePair(f"no nearest-point rule for {decl.shape.value}")


def rel_close_to(state: State, ctx: EvalContext, a: EntityDecl, b: EntityDecl, threshold=None) -> bool:
    tau = ctx.tau if threshold is None else threshold
    d2 = distance_squared(state, a, b)
    return tau >= 0 and d2 <= tau * tau


def _within(value_sq: Fraction, bound: Fraction, eps: Fraction) -> bool:
    """|sqrt(value_sq) - bound| <= eps, decided in rational arithmetic."""
    if bound + eps < 0:
        return False
    hi = (bound + eps) ** 2
    lo = (bound - eps) ** 2 if bound - eps > 0 else Fraction(0)
    return lo <= value_sq <= hi


def bottom(state: State, decl: EntityDecl) -> Optional[Fraction]:
    if decl.shape is ShapeKind.POINT:
        return state.value(decl.id, "y")
    if decl.shape is ShapeKind.CIRCLE:
        return state.value(decl.id, "y") - state.value(decl.id, "r")
    if decl.shape is ShapeKind.RECTANGLE:
        return state.value(decl.id, "y") - state.value(decl.id, "h") / 2
    return None


def top(state: State, decl: EntityDecl) -> Optional[Fraction]:
    if decl.shape is ShapeKind.POINT:
        return state.value(decl.id, "y")
    if decl.shape is ShapeKind.CIRCLE:
        return state.value(decl.id, "y") + state.value(decl.id, "r")
    if decl.shape is ShapeKind.RECTANGLE:
        return state.value(decl.id, "y") + state.value(decl.id, "h") / 2
    if decl.shape is ShapeKind.FLOOR:
        return state.value(decl.id, "y")
    return None


def horizontal_interval(state: State, decl: EntityDecl) -> Optional[tuple[Fraction, Fraction]]:
    """Closed x-extent; None means unbounded (Floor)."""
    if decl.shape is ShapeKind.POINT:
        x = state.value(decl.id, "x")
        return x, x
    if decl.shape is ShapeKind.CIRCLE:
        x, r = state.value(decl.id, "x"), state.value(decl.id, "r")
        return x - r, x + r
    if decl.shape is ShapeKind.RECTANGLE:
        x, w = state.value(decl.id, "x"), state.value(decl.id, "w")
        return x - w / 2, x + w / 2
    if decl.shape is ShapeKind.SEGMENT:
        x1, x2 = state.value(decl.id, "x1"), state.value(decl.id, "x2")
        return min(x1, x2), max(x1, x2)
    return None


def horizontal_overlap(state: State, a: EntityDecl, b: EntityDecl) -> bool:
    ia = horizontal_interval(state, a)
    ib = horizontal_interval(state, b)
    if ia is None or ib is None:
        return True
    return ia[0] <= ib[1] and ib[0] <= ia[1]


def x_neighbours(state: State, decls) -> dict[str, list[str]]:
    """All pairs, in the order of `decls`."""
    decls = list(decls)
    return {a.id: [b.id for b in decls if horizontal_overlap(state, a, b)] for a in decls}


def touches(state: State, ctx: EvalContext, a: EntityDecl, b: EntityDecl) -> Optional[bool]:
    """Boundary contact; symmetric; None when the pair is not supported."""
    eps = ctx.epsilon
    sa, sb = a.shape, b.shape
    if sa is ShapeKind.FLOOR and sb is ShapeKind.FLOOR:
        return None
    if sb is ShapeKind.FLOOR:
        ba = bottom(state, a)
        if ba is None:
            return None
        return abs(ba - state.value(b.id, "y")) <= eps
    if sa is ShapeKind.FLOOR:
        return touches(state, ctx, b, a)
    if sa is ShapeKind.CIRCLE and sb is ShapeKind.CIRCLE:
        d2 = distance_squared(state, a, b)
        return _within(d2, state.value(a.id, "r") + state.value(b.id, "r"), eps)
    if {sa, sb} == {ShapeKind.POINT, ShapeKind.CIRCLE}:
        circ = a if sa is ShapeKind.CIRCLE else b
        d2 = distance_squared(state, a, b)
        return _within(d2, state.value(circ.id, "r"), eps)
    if sa is ShapeKind.RECTANGLE and sb is ShapeKind.RECTANGLE:
        dx = abs(state.value(a.id, "x") - state.value(b.id, "x"))
        dy = abs(state.value(a.id, "y") - state.value(b.id, "y"))
        sumw = (state.value(a.id, "w") + state.value(b.id, "w")) / 2
        sumh = (state.value(a.id, "h") + state.value(b.id, "h")) / 2
        if dx > sumw + eps or dy > sumh + eps:
            return False
        return dx >= sumw - eps or dy >= sumh - eps
    if {sa, sb} == {ShapeKind.POINT, ShapeKind.RECTANGLE}:
        p, r = (a, b) if sa is ShapeKind.POINT else (b, a)
        dx = abs(state.value(p.id, "x") - state.value(r.id, "x"))
        dy = abs(state.value(p.id, "y") - state.value(r.id, "y"))
        hw, hh = state.value(r.id, "w") / 2, state.value(r.id, "h") / 2
        if dx > hw + eps or dy > hh + eps:
            return False
        return dx >= hw - eps or dy >= hh - eps
    return None


def rel_on(state: State, ctx: EvalContext, a: EntityDecl, b: EntityDecl) -> bool:
    if not touches(state, ctx, a, b):
        return False
    ba = bottom(state, a)
    tb = top(state, b)
    if ba is None or tb is None:
        return False
    return ba >= tb - ctx.epsilon and horizontal_overlap(state, a, b)


def fall_drop(state: State, ctx: EvalContext, target: str, delta: Fraction) -> Fraction:
    """The clamp of a `Fall` by a scan over every entity."""
    decl = ctx.decl(target)
    base = bottom(state, decl)
    if base is None:
        return Fraction(0)
    best_gap = None
    for other in ctx.entities.values():
        if other.id == target:
            continue
        surface = top(state, other)
        if surface is None or surface > base:
            continue
        if not horizontal_overlap(state, decl, other):
            continue
        gap = base - surface
        if best_gap is None or gap < best_gap:
            best_gap = gap
    return delta if best_gap is None else min(delta, best_gap)


def _sq(v: Fraction) -> Fraction:
    return v * v


def _contains(state: State, a: EntityDecl, b: EntityDecl, strict: bool) -> Optional[bool]:
    """a inside b; None when the shape pair is not supported.

    Strict containment turns every boundary comparison into a strict one; the
    non-strict variant realizes part-of.
    """
    lt = (lambda u, v: u < v) if strict else (lambda u, v: u <= v)
    sa, sb = a.shape, b.shape
    if sb is ShapeKind.CIRCLE:
        xc, yc, rc = (state.value(b.id, p) for p in ("x", "y", "r"))
        if sa is ShapeKind.POINT:
            d2 = _sq(state.value(a.id, "x") - xc) + _sq(state.value(a.id, "y") - yc)
            return lt(d2, _sq(rc))
        if sa is ShapeKind.CIRCLE:
            ra = state.value(a.id, "r")
            d2 = _sq(state.value(a.id, "x") - xc) + _sq(state.value(a.id, "y") - yc)
            return lt(ra, rc) and d2 <= _sq(rc - ra)
        if sa is ShapeKind.RECTANGLE:
            dx = abs(state.value(a.id, "x") - xc) + state.value(a.id, "w") / 2
            dy = abs(state.value(a.id, "y") - yc) + state.value(a.id, "h") / 2
            return lt(_sq(dx) + _sq(dy), _sq(rc))
    if sb is ShapeKind.RECTANGLE:
        xr, yr = state.value(b.id, "x"), state.value(b.id, "y")
        hw, hh = state.value(b.id, "w") / 2, state.value(b.id, "h") / 2
        if sa is ShapeKind.POINT:
            return lt(abs(state.value(a.id, "x") - xr), hw) and lt(
                abs(state.value(a.id, "y") - yr), hh
            )
        if sa is ShapeKind.CIRCLE:
            ra = state.value(a.id, "r")
            return lt(abs(state.value(a.id, "x") - xr) + ra, hw) and lt(
                abs(state.value(a.id, "y") - yr) + ra, hh
            )
        if sa is ShapeKind.RECTANGLE:
            return lt(abs(state.value(a.id, "x") - xr) + state.value(a.id, "w") / 2, hw) and lt(
                abs(state.value(a.id, "y") - yr) + state.value(a.id, "h") / 2, hh
            )
    return None


def _interiors_overlap(state: State, a: EntityDecl, b: EntityDecl) -> Optional[bool]:
    sa, sb = a.shape, b.shape
    if sa is ShapeKind.CIRCLE and sb is ShapeKind.CIRCLE:
        d2 = distance_squared(state, a, b)
        touching_or_apart = d2 >= _sq(state.value(a.id, "r") + state.value(b.id, "r"))
        if touching_or_apart:
            return False
        return not _contains(state, a, b, True) and not _contains(state, b, a, True)
    if sa is ShapeKind.RECTANGLE and sb is ShapeKind.RECTANGLE:
        dx = abs(state.value(a.id, "x") - state.value(b.id, "x"))
        dy = abs(state.value(a.id, "y") - state.value(b.id, "y"))
        sumw = (state.value(a.id, "w") + state.value(b.id, "w")) / 2
        sumh = (state.value(a.id, "h") + state.value(b.id, "h")) / 2
        if dx >= sumw or dy >= sumh:
            return False
        return not _contains(state, a, b, True) and not _contains(state, b, a, True)
    return None


def _same_geometry(state: State, a: EntityDecl, b: EntityDecl) -> bool:
    if a.shape is not b.shape:
        return False
    return all(state.value(a.id, p) == state.value(b.id, p) for p in SHAPE_PARAMS[a.shape])


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


def _defined(name: str, decls, result: Optional[bool]) -> bool:
    """`result` of a test that gives None for a shape pair outside `name`'s
    domain, raising as `eval_relation` does there."""
    if result is None:
        a, b = decls
        raise UnsupportedShapePair(f"{name}({a.shape.value}, {b.shape.value}) is not defined")
    return result


# `eval_relation` of the four region relations besides contact and on.
REGION_RELATIONS = {
    "inside": lambda st, ctx, a, b: _defined("inside", (a, b), _contains(st, a, b, True)),
    "partOf": lambda st, ctx, a, b: _defined("partOf", (a, b), _contains(st, a, b, False)),
    "overlaps": lambda st, ctx, a, b: _defined("overlaps", (a, b), _interiors_overlap(st, a, b)),
    "disjoint": rel_disjoint,
}
