"""The relations that `ischema.geometry` decides on a state's integer view,
decided in `Fraction` arithmetic straight from the state's values: the
oracle the view is tested against.

Each function reads the parameters in the order its `geometry` counterpart
does, so a missing one raises the same `UnknownParameter`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ischema.geometry import EvalContext, distance_squared
from ischema.model import EntityDecl, ShapeKind, State


def _within(value_sq: Fraction, bound: Fraction, eps: Fraction) -> bool:
    """|sqrt(value_sq) - bound| <= eps, decided in rational arithmetic."""
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
