"""Brute-force bounded model finding.

Free entities range over an integer-anchored grid of positions, one position
per state; every grid assignment whose trace satisfies all axioms at instant 0
is a model. The check runs through the naive reference evaluator so this
module stays an independent oracle for satisfiability claims.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from . import geometry, logic
from .errors import SearchSpaceTooLarge, UnknownEntity, UnsupportedShapePair
from .geometry import EvalContext
from .model import Scenario, State, Theory, Trace

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


def _models(
    theory: Theory,
    scenario: Scenario,
    spec: GridSpec,
    binding: Mapping[str, str],
    epsilon: Fraction,
    tau: Fraction,
) -> Iterator[Trace]:
    points = _check_spec(theory, scenario, spec)
    logic.validate_binding(theory, scenario, binding)
    ctx = EvalContext.for_scenario(scenario, theory, epsilon=epsilon, tau=tau)
    for trace in _assignment_traces(scenario, spec, points):
        if all(
            logic.reference_eval(axiom, trace, 0, binding, ctx) for axiom in theory.axioms
        ):
            yield trace


def enumerate_models(
    theory: Theory,
    scenario: Scenario,
    spec: GridSpec,
    binding: Mapping[str, str],
    epsilon: Fraction = geometry.DEFAULT_EPSILON,
    tau: Fraction = geometry.DEFAULT_TAU,
) -> list[Trace]:
    """All grid traces satisfying every axiom at instant 0, in enumeration order."""
    return list(_models(theory, scenario, spec, binding, epsilon, tau))


def count_models(
    theory: Theory,
    scenario: Scenario,
    spec: GridSpec,
    binding: Mapping[str, str],
    epsilon: Fraction = geometry.DEFAULT_EPSILON,
    tau: Fraction = geometry.DEFAULT_TAU,
) -> int:
    """len(enumerate_models(...)) without materializing the traces."""
    return sum(1 for _ in _models(theory, scenario, spec, binding, epsilon, tau))
