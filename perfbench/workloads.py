"""Seeded inputs and command lists for the benchmark workloads.

`build(workload, seed, workdir)` writes the workload's `.ist`/`.scn` inputs
into `workdir` and returns the commands of one pass, as CLI argument lists
relative to `workdir`. The same seed writes the same files and commands.

Each workload keeps the *shape* of its inputs fixed (entity counts, trace
lengths, grid sizes, horizons) and lets the seed move only coordinates and
sizes, so the work per pass hardly depends on the seed.

checks.py decides whether each command's exit code and output are right.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

WORKLOADS = ("shipped", "classify_scaled", "simulate_gravity", "enumerate_grid")

SHIPPED_SCHEMAS = (
    "AT_REST", "CONTAINMENT", "LINK", "MOTION",
    "OBJECT_INTO_CONTAINER", "REVOLUTION", "SOURCE_PATH_GOAL", "SUPPORT",
)
COMPOSITE_SCHEMAS = ("SOURCE_PATH_GOAL", "OBJECT_INTO_CONTAINER", "SUPPORT", "LINK", "REVOLUTION")
CONCRETE_SCENARIOS = ("fig1", "ball_cup", "path3", "solar", "atom", "stack", "containment_grid")


@dataclass
class Command:
    """One CLI invocation. `kind` and `info` tell the checker what it means;
    `out_file` names a file the command writes, which is part of its output."""

    args: list[str]
    kind: str
    info: dict = field(default_factory=dict)
    out_file: Optional[str] = None

    @property
    def key(self) -> str:
        return " ".join(self.args)


def _q(v: Fraction) -> str:
    """A rational as the DSL reads it."""
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


def _half(rng: random.Random, lo: float, hi: float) -> Fraction:
    """A multiple of 1/2 in [lo, hi]."""
    return Fraction(rng.randint(int(2 * lo), int(2 * hi)), 2)


# --- shipped ---------------------------------------------------------------------


def _shipped(seed: int, workdir: Path, data: Path, toy: bool) -> list[Command]:
    for f in data.iterdir():
        if f.suffix in (".ist", ".scn"):
            shutil.copyfile(f, workdir / f.name)
    # The README examples, verbatim. classify of stack.scn stays first: it
    # loads every shipped schema, so each later pass does the same work.
    readme = [
        Command(["classify", "stack.scn"], "classify_text", {"scn": "stack.scn"}),
        Command(
            ["check", "CONTAINMENT.ist", "fig1.scn", "--bind", "object=a", "--bind", "container=c"],
            "check_text",
            {"ist": "CONTAINMENT.ist", "scn": "fig1.scn", "bind": {"object": "a", "container": "c"}},
        ),
        Command(
            ["simulate", "drop.scn", "--steps", "7", "--delta", "1", "--trace-out", "drop.trace.json"],
            "simulate",
            {"scn": "drop.scn", "steps": 7, "pushes": {}},
            out_file="drop.trace.json",
        ),
        Command(
            ["analogy", "solar.scn", "atom.scn", "--schema", "REVOLUTION", "--json"],
            "analogy",
            {"a": "solar.scn", "b": "atom.scn", "schema": "REVOLUTION"},
        ),
        Command(
            ["enumerate", "CONTAINMENT.ist", "containment_grid.scn", "--grid", "0:2,0:2"],
            "enumerate_text",
            {"ist": "CONTAINMENT.ist", "scn": "containment_grid.scn", "grid": (0, 2, 0, 2), "steps": 1,
             "circle": ("1", "1", "6/5")},
        ),
    ]
    scenarios = CONCRETE_SCENARIOS[:2] if toy else CONCRETE_SCENARIOS
    rest = []
    for i, name in enumerate(scenarios):
        scn = f"{name}.scn"
        rest.append(Command(["classify", scn, "--json"], "classify", {"scn": scn}))
        for schema in SHIPPED_SCHEMAS[:2] if toy else SHIPPED_SCHEMAS:
            rest.append(
                Command(["check", f"{schema}.ist", scn, "--json"], "check",
                        {"ist": f"{schema}.ist", "scn": scn, "bind": {}})
            )
        other = f"{scenarios[(i + 1) % len(scenarios)]}.scn"
        for schema in COMPOSITE_SCHEMAS[:2] if toy else COMPOSITE_SCHEMAS:
            rest.append(
                Command(["analogy", scn, other, "--schema", schema, "--json"], "analogy",
                        {"a": scn, "b": other, "schema": schema})
            )
    _rng("shipped", seed, 0).shuffle(rest)
    return readme + rest


# --- classify_scaled --------------------------------------------------------------


def _classify_scenario(rng: random.Random, name: str, n_points: int, n_states: int) -> str:
    """Points, circles, regions and floor-resting rectangles whose trace gives
    every shipped schema a chance to bind: a traveler visits the regions in
    order, a mover walks into a circle, riders rest on the rectangles."""
    lines = [f"scenario {name}", "  entity f : Floor = Floor(0)"]
    rects = []
    for k in range(2):
        w, h = _half(rng, 2, 4), _half(rng, 1, 3)
        x = Fraction(-10 + 14 * k) + _half(rng, 0, 3)
        rects.append((x, h))
        lines.append(f"  entity rect{k} : Container = Rectangle({_q(x)}, {_q(h / 2)}, {_q(w)}, {_q(h)})")
    circles = []
    for k in range(max(1, n_points // 2)):
        x, y, r = _half(rng, -8, 8), _half(rng, 6, 14), _half(rng, 1, 3)
        circles.append((x, y, r))
        lines.append(f"  entity circ{k} : Container = Circle({_q(x)}, {_q(y)}, {_q(r)})")
    regions = []
    for k in range(3):
        x, y = _half(rng, -12 + 8 * k, -8 + 8 * k), _half(rng, 16, 20)
        regions.append((x, y))
        lines.append(f"  entity reg{k} : Region = Point({_q(x)}, {_q(y)})")

    # Point trajectories, one list of (x, y) per point.
    paths = []
    T = n_states
    # traveler: starts on region 0, is on region 1 at T//2 and on region 2 at the end
    mid = T // 2
    trav = []
    for t in range(T):
        (a, b), s = (
            (regions[0:2], Fraction(t, mid)) if t <= mid else (regions[1:3], Fraction(t - mid, T - 1 - mid))
        )
        trav.append((a[0] + (b[0] - a[0]) * s, a[1] + (b[1] - a[1]) * s))
    paths.append(trav)
    # mover: walks into circle 0
    cx, cy, _ = circles[0]
    sx, sy = cx + 6, cy + _half(rng, -2, 2)
    paths.append([(sx + (cx - sx) * Fraction(min(t, T // 2), T // 2),
                   sy + (cy - sy) * Fraction(min(t, T // 2), T // 2)) for t in range(T)])
    # riders: rest on top of each rectangle for the whole trace
    for x, h in rects:
        paths.append([(x, h)] * T)
    # walkers: small random walks
    while len(paths) < n_points:
        x, y = _half(rng, -10, 10), _half(rng, 2, 14)
        walk = []
        for _ in range(T):
            walk.append((x, y))
            x += _half(rng, -1, 1)
            y += _half(rng, -1, 1)
        paths.append(walk)
    for k, path in enumerate(paths):
        x, y = path[0]
        lines.append(f"  entity p{k} : Object = Point({_q(x)}, {_q(y)})")
    lines.append(f"  trace length {T}")
    for t in range(1, T):
        moves = " ".join(
            f"p{k}.x = {_q(path[t][0])} p{k}.y = {_q(path[t][1])}"
            for k, path in enumerate(paths)
            if path[t] != path[t - 1]
        )
        lines.append(f"    state {t} {{ {moves} }}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _classify_scaled(seed: int, workdir: Path, toy: bool) -> list[Command]:
    # Three sizes (13, 16 and 19 entities), four scenarios each: p50 and p90
    # then fall inside a size class instead of on the noise of one tail.
    sizes, states = ((4, 4), 4) if toy else ((5, 7, 9) * 4, 20)
    cmds = []
    for i, points in enumerate(sizes):
        name = f"cs{i:02d}"
        text = _classify_scenario(_rng("classify_scaled", seed, i), name, points, states)
        (workdir / f"{name}.scn").write_text(text, encoding="utf-8")
        cmds.append(Command(["classify", f"{name}.scn", "--json"], "classify", {"scn": f"{name}.scn"}))
    return cmds


# --- simulate_gravity --------------------------------------------------------------


def _gravity_scene(rng: random.Random, name: str, n_bodies: int, n_pushed: int) -> tuple[str, dict]:
    """Bodies stacked in seven columns above a floor, with gaps between them;
    gravity(1) plus sideways pushes without `until`.

    The stacking pattern is fixed by the body count, so how long bodies fall
    and how many `on` atoms each step evaluates hardly depend on the seed; the
    seed picks the scene's horizontal position and the pushes' directions."""
    lines = [f"scenario {name}", "  entity f : Floor = Floor(0)"]
    shift = Fraction(rng.randint(-40, 40), 2)
    heights = [Fraction(0)] * 7
    ids = []
    for k in range(n_bodies):
        column = k % 7
        x = shift + 4 * column
        base = heights[column] + Fraction(1 + (k // 7) % 3, 2)
        eid = f"b{k}"
        if k % 3 == 0:
            lines.append(f"  entity {eid} : Object = Point({_q(x)}, {_q(base)})")
            heights[column] = base
        elif k % 3 == 1:
            r = Fraction(1 + k % 2, 2)
            lines.append(f"  entity {eid} : Container = Circle({_q(x)}, {_q(base + r)}, {_q(r)})")
            heights[column] = base + 2 * r
        else:
            w, h = Fraction(2 + k % 3, 2), Fraction(1 + k % 2, 2)
            lines.append(
                f"  entity {eid} : Container = Rectangle({_q(x)}, {_q(base + h / 2)}, {_q(w)}, {_q(h)})"
            )
            heights[column] = base + h
        ids.append(eid)
    lines.append("  rules")
    lines.append("    gravity(1)")
    pushes = {}
    for k, eid in enumerate(ids[3::4][:n_pushed]):
        dx = Fraction(rng.choice((-1, 1)), 2 + 2 * (k % 2))
        pushes[eid] = dx
        lines.append(f"    umph push{k} on {eid} ({_q(dx)}, 0)")
    lines.append("  horizon 2")
    lines.append("end")
    return "\n".join(lines) + "\n", {eid: str(dx) for eid, dx in pushes.items()}


def _simulate_gravity(seed: int, workdir: Path, toy: bool) -> list[Command]:
    # Four scenes of every size, so one pass averages over push directions.
    menu = [(4, 3)] if toy else [(n, s) for n in (8, 10, 12, 14, 16) for s in (12, 16, 20)] * 4
    cmds = []
    for i, (n, steps) in enumerate(menu):
        name = f"sg{i:02d}"
        text, pushes = _gravity_scene(_rng("simulate_gravity", seed, i), name, n, max(1, n // 4))
        (workdir / f"{name}.scn").write_text(text, encoding="utf-8")
        cmds.append(
            Command(["simulate", f"{name}.scn", "--steps", str(steps), "--json"], "simulate",
                    {"scn": f"{name}.scn", "steps": steps, "pushes": pushes})
        )
    return cmds


# --- enumerate_grid ------------------------------------------------------------------


ENUMERATE_MENU = (
    # (theory, grid side, horizon)
    ("CONTAINMENT", 3, 2),
    ("CONTAINMENT", 3, 3),
    ("CONTAINMENT", 4, 2),
    ("CONTAINMENT", 5, 2),
    ("OBJECT_INTO_CONTAINER", 3, 2),
    ("OBJECT_INTO_CONTAINER", 3, 3),
    ("OBJECT_INTO_CONTAINER", 4, 2),
    ("OBJECT_INTO_CONTAINER", 5, 2),
)


def _enumerate_grid(seed: int, workdir: Path, data: Path, toy: bool) -> list[Command]:
    for theory in ("CONTAINMENT", "OBJECT_INTO_CONTAINER"):
        shutil.copyfile(data / f"{theory}.ist", workdir / f"{theory}.ist")
    menu = [("CONTAINMENT", 2, 1), ("OBJECT_INTO_CONTAINER", 2, 2)] if toy else ENUMERATE_MENU
    cmds = []
    for i, (theory, side, steps) in enumerate(menu):
        rng = _rng("enumerate_grid", seed, i)
        # Two-digit coordinates keep the listing's size the same for every seed.
        x0, y0 = rng.randint(10, 90), rng.randint(10, 90)
        # The circle covers about a quarter of the grid. The seed translates
        # the grid and mirrors the circle's offset from the grid's center,
        # which leaves the number of grid points inside, and so the model
        # count and the work, unchanged. Centers and radius sit off the
        # quarter-grid, so no grid point lies on the boundary.
        cx = x0 + Fraction(side - 1, 2) + Fraction(rng.choice((-1, 1)), 8)
        cy = y0 + Fraction(side - 1, 2) + Fraction(rng.choice((-1, 1)), 8)
        r = Fraction(side, 3) + Fraction(1, 16)
        name = f"eg{i:02d}"
        text = (
            f"scenario {name}\n"
            f"  entity o : Object = Point({x0}, {y0})\n"
            f"  entity c : Container = Circle({_q(cx)}, {_q(cy)}, {_q(r)})\n"
            f"  trace length 1\n"
            f"end\n"
        )
        (workdir / f"{name}.scn").write_text(text, encoding="utf-8")
        grid = (x0, x0 + side - 1, y0, y0 + side - 1)
        base = ["enumerate", f"{theory}.ist", f"{name}.scn",
                "--grid", f"{grid[0]}:{grid[1]},{grid[2]}:{grid[3]}", "--steps", str(steps)]
        info = {"ist": f"{theory}.ist", "scn": f"{name}.scn", "grid": grid, "steps": steps,
                "circle": (str(cx), str(cy), str(r))}
        cmds.append(Command(base + ["--count-only"], "enumerate_count", info))
        cmds.append(Command(base + ["--json"], "enumerate_json", info))
    return cmds


def build(workload: str, seed: int, workdir: Path, data: Path, toy: bool = False) -> list[Command]:
    """Write the inputs of `workload` into `workdir`; return one pass of commands.

    `data` is the directory of the shipped theories and scenarios.
    """
    if workload == "shipped":
        return _shipped(seed, workdir, data, toy)
    if workload == "classify_scaled":
        return _classify_scaled(seed, workdir, toy)
    if workload == "simulate_gravity":
        return _simulate_gravity(seed, workdir, toy)
    if workload == "enumerate_grid":
        return _enumerate_grid(seed, workdir, data, toy)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
