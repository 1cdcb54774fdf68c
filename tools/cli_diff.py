"""Compare the CLI output of two commits on every benchmark command.

    python3 tools/cli_diff.py --base REV --seeds 1,2

Run it from the root of the repository. It checks the base revision and HEAD
out into temporary `git worktree`s, so only committed files are compared.
For every perfbench workload and seed it writes the inputs with
`perfbench/workloads.build` once per side, from that side's shipped data,
and runs the commands of one pass in order in a new process per side, in
process through the CLI as the benchmark does. A further set, `simulate_rules`,
runs `simulate --json` and `--trace-out` on the shipped `drop.scn` and on
generated scenes whose rules the benchmark does not cover: generic rules
with geometric conditions, forces, `umph ... until` without gravity, and
values over mixed denominators. Beside it, `gravity_slides` runs the same
two commands on generated stacks under gravity whose pushed bodies slide
off what holds them and under a table, over a rising floor, for up to 60
steps. The set after them, `tolerances`, runs
`check` (bound and searched), `classify`, `analogy` and `enumerate`
(listing and counting) on the shipped data at a seeded non-default
`--epsilon` and `--tau`, which no benchmark command passes. Then
`still_runs` runs `check` (bound, searched, and violated so that witnesses
print), `classify` and `analogy` on generated traces whose points hold still
for stretches, step or orbit, and whose state lines write some values back
unchanged, with a generated theory of step relations, `final` and a
template. Then `capture` runs `check` with `--bind` on shipped
scenarios against generated theories whose quantified variables are named
after the entities the roles are bound to, so the text report has to rename
them. Then `classify_large` runs `classify --json`, and `check`
and `analogy` with unbound roles, on the benchmark's classify scenes at 66
and 126 entities, where the join indexes its two-role conditions. The
last, `grid_steps`, runs `enumerate` (counting, listing and `--json`) on
generated theories of `motion`, `ccwStep` and `thetaStep`, one of them under a
template named `motion`, over one and two free points, two and three
instants and fractional grid steps, on grids that can place a free point on
another entity's center, where `thetaStep` raises. A
command's output is the sha256 of its exit code, stdout, stderr and
the file it writes. Commands are compared by their place in the pass, since
a pass may repeat a command. It prints the commands whose outputs differ
and exits 1 if there are any, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"
sys.path[:0] = [str(TOOLS), str(PERFBENCH)]

import bench_compare  # noqa: E402
import workloads  # noqa: E402


SIMULATE_RULES = "simulate_rules"
GRAVITY_SLIDES = "gravity_slides"
TOLERANCES = "tolerances"
STILL_RUNS = "still_runs"
CAPTURE = "capture"
CLASSIFY_LARGE = "classify_large"
GRID_STEPS = "grid_steps"


def _q(rng: random.Random, lo: int, hi: int) -> str:
    """A rational in [lo, hi] over a denominator of 1, 2, 3, 5 or 7, as the DSL reads it."""
    d = rng.choice((1, 2, 3, 5, 7))
    v = Fraction(rng.randint(lo * d, hi * d), d)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _rule_scene(rng: random.Random, name: str, gravity: bool) -> str:
    """A point, a circle and a rectangle over a floor. With gravity: a push,
    a rule that adds a passive force while the circle rests on the floor and
    one that removes it, and a height that shrinks past 0. Without: a push
    that stops at a goal, a generic rule that moves the circle while the
    point is past a mark and the circle is not on the rectangle, a width
    that grows, and a force on the rectangle once the point is not inside
    the circle."""
    lines = [
        f"scenario {name}",
        "  entity f : Floor = Floor(0)",
        f"  entity a : Object = Point({_q(rng, -4, 4)}, {_q(rng, 1, 8)})",
        f"  entity c : Container = Circle({_q(rng, -4, 4)}, {_q(rng, 2, 8)}, {_q(rng, 1, 2)})",
        f"  entity r : Container = Rectangle({_q(rng, -4, 4)}, {_q(rng, 1, 6)}, {_q(rng, 1, 4)}, {_q(rng, 1, 3)})",
        "  rules",
    ]
    if gravity:
        lines += [
            f"    gravity({rng.choice(('1', '1/2', '2/3'))})",
            f"    umph push on a ({_q(rng, -1, 1)}, 0)",
            f"    rule gust when on(c, f) do addforce wind on c ({_q(rng, -1, 1)}, 0) passive",
            "    rule calm when not on(c, f) do removeforce wind on c",
            "    rule shrink when true do r.h += -1/4",
        ]
    else:
        lines += [
            f"    umph shove on a ({_q(rng, -1, 1)}, {_q(rng, -1, 1)}) until a.x > {_q(rng, 0, 4)}",
            f"    rule drift when a.x > {_q(rng, -2, 2)} and not on(c, r) do c.x += 1/5",
            "    rule grow when true do r.w += 1/6",
            f"    rule gust when not inside(a, c) do addforce wind on r ({_q(rng, -1, 1)}, 0)",
        ]
    return "\n".join(lines + [f"  horizon {rng.randint(4, 12)}", "end", ""])


def _slide_scene(rng: random.Random, name: str) -> str:
    """Bodies stacked in three columns above a floor beside a table, a slab
    on a leg; gravity, pushes that slide some bodies off their columns and
    under the slab, and a floor that rises in the first steps, which end
    before a body that starts 2 or more up can fall below it."""
    lines = [
        f"scenario {name}",
        "  entity f : Floor = Floor(0)",
        "  entity leg : Container = Rectangle(12, 3, 1, 2)",
        f"  entity slab : Container = Rectangle({_q(rng, 10, 14)}, 9/2, 6, 1)",
    ]
    heights = [Fraction(2)] * 3
    pushed = []
    for k in range(rng.randint(6, 12)):
        column = rng.randrange(3)
        x, base = Fraction(4 * column), heights[column] + rng.choice((0, 0, Fraction(1, 2)))
        size = Fraction(rng.randint(2, 4), 2)
        shape = ("Point", "Circle", "Rectangle")[k % 3]
        if shape == "Point":
            params, heights[column] = [x, base], base
        elif shape == "Circle":
            params, heights[column] = [x, base + size / 2, size / 2], base + size
        else:
            params, heights[column] = [x + Fraction(rng.randint(-1, 1), 2), base + size / 2, size, size], base + size
        sort = "Object" if shape == "Point" else "Container"
        lines.append(f"  entity b{k} : {sort} = {shape}({', '.join(str(v) for v in params)})")
        if k and rng.random() < 0.3:
            pushed.append(f"b{k}")
    lines += ["  rules", f"    gravity({rng.choice(('1', '1/2', '2/3'))})"]
    lines += [f"    umph slide{k} on {eid} ({rng.choice(('1/2', '-1/2', '1/3', '-1/3', '1'))}, 0)"
              for k, eid in enumerate(pushed)]
    lines.append(f"    rule rise when f.y < {rng.choice(('1/2', '1'))} do f.y += 1/2")
    return "\n".join(lines + [f"  horizon {rng.randint(20, 60)}", "end", ""])


def gravity_slides(seed: int, workdir: Path, toy: bool = False) -> list:
    """Write the `gravity_slides` inputs into `workdir`; return their commands."""
    commands = []
    for i in range(2 if toy else 6):
        name = f"slides{i}"
        text = _slide_scene(random.Random(f"{GRAVITY_SLIDES}/{seed}/{i}"), name)
        (workdir / f"{name}.scn").write_text(text, encoding="utf-8")
        commands.append(workloads.Command(["simulate", f"{name}.scn", "--json"], "simulate"))
        commands.append(workloads.Command(["simulate", f"{name}.scn", "--trace-out", f"{name}.trace.json"],
                                          "simulate", out_file=f"{name}.trace.json"))
    return commands


def simulate_rules(seed: int, workdir: Path, data: Path, toy: bool = False) -> list:
    """Write the `simulate_rules` inputs into `workdir`; return their commands."""
    shutil.copyfile(data / "drop.scn", workdir / "drop.scn")
    commands = [workloads.Command(["simulate", "drop.scn", "--json"], "simulate")]
    for i in range(2 if toy else 6):
        name = f"rules{i}"
        text = _rule_scene(random.Random(f"{SIMULATE_RULES}/{seed}/{i}"), name, gravity=i % 2 == 0)
        (workdir / f"{name}.scn").write_text(text, encoding="utf-8")
        commands.append(workloads.Command(["simulate", f"{name}.scn", "--json"], "simulate"))
        commands.append(workloads.Command(["simulate", f"{name}.scn", "--trace-out", f"{name}.trace.json"],
                                          "simulate", out_file=f"{name}.trace.json"))
    return commands


def _still_scene(rng: random.Random, name: str) -> str:
    """Two circles, two regions and four points over 12 to 24 instants: p0
    orbits the first circle counterclockwise, p1 walks into the second one,
    and p2 and p3 wander; p1, p2 and p3 hold still for stretches. Each state
    line also writes some values back unchanged."""
    T = rng.randint(12, 24)
    cx, cy = rng.randint(6, 9), rng.randint(-2, 2)
    lines = [
        f"scenario {name}",
        "  entity hub : Container = Circle(0, 0, 1)",
        f"  entity cup : Container = Circle({cx}, {cy}, 2)",
        *(f"  entity reg{k} : Region = Point({_q(rng, -8, 8)}, {_q(rng, 6, 9)})" for k in range(2)),
    ]
    orbit = [(5, 0), (4, 3), (0, 5), (-4, 3), (-5, 0), (-4, -3), (0, -5), (4, -3)]
    paths = [[orbit[t % 8] for t in range(T)]]
    for k in range(3):
        x, y = (cx - 6, cy) if k == 0 else (rng.randint(-8, 8), rng.randint(-4, 4))
        x, y, moving, path = Fraction(x), Fraction(y), False, []
        for _ in range(T):
            path.append((x, y))
            moving = moving if rng.random() < 0.7 else not moving
            if moving and k == 0:
                x = min(x + Fraction(rng.randint(1, 2), 2), Fraction(cx))
            elif moving:
                x, y = x + Fraction(rng.randint(-2, 2), 2), y + Fraction(rng.randint(-1, 1), 2)
        paths.append(path)
    lines += [f"  entity p{k} : Object = Point({path[0][0]}, {path[0][1]})" for k, path in enumerate(paths)]
    lines.append(f"  trace length {T}")
    for t in range(1, T):
        writes = [f"p{k}.{axis} = {v}" for k, path in enumerate(paths)
                  for axis, v, old in zip("xy", path[t], path[t - 1]) if v != old or rng.random() < 0.2]
        lines.append(f"    state {t} {{ {' '.join(writes)} }}")
    return "\n".join(lines + ["end", ""])


_STILL_AXIOMS = (
    "always (not final -> (motion(o) or near(o, c)))",
    "eventually (not motion(o) and inside(o, c))",
    "always (not final -> ccwStep(o, c)) or eventually (final and near(o, c))",
    "always (delta(o, c) >= 1 and (motion(o) -> o.x <= 12))",
    "eventually (near(o, c) and eventually not motion(o))",
    "not motion(o) -> always not motion(o)",
)


def still_runs(seed: int, workdir: Path, data: Path, toy: bool = False) -> list:
    """Write the `still_runs` inputs into `workdir`; return their commands."""
    for f in data.iterdir():
        if f.suffix == ".ist":
            shutil.copyfile(f, workdir / f.name)
    rng = random.Random(f"{STILL_RUNS}/{seed}")
    axioms = rng.sample(_STILL_AXIOMS, 3)
    (workdir / "RUNS.ist").write_text("\n".join([
        "theory RUNS", "  role o : Object", "  role c : Container",
        "  relation near(Object, Container) := delta(arg1, arg2) <= k", f"  param k = {rng.randint(2, 4)}",
        *(f"  axiom {a}" for a in axioms), "end", ""]), encoding="utf-8")
    names = [f"still{i}" for i in range(1 if toy else 4)]
    for i, name in enumerate(names):
        text = _still_scene(random.Random(f"{STILL_RUNS}/{seed}/{i}"), name)
        (workdir / f"{name}.scn").write_text(text, encoding="utf-8")
    args = []
    for name in names:
        scn = f"{name}.scn"
        args += [
            ["check", "RUNS.ist", scn, "--bind", "o=p1", "--bind", "c=cup"],
            ["check", "RUNS.ist", scn, "--bind", "o=p2", "--bind", "c=hub", "--json"],
            ["check", "RUNS.ist", scn, "--json"],
            ["check", "AT_REST.ist", scn, "--bind", "thing=p2"],
            ["check", "REVOLUTION.ist", scn, "--bind", "center=hub", "--json"],
            ["classify", scn, "--json"],
        ]
    args += [["analogy", f"{a}.scn", f"{b}.scn", "--schema", schema, "--json"]
             for a, b in zip(names, names[1:] + names[:1]) for schema in ("MOTION", "OBJECT_INTO_CONTAINER")]
    return [workloads.Command(a, a[0]) for a in args]


def tolerances(seed: int, workdir: Path, data: Path) -> list:
    """Copy the shipped theories and scenarios into `workdir`; return the
    `tolerances` commands."""
    for f in data.iterdir():
        if f.suffix in (".ist", ".scn"):
            shutil.copyfile(f, workdir / f.name)
    rng = random.Random(f"{TOLERANCES}/{seed}")
    flags = ["--epsilon", rng.choice(("1/4", "1/2", "1")), "--tau", rng.choice(("1/3", "2", "3"))]
    grid = ["enumerate", "SUPPORT.ist", "stack.scn", "--free", "marble", "--grid", "-1:1,0:3,1/2",
            "--bind", "upper=marble", "--bind", "lower=box"]
    args = [
        ["check", "SUPPORT.ist", "stack.scn", "--bind", "upper=marble", "--bind", "lower=box"],
        ["check", "SUPPORT.ist", "stack.scn", "--bind", "lower=crate", "--json"],
        ["check", "OBJECT_INTO_CONTAINER.ist", "ball_cup.scn"],
        *(["classify", scn, "--json"] for scn in ("fig1.scn", "ball_cup.scn", "stack.scn")),
        ["analogy", "solar.scn", "atom.scn", "--schema", "REVOLUTION", "--json"],
        grid,
        [*grid, "--count-only"],
    ]
    return [workloads.Command(a + flags, a[0]) for a in args]


_CAPTURE_AXIOMS = (
    "forall {c} : Object . not inside({c}, r)",
    "eventually exists {o} : Object . inside({o}, r) and not closeTo({o}, s, 1)",
    "always forall {c} : Container . inside(s, {c}) -> inside(s, r)",
    "forall {o} : Object . exists {c} : Container . inside({o}, {c}) or delta({o}, r) > 0",
    "always forall {o} : Object . delta({o}, s) >= 0 and (exists {c} : Container . delta({c}, s) < delta({c}, r))",
)


def capture(seed: int, workdir: Path, data: Path) -> list:
    """Copy three shipped scenarios into `workdir` and write a theory for
    each whose quantified variables are named after the entities its roles
    are bound to; return the `capture` commands."""
    rng = random.Random(f"{CAPTURE}/{seed}")
    axioms = rng.sample(_CAPTURE_AXIOMS, 3)
    args = []
    for scene, container, thing in (("ball_cup", "cup", "ball"), ("fig1", "c", "a"), ("stack", "box", "marble")):
        shutil.copyfile(data / f"{scene}.scn", workdir / f"{scene}.scn")
        ist = f"CAPTURE_{scene}.ist"
        (workdir / ist).write_text("\n".join([
            "theory CAPTURE", "  role r : Container", "  role s : Object",
            *(f"  axiom {a.format(c=container, o=thing)}" for a in axioms), "end", ""]), encoding="utf-8")
        bound = ["check", ist, f"{scene}.scn", "--bind", f"r={container}", "--bind", f"s={thing}"]
        args += [bound, [*bound, "--json"], ["check", ist, f"{scene}.scn", "--bind", f"r={container}"]]
    return [workloads.Command(a, a[0]) for a in args]


_LARGE_SCHEMAS = ("SUPPORT", "LINK", "OBJECT_INTO_CONTAINER", "REVOLUTION", "SOURCE_PATH_GOAL")


def classify_large(seed: int, workdir: Path, data: Path, toy: bool = False) -> list:
    """Write two `classify_large` scenes of 20 states into `workdir`, with
    40 and 80 points (66 and 126 entities; 5 and 10 points when `toy`), and
    copy the shipped theories; return the commands: `classify --json` and
    `check` of five schemas with unbound roles on each scene, and `analogy`
    between the scenes under the same schemas."""
    names = []
    for points in (5, 10) if toy else (40, 80):
        name = f"large{points}"
        text = workloads._classify_scenario(random.Random(f"{CLASSIFY_LARGE}/{seed}/{points}"), name, points, 20)
        (workdir / f"{name}.scn").write_text(text, encoding="utf-8")
        names.append(name)
    for schema in _LARGE_SCHEMAS:
        shutil.copyfile(data / f"{schema}.ist", workdir / f"{schema}.ist")
    args = []
    for name in names:
        args.append(["classify", f"{name}.scn", "--json"])
        args += [["check", f"{schema}.ist", f"{name}.scn", *(["--json"] if schema == "LINK" else [])]
                 for schema in _LARGE_SCHEMAS]
    args += [["analogy", f"{names[0]}.scn", f"{names[1]}.scn", "--schema", schema] for schema in _LARGE_SCHEMAS]
    return [workloads.Command(a, a[0]) for a in args]


# Axioms over the roles o and p, bound to free points, c, bound to a circle,
# and f, bound to a floor: every
# step relation, theta at c's center (which a grid may hold) or at the other
# free point, and ccwStep about the floor, which has no center.
_ONE_FREE_AXIOMS = (
    "eventually motion(o)",
    "always (not final -> (motion(o) or inside(o, c)))",
    "eventually ccwStep(o, c)",
    "always (not final -> not ccwStep(o, c)) or eventually inside(o, c)",
    "eventually thetaStep(o, c)",
    "not thetaStep(o, c) or inside(o, c)",
)
_TWO_FREE_AXIOMS = (
    "not (motion(o) and motion(p))",
    "eventually (ccwStep(p, o) or inside(p, c))",
    "always (not final -> (motion(o) -> not motion(p)))",
    "eventually thetaStep(p, c) or always inside(p, c)",
)
# Each raises wherever the brute force decides it: on a Floor, or at a frame
# that places o and p on one point.
_RAISING_AXIOMS = ("eventually (final or ccwStep(o, f))", "eventually thetaStep(o, p)")


def grid_steps(seed: int, workdir: Path, toy: bool = False) -> list:
    """Write the `grid_steps` inputs into `workdir`; return their commands:
    `enumerate` counting, listing and `--json` on four generated theories of
    step relations (two when `toy`). They place one free point on an integer
    grid over three instants, one on a grid of step 1/2 or 2/3, two free
    points over two or three instants, and one or two under a theory whose
    template is named `motion`."""
    commands = []
    for i in (0, 2) if toy else range(4):
        rng = random.Random(f"{GRID_STEPS}/{seed}/{i}")
        two = i == 2 or (i == 3 and rng.random() < 0.5)
        cx, cy = rng.randint(0, 2), rng.randint(0, 2)
        half = rng.random() < 0.5  # c's center off the grid points, or on one
        center = (f"{2 * cx + 1}/2", f"{2 * cy + 1}/2") if half else (str(cx), str(cy))
        name = f"steps{i}"
        (workdir / f"{name}.scn").write_text("\n".join([
            f"scenario {name}",
            "  entity ball : Object = Point(0, 0)",
            "  entity peg : Object = Point(1, 0)",
            f"  entity cup : Container = Circle({center[0]}, {center[1]}, {rng.choice(('6/5', '3/2', '2'))})",
            "  entity floor : Floor = Floor(-1)",
            "  trace length 1",
            "end",
            "",
        ]), encoding="utf-8")
        axioms = rng.sample(_ONE_FREE_AXIOMS, 2) + (rng.sample(_TWO_FREE_AXIOMS, 2) if two else [])
        if rng.random() < 0.25:
            axioms.append(rng.choice(_RAISING_AXIOMS))
        template = ["  relation motion(Object) := arg1.x >= 1"] if i == 3 else []
        (workdir / f"STEPS{i}.ist").write_text("\n".join([
            f"theory STEPS{i}", "  role o : Object", "  role p : Object", "  role c : Container", "  role f : Floor",
            *template, *(f"  axiom {a}" for a in axioms), "end", ""]), encoding="utf-8")
        if i == 1:
            grid, horizon = f"0:1,0:1,{rng.choice(('1/2', '2/3'))}", rng.choice((2, 3))
        elif two:
            grid, horizon = rng.choice((("0:1,0:1", 2), ("0:1,0:0,1/2", 3)))
        else:
            grid, horizon = "0:2,0:2", 3
        base = ["enumerate", f"STEPS{i}.ist", f"{name}.scn", "--grid", grid, "--steps", str(horizon),
                "--free", "ball,peg" if two else "ball",
                "--bind", "o=ball", "--bind", "p=peg", "--bind", "c=cup", "--bind", "f=floor"]
        commands += [workloads.Command([*base, "--count-only"], "enumerate_count"),
                     workloads.Command(base, "enumerate_text"),
                     workloads.Command([*base, "--json"], "enumerate_json")]
    return commands


def build(workload: str, seed: int, workdir: Path, data: Path, toy: bool) -> list:
    if workload == SIMULATE_RULES:
        return simulate_rules(seed, workdir, data, toy)
    if workload == GRAVITY_SLIDES:
        return gravity_slides(seed, workdir, toy)
    if workload == TOLERANCES:
        return tolerances(seed, workdir, data)
    if workload == STILL_RUNS:
        return still_runs(seed, workdir, data, toy)
    if workload == CAPTURE:
        return capture(seed, workdir, data)
    if workload == CLASSIFY_LARGE:
        return classify_large(seed, workdir, data, toy)
    if workload == GRID_STEPS:
        return grid_steps(seed, workdir, toy)
    return workloads.build(workload, seed, workdir, data, toy=toy)


def run_side(src: Path, workdir: Path, commands: list) -> list[str]:
    """The output digest of each of `commands`, run in order in `workdir` by
    one new process on the ischema sources under `src`."""
    program = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import cli_diff; cli_diff.side()"
    spec = [{"args": c.args, "out_file": c.out_file} for c in commands]
    proc = subprocess.run([sys.executable, "-c", program, str(src)], input=json.dumps(spec),
                          cwd=workdir, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the process on {src} failed:\n{proc.stderr[-2000:]}")
    return proc.stdout.split()


def side() -> None:
    """One side's process: runs the commands that stdin holds as JSON on the
    sources under argv[1] and prints one digest a line."""
    sys.path.insert(0, sys.argv[1])
    import ischema.cli as cli
    from child import _run_one

    for command in json.load(sys.stdin):
        out_file = Path(command["out_file"]) if command["out_file"] else None
        if out_file is not None:
            out_file.unlink(missing_ok=True)
        code, stdout, stderr = _run_one(cli.main, command, None)
        written = out_file.read_text(encoding="utf-8") if out_file is not None and out_file.is_file() else None
        digest = hashlib.sha256(json.dumps([code, stdout, stderr, written]).encode("utf-8"))
        print(digest.hexdigest())


def main(argv=None, toy: bool = False) -> int:
    """`toy` runs the workloads at the sizes of the benchmark's self-test."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare HEAD against")
    parser.add_argument("--seeds", default="1,2", help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    shas = {"base": bench_compare.git("rev-parse", args.base), "head": bench_compare.git("rev-parse", "HEAD")}
    total = differing = 0
    with tempfile.TemporaryDirectory(prefix="cli-diff-") as tmp, bench_compare.checkouts(shas, Path(tmp)) as sides:
        for workload in (*workloads.WORKLOADS, SIMULATE_RULES, GRAVITY_SLIDES, TOLERANCES, STILL_RUNS, CAPTURE,
                         CLASSIFY_LARGE, GRID_STEPS):
            for seed in seeds:
                digests = {}
                for name, path in sides.items():
                    workdir = Path(tmp) / f"{name}-{workload}-{seed}"
                    workdir.mkdir()
                    src = path / "src"
                    commands = build(workload, seed, workdir, src / "ischema" / "data", toy)
                    digests[name] = run_side(src, workdir, commands)
                differ = [i for i, (b, h) in enumerate(zip(digests["base"], digests["head"])) if b != h]
                print(f"{workload} seed {seed}: {len(commands)} commands, {len(differ)} differ")
                for i in differ:
                    print(f"  #{i}: {commands[i].key}")
                total += len(commands)
                differing += len(differ)
    print(f"{shas['base'][:12]} against {shas['head'][:12]}: {total} commands, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
