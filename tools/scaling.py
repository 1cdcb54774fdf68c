"""How `classify`, `simulate` and `enumerate` grow with the input: base against HEAD.

    python3 tools/scaling.py --base REV [--points 5,40,80,160] \
        [--bodies 16,32,64,128,256] [--runs 3]

Run it from the root of the repository. It checks the base revision and HEAD
out into temporary `git worktree`s (`bench_compare.checkouts`), so only
committed files are measured, and writes three series of inputs, one per
size. The `classify` series takes `perfbench.workloads._classify_scenario`
(20 states, seeded with `random.Random(f"scale/7/{points}")`): 5, 40, 80 and
160 points are 13, 66, 126 and 246 entities, and each scene runs
`classify --json`. The `simulate` series takes
`perfbench.workloads._gravity_scene` (seeded with
`random.Random(f"scale/7/{bodies}")`) with 16, 32, 64, 128 and 256 bodies,
a quarter of them pushed, and each scene runs `simulate --steps 20 --json`.
The `enumerate` series runs the shipped OBJECT_INTO_CONTAINER with
`--steps 2 --count-only` on square grids of side `GRIDS` (4, 8 and 16), a
point free on them and a circle over about a quarter of the grid, as in the
benchmark's `enumerate_grid`; its `json` part runs `--json` on the grids of
side up to `LISTED_MAX_SIDE`, whose listings stay near 1 MB (17 MB at side
16).

The sides are timed in `ROUNDS` (11) alternating rounds, the side that runs
first alternating from round to round. In each round a new process per side
runs every command in process through the CLI, `--runs` times after a
warm-up run, and keeps the fastest wall time; a row's `seconds` is the
median of its rounds' fastest times, which it keeps under `rounds`. On a
shared 2-core machine one process can run about 1.7 times slower than the
next throughout, so 5 rounds can still leave unchanged code 1.7 times apart
in the median; 11 do not. In the first round one more run counts the calls
of the series' `geometry` functions and hashes the command's exit code and
output. `classify` counts
`boxes_apart` (the join's box tests) and `eval_relation` (relations
decided); `simulate` counts `touches` (gravity's contact tests); `enumerate`
counts `eval_relation`. Per side, series and measure it fits the exponent k
of measure ~ size^k by least squares on the logarithms, the size being the
entities, the bodies or the grid's frames (its points). It writes
`BENCH_scaling.json` with both shas, the Python version, every row and the
exponents, and whether the outputs agree: the `classify` series at the top
level, the others under `simulate` and `enumerate` (its listing under
`enumerate.json`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"
sys.path[:0] = [str(TOOLS), str(PERFBENCH)]

import bench_compare  # noqa: E402
import workloads  # noqa: E402

STATES = 20
HORIZON = 2  # the instants of the enumerate series
GRIDS = (4, 8, 16)  # the sides of the enumerate series' grids
LISTED_MAX_SIDE = 8  # the largest grid whose models the enumerate series lists
ROUNDS = 11  # alternating rounds of both sides
# series -> the size its exponents are fitted on, and the `geometry` functions whose calls it counts
SERIES = {"classify": ("entities", ("boxes_apart", "eval_relation")), "simulate": ("bodies", ("touches",)),
          "enumerate": ("frames", ("eval_relation",)), "enumerate_json": ("frames", ("eval_relation",))}


def exponent(sizes: list[int], values: list[float]) -> float | None:
    """The least-squares slope of log(value) on log(size); None when a value
    is not positive or fewer than two sizes differ."""
    if len(set(sizes)) < 2 or min(values) <= 0:
        return None
    xs, ys = [math.log(s) for s in sizes], [math.log(v) for v in values]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def run_side(src: Path, workdir: Path, commands: list[dict], runs: int, count: bool) -> list[dict]:
    """One row per command ({"args", "counted"}), measured by one new process
    on the sources under `src`; with the counts and the output's hash when
    `count`."""
    program = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import scaling; scaling.side()"
    proc = subprocess.run([sys.executable, "-c", program, str(src), str(runs), str(int(count))],
                          input=json.dumps(commands), cwd=workdir, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the process on {src} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def side() -> None:
    """One side's process: argv[1] is the sources, argv[2] the timed runs,
    argv[3] 1 to count and hash, stdin the commands as JSON; prints the rows
    as JSON."""
    sys.path.insert(0, sys.argv[1])
    runs, count = int(sys.argv[2]), sys.argv[3] == "1"
    import ischema.cli as cli
    from ischema import geometry
    from child import _run_one

    counts: dict[str, int] = {}

    def counted(name: str):
        real = getattr(geometry, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return mock.patch.object(geometry, name, wrapper)

    rows = []
    for command in json.load(sys.stdin):
        _run_one(cli.main, command, None)  # warm-up
        best = math.inf
        for _ in range(runs):
            start = time.perf_counter()
            _run_one(cli.main, command, None)
            best = min(best, time.perf_counter() - start)
        rows.append({"seconds": best})
        if not count:
            continue
        counts.clear()
        counts.update((name, 0) for name in command["counted"])
        with contextlib.ExitStack() as stack:
            for name in command["counted"]:
                stack.enter_context(counted(name))
            output = _run_one(cli.main, command, None)
        rows[-1].update(counts, sha256=hashlib.sha256(json.dumps(output).encode("utf-8")).hexdigest())
    print(json.dumps(rows))


def scenes(workdir: Path, data: Path, points: list[int], bodies: list[int]) -> dict[str, list[dict]]:
    """Per series, one entry per size: the command, its size and the size's
    name; the input files are written to `workdir`, the theory copied from
    the shipped ones under `data`."""
    out: dict[str, list[dict]] = {name: [] for name in SERIES}
    for n in points:
        text = workloads._classify_scenario(random.Random(f"scale/7/{n}"), f"scale{n}", n, STATES)
        (workdir / f"scale{n}.scn").write_text(text, encoding="utf-8")
        entities = sum(1 for line in text.splitlines() if line.startswith("  entity "))
        out["classify"].append({"args": ["classify", f"scale{n}.scn", "--json"], "points": n, "entities": entities})
    for n in bodies:
        text, _ = workloads._gravity_scene(random.Random(f"scale/7/{n}"), f"gravity{n}", n, n // 4)
        (workdir / f"gravity{n}.scn").write_text(text, encoding="utf-8")
        out["simulate"].append({"args": ["simulate", f"gravity{n}.scn", "--steps", str(STATES), "--json"],
                                "bodies": n})
    shutil.copyfile(data / "OBJECT_INTO_CONTAINER.ist", workdir / "OBJECT_INTO_CONTAINER.ist")
    for side in GRIDS:
        # the circle of `workloads._enumerate_grid`, centered off the grid points
        center, r = Fraction(side - 1, 2) + Fraction(1, 8), Fraction(side, 3) + Fraction(1, 16)
        (workdir / f"grid{side}.scn").write_text(
            f"scenario grid{side}\n  entity o : Object = Point(0, 0)\n"
            f"  entity c : Container = Circle({center}, {center}, {r})\n  trace length 1\nend\n", encoding="utf-8")
        args = ["enumerate", "OBJECT_INTO_CONTAINER.ist", f"grid{side}.scn", "--grid", f"0:{side - 1},0:{side - 1}",
                "--steps", str(HORIZON)]
        out["enumerate"].append({"args": [*args, "--count-only"], "grid": side, "frames": side * side})
        if side <= LISTED_MAX_SIDE:
            out["enumerate_json"].append({"args": [*args, "--json"], "grid": side, "frames": side * side})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare HEAD against")
    parser.add_argument("--points", default="5,40,80,160", help="comma-separated points per classify scene")
    parser.add_argument("--bodies", default="16,32,64,128,256", help="comma-separated bodies per simulate scene")
    parser.add_argument("--runs", type=int, default=3, help="timed runs per command, side and round")
    args = parser.parse_args(argv)
    points = [int(p) for p in args.points.split(",")]
    bodies = [int(b) for b in args.bodies.split(",")]

    shas = {"base": bench_compare.git("rev-parse", args.base), "head": bench_compare.git("rev-parse", "HEAD")}
    with tempfile.TemporaryDirectory(prefix="scaling-") as tmp, \
            bench_compare.checkouts(shas, Path(tmp)) as checkouts:
        workdir = Path(tmp) / "scenes"
        workdir.mkdir()
        plan = scenes(workdir, checkouts["head"] / "src" / "ischema" / "data", points, bodies)
        commands = [{"args": s["args"], "counted": SERIES[name][1]} for name, sizes in plan.items() for s in sizes]
        measured: dict[str, list[dict]] = {}  # side -> the first round's rows, each with every round's time
        for r in range(ROUNDS):
            for side_name in ("base", "head") if r % 2 == 0 else ("head", "base"):
                rows = run_side(checkouts[side_name] / "src", workdir, commands, args.runs, count=r == 0)
                if r == 0:
                    measured[side_name] = [{**row, "rounds": []} for row in rows]
                for row, timed in zip(measured[side_name], rows):
                    row["rounds"].append(timed["seconds"])
    series = {}
    for side_name, rows in measured.items():
        rows = iter(rows)
        for name, sizes in plan.items():
            size, counted = SERIES[name]
            mine = [{**next(rows), **{k: v for k, v in s.items() if k != "args"}} for s in sizes]
            for row in mine:
                row["seconds"] = statistics.median(row["rounds"])
            series.setdefault(name, {"sides": {}})["sides"][side_name] = {
                "rows": mine,
                "exponent": {m: exponent([row[size] for row in mine], [row[m] for row in mine])
                             for m in ("seconds", *counted)},
            }
            for row in mine:
                print(f"{side_name} {name} {row[size]} {size}: {row['seconds'] * 1000:.1f} ms, "
                      + ", ".join(f"{row[m]} {m}" for m in counted), file=sys.stderr)
    for entry in series.values():
        base, head = entry["sides"]["base"]["rows"], entry["sides"]["head"]["rows"]
        entry["same_output"] = [b["sha256"] == h["sha256"] for b, h in zip(base, head)]

    doc = {
        "base_sha": shas["base"],
        "head_sha": shas["head"],
        "python": platform.python_version(),
        "states": STATES,
        "runs": args.runs,
        "rounds": ROUNDS,
        **series["classify"],
        "simulate": series["simulate"],
        "enumerate": {**series["enumerate"], "horizon": HORIZON, "json": series["enumerate_json"]},
    }
    out = bench_compare.ROOT / "BENCH_scaling.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, entry in series.items():
        for side_name, data in entry["sides"].items():
            print(f"{side_name} {name} exponents: " + ", ".join(
                f"{m} {k:.2f}" if k is not None else f"{m} -" for m, k in data["exponent"].items()))
    print(f"wrote {out.name}")
    return 0 if all(all(entry["same_output"]) for entry in series.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
