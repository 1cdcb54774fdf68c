"""How `classify` grows with the scene: base against HEAD.

    python3 tools/scaling.py --base REV [--points 5,40,80,160] [--runs 3]

Run it from the root of the repository. It extracts the committed `src/` of
the base revision and of HEAD with `git archive`, and writes one scene per
size with `perfbench.workloads._classify_scenario` (20 states, seeded with
`random.Random(f"scale/7/{points}")`): 5, 40, 80 and 160 points are 13, 66,
126 and 246 entities. For each side a new process runs `classify --json` on
every scene in process through the CLI, `--runs` times after a warm-up run,
and keeps the fastest wall time; one more run counts the calls of
`geometry.boxes_apart` (the join's box tests) and `geometry.eval_relation`
(relations decided) and hashes the command's exit code and output. Per side
and measure it fits the exponent k of measure ~ entities^k by least squares
on the logarithms. It writes `BENCH_scaling.json` with both shas, the Python
version, every row and the exponents, and whether the outputs agree.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import platform
import random
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from unittest import mock

TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"
sys.path[:0] = [str(TOOLS), str(PERFBENCH)]

import bench_compare  # noqa: E402
import workloads  # noqa: E402

STATES = 20
MEASURES = ("seconds", "boxes_apart", "eval_relation")


def extract(sha: str, dest: Path) -> Path:
    """The committed `src/` of `sha`, extracted under `dest`."""
    archive = subprocess.run(["git", "archive", sha, "src"], cwd=bench_compare.ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def exponent(sizes: list[int], values: list[float]) -> float | None:
    """The least-squares slope of log(value) on log(size); None when a value
    is not positive or fewer than two sizes differ."""
    if len(set(sizes)) < 2 or min(values) <= 0:
        return None
    xs, ys = [math.log(s) for s in sizes], [math.log(v) for v in values]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def run_side(src: Path, workdir: Path, scenes: list[str], runs: int) -> list[dict]:
    """One row per scene, measured by one new process on the sources under `src`."""
    program = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import scaling; scaling.side()"
    proc = subprocess.run([sys.executable, "-c", program, str(src), str(runs)], input=json.dumps(scenes),
                          cwd=workdir, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the process on {src} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def side() -> None:
    """One side's process: argv[1] is the sources, argv[2] the timed runs,
    stdin the scene files as JSON; prints the rows as JSON."""
    sys.path.insert(0, sys.argv[1])
    runs = int(sys.argv[2])
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
    for scn in json.load(sys.stdin):
        command = {"args": ["classify", scn, "--json"]}
        _run_one(cli.main, command, None)  # warm-up
        best = math.inf
        for _ in range(runs):
            start = time.perf_counter()
            _run_one(cli.main, command, None)
            best = min(best, time.perf_counter() - start)
        counts.update(boxes_apart=0, eval_relation=0)
        with counted("boxes_apart"), counted("eval_relation"):
            output = _run_one(cli.main, command, None)
        rows.append({"seconds": best, **counts,
                     "sha256": hashlib.sha256(json.dumps(output).encode("utf-8")).hexdigest()})
    print(json.dumps(rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare HEAD against")
    parser.add_argument("--points", default="5,40,80,160", help="comma-separated points per scene")
    parser.add_argument("--runs", type=int, default=3, help="timed runs per scene and side")
    args = parser.parse_args(argv)
    points = [int(p) for p in args.points.split(",")]

    shas = {"base": bench_compare.git("rev-parse", args.base), "head": bench_compare.git("rev-parse", "HEAD")}
    sides = {}
    with tempfile.TemporaryDirectory(prefix="scaling-") as tmp:
        workdir = Path(tmp) / "scenes"
        workdir.mkdir()
        scenes, entities = [], []
        for n in points:
            text = workloads._classify_scenario(random.Random(f"scale/7/{n}"), f"scale{n}", n, STATES)
            (workdir / f"scale{n}.scn").write_text(text, encoding="utf-8")
            scenes.append(f"scale{n}.scn")
            entities.append(sum(1 for line in text.splitlines() if line.startswith("  entity ")))
        for name, sha in shas.items():
            rows = run_side(extract(sha, Path(tmp) / name), workdir, scenes, args.runs)
            for row, n, e in zip(rows, points, entities):
                row.update(points=n, entities=e)
            sides[name] = {
                "rows": rows,
                "exponent": {m: exponent(entities, [row[m] for row in rows]) for m in MEASURES},
            }
            for row in rows:
                print(f"{name} {row['entities']} entities: {row['seconds'] * 1000:.1f} ms, "
                      f"{row['boxes_apart']} boxes_apart, {row['eval_relation']} eval_relation", file=sys.stderr)

    doc = {
        "base_sha": shas["base"],
        "head_sha": shas["head"],
        "python": platform.python_version(),
        "states": STATES,
        "runs": args.runs,
        "sides": sides,
        "same_output": [b["sha256"] == h["sha256"] for b, h in zip(sides["base"]["rows"], sides["head"]["rows"])],
    }
    out = bench_compare.ROOT / "BENCH_scaling.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, entry in sides.items():
        print(f"{name} exponents: " + ", ".join(f"{m} {k:.2f}" if k is not None else f"{m} -"
                                                for m, k in entry["exponent"].items()))
    print(f"wrote {out.name}")
    return 0 if all(doc["same_output"]) else 1


if __name__ == "__main__":
    sys.exit(main())
