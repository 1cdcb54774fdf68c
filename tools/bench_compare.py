"""Compare the benchmark of two commits in alternating pairs of runs.

    python3 tools/bench_compare.py --base REV --workloads simulate_gravity \
        --pairs 10 --seed 71 --seconds 6 --label gravity_view

Run it from the root of the repository. It checks the base revision and HEAD
out into temporary `git worktree`s, so only committed files are measured, and
runs HEAD's `perfbench/run.py` against each side's sources, so both sides
share one benchmark. Each pair runs both sides once, one after the other;
the side that runs first alternates from pair to pair. It writes
`BENCH_<label>.json` with both shas, the Python version, the seed, every
pair's metrics, and per workload and end-to-end metric each side's median
with [q1, q3] and the number of pairs the change won. After the timed pairs
it runs `perfbench/run.py --trace 1` once per side and workload, and stores
those per-layer metrics (work counters and self times) under `traced`.
Under `src_lines` it stores the lines added and deleted under `src/` from
the base revision to HEAD, per file and in total, and the net change.

A gain is shown when the change wins at least nine tenths of the pairs and
its median is better than the base's by more than the distance between the
base's quartiles. Against each end-to-end metric's `bound` in BENCHMARK.json,
a fraction of the base's median, a metric is `regressed` when the head's
median is worse than the base's by more than the bound, and `unresolved`
when the base's quartiles lie further apart than the bound and not every
head run is better than every base run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


@contextlib.contextmanager
def checkouts(shas: dict[str, str], where: Path) -> Iterator[dict[str, Path]]:
    """Each revision of `shas` (name -> sha) checked out into a detached
    `git worktree` at `where / name`, so only committed files are seen;
    yields name -> path, and removes the worktrees on exit."""
    paths = {name: where / name for name in shas}
    try:
        for name, path in paths.items():
            git("worktree", "add", "--detach", str(path), shas[name])
        yield paths
    finally:
        for path in paths.values():
            if path.exists():
                git("worktree", "remove", "--force", str(path))
        git("worktree", "prune")


def run_bench(runner: Path, side: Path, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """One run of `runner` (a perfbench/run.py) on the sources under `side`,
    traced or not: the JSON summary it prints last."""
    proc = subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=side, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{runner} failed in {side}:\n{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
    }


def src_lines(base: str, head: str) -> dict:
    """`git diff --numstat base head -- src/`: lines added and deleted per
    file, their totals, and the net change."""
    files = {}
    for line in git("diff", "--numstat", base, head, "--", "src/").splitlines():
        added, deleted, path = line.split("\t", 2)
        files[path] = {"added": int(added), "deleted": int(deleted)}
    added = sum(f["added"] for f in files.values())
    deleted = sum(f["deleted"] for f in files.values())
    return {"files": files, "added": added, "deleted": deleted, "net": added - deleted}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and [q1, q3], the change's wins (ties
    count for neither side), and whether a gain is shown."""
    out = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
        sides = {}
        for side, values in (("base", base), ("head", head)):
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            sides[side] = {"median": statistics.median(values), "q1_q3": [q1, q3]}
        spread = sides["base"]["q1_q3"][1] - sides["base"]["q1_q3"][0]
        gain = sign * (sides["head"]["median"] - sides["base"]["median"])
        out[name] = {
            **sides,
            "ratio": sides["head"]["median"] / sides["base"]["median"] if sides["base"]["median"] else None,
            "wins": wins,
            "pairs": len(pairs),
            "gain_shown": wins >= 0.9 * len(pairs) and gain > spread,
        }
    return out


def judge(pairs: list[dict], name: str, direction: str, bound: float) -> dict:
    """Whether metric `name`, better when `direction`, is `regressed` or
    `unresolved` under `bound`, a fraction of the base's median."""
    base = [p["base"]["metrics"][name] for p in pairs]
    head = [p["head"]["metrics"][name] for p in pairs]
    sign = 1 if direction == "higher" else -1
    median = statistics.median(base)
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    return {
        "regressed": sign * (median - statistics.median(head)) > bound * abs(median),
        "unresolved": q3 - q1 > bound * abs(median) and not all_better,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare HEAD against")
    parser.add_argument("--workloads", required=True, help="comma-separated perfbench workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="perfbench's --seconds per run")
    parser.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    parser.add_argument("--workdir", default=None, help="where the worktrees go (default: a temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, so that quartiles exist")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    shas = {"base": git("rev-parse", args.base), "head": git("rev-parse", "HEAD")}
    lines = src_lines(shas["base"], shas["head"])
    workloads = args.workloads.split(",")
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    traced: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench-compare-", dir=args.workdir) as tmp, \
            checkouts(shas, Path(tmp)) as sides:
        runner = sides["head"] / "perfbench" / "run.py"
        for k in range(args.pairs):
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            for workload in workloads:
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(runner, sides[side], workload, args.seed, args.seconds)
                results[workload].append(pair)
                print(f"pair {k + 1}/{args.pairs} {workload}: "
                      + ", ".join(f"{s} {pair[s]['metrics']['throughput_cmd_s']:.1f} cmd/s" for s in order),
                      file=sys.stderr)
        for workload in workloads:
            traced[workload] = {side: run_bench(runner, path, workload, args.seed, args.seconds, trace=True)
                                for side, path in sides.items()}
            print(f"traced {workload}", file=sys.stderr)

    doc = {
        "label": args.label,
        "base_sha": shas["base"],
        "head_sha": shas["head"],
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "src_lines": lines,
        "workloads": {
            w: {
                "correct": all(p[s]["correct"] for p in pairs + [traced[w]] for s in ("base", "head")),
                "summary": {
                    name: {**m, **(judge(pairs, name, better[name], bounds[name]) if name in bounds else {})}
                    for name, m in summarize(pairs, better).items()
                },
                "runs": pairs,
                "traced": traced[w],
            }
            for w, pairs in results.items()
        },
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for w, entry in doc["workloads"].items():
        for name, m in entry["summary"].items():
            print(f"{w} {name}: base {m['base']['median']:.4g} {m['base']['q1_q3']}, "
                  f"head {m['head']['median']:.4g}, wins {m['wins']}/{m['pairs']}, gain shown: {m['gain_shown']}, "
                  f"regressed: {m.get('regressed')}, unresolved: {m.get('unresolved')}")
    print(f"src/ lines: +{lines['added']} -{lines['deleted']}, net {lines['net']:+d}")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
