"""Measure the baseline: every workload on two sets of ten seeds, both run modes.

    python3 perfbench/baseline.py

Run from the repository root. For each workload it runs run.py untraced on
seeds 1-10 and again on seeds 11-20, and traced twice on each of seeds 1 and
2, one run at a time. It writes perfbench/baseline.json: per set and metric
the median, quartiles and spread (the distance between the quartiles as a
share of the median), the second set's median as a change from the first's,
and the git sha, Python version and core count of the measurement. It stops
at the first run whose outputs are wrong, and when two traced runs of one
seed disagree on a count.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SETS = (range(1, 11), range(11, 21))
TRACED_SEEDS = (1, 2)


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong outputs\n{proc.stderr}")
    print(f"{workload} seed {seed} trace {trace}: "
          + ", ".join(f"{k}={m['value']:.6g}" for k, m in out["metrics"].items()), file=sys.stderr)
    return out


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> None:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    doc = {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": SPEC["run_seconds"],
        "sets": [list(seeds) for seeds in SETS],
        "traced_seeds": list(TRACED_SEEDS),
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        untraced = [[run(workload, seed, 0) for seed in seeds] for seeds in SETS]
        traced = {}
        for seed in TRACED_SEEDS:
            first, second = run(workload, seed, 1), run(workload, seed, 1)
            for name, unit in ((m["name"], m["unit"]) for m in SPEC["per_layer"]):
                if unit in ("count", "bytes") and first["metrics"][name] != second["metrics"][name]:
                    raise SystemExit(f"{workload} seed {seed}: {name} differs between traced runs")
            traced[seed] = first
        end_to_end = {}
        for m in SPEC["end_to_end"]:
            sets = [summary([r["metrics"][m["name"]]["value"] for r in runs]) for runs in untraced]
            change = sets[1]["median"] / sets[0]["median"] - 1
            end_to_end[m["name"]] = {"sets": sets, "median_change": change}
        doc["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {
                str(seed): {k: m["value"] for k, m in out["metrics"].items()}
                for seed, out in traced.items()
            },
            "attempted": sum(r["attempted"] for runs in untraced for r in runs),
            "failed": sum(r["failed"] for runs in untraced for r in runs),
        }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
