"""The ischema benchmark: named workloads through the real CLI, in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. It writes the workload's generated
inputs to a temporary directory under `.perfbench_tmp/`, runs fresh child
processes one after another (never in parallel; each is one client in a
closed loop, one thread), checks every command's exit code and output, and
prints one line per metric followed by a JSON summary as the last line.

--trace 0 runs CHILDREN untraced children of S/CHILDREN seconds each and
reports the end-to-end metrics. --trace 1 runs one child for S seconds that
alternates untraced and traced passes, and reports the per-layer metrics of
the traced passes, with the tracing overhead as the ratio of traced to
untraced pass time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS, read_spans, self_times  # noqa: E402

CHILDREN = 10
# Reported times are scaled to a machine that runs child.calibrate() in this
# many seconds; see end_to_end().
KERNEL_REF_S = 0.002
RUN_LIMIT_S = 170  # children are killed when the run has taken this long

# Metric names and units, as BENCHMARK.json lists them. Per-layer counts are
# per pass over the workload's commands and exact; self times are seconds per
# pass.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_child(workdir: Path, src: Path, commands, seconds: float, trace: bool, tag: str,
              limit: float) -> dict:
    spec = {
        "src": str(src),
        "commands": [{"args": c.args, "out_file": c.out_file} for c in commands],
        "seconds": seconds,
        "trace": trace,
        "spans": str(workdir / f"{tag}.spans"),
    }
    spec_path, result_path = workdir / f"{tag}.spec.json", workdir / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0", ISCHEMA_COLOR="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
        cwd=workdir, env=env, timeout=max(1.0, limit - time.monotonic()), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_outputs(checker, commands, children: list[dict], pins: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every execution in every child.

    A command must give one (exit code, output) across all its executions,
    that output must pass the checker, and match its pinned digest if any."""
    variants: dict[int, dict[str, dict]] = {}
    for child in children:
        for i, seen in child["outputs"].items():
            for key, v in seen.items():
                slot = variants.setdefault(int(i), {}).setdefault(key, dict(v, count=0))
                slot["count"] += v["count"]
    attempted = failed = 0
    reasons: list[str] = []
    for i, seen in sorted(variants.items()):
        cmd = commands[i]
        executions = sum(v["count"] for v in seen.values())
        attempted += executions
        if len(seen) > 1:
            problem = f"{cmd.key}: {len(seen)} different outputs"
        else:
            (key, v), = seen.items()
            problem = checker.check(cmd.kind, cmd.info, v["code"], v["stdout"], v["file"])
            if problem is None and pins.get(cmd.key, key) != key:
                problem = f"{cmd.key}: output differs from the pinned digest"
            if problem and v["stderr"]:
                problem += f" (stderr: {v['stderr'].strip()[-300:]})"
        if problem:
            failed += executions
            reasons.append(problem)
    return attempted, failed, reasons


def pins_for(workload: str, seed: int, toy: bool) -> dict:
    """Pinned digests by command; generated inputs are pinned per seed, at
    full size only."""
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    table = pins.get(workload, {})
    if workload == "shipped":
        return table
    return {} if toy else table.get(str(seed), {})


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))
    return ordered[int(k)]


def end_to_end(children: list[dict]) -> tuple[dict, dict, int]:
    """Metrics in reference seconds, and the same metrics in wall seconds.

    Each child times the calibration kernel at the start and end of every
    segment of its loop, and on both sides of set-up. A time measured in a
    segment is scaled by KERNEL_REF_S over the mean of the kernel times at
    its two ends: the time it would have taken on a machine that runs the
    kernel in KERNEL_REF_S."""
    def metrics(scales: list[list[float]], setup_scales: list[float]) -> dict:
        latencies, per_child = [], []
        for c, scale in zip(children, scales):
            latencies += [dt * scale[seg] for _, dt, _, seg in c["samples"]]
            busy = sum(t * f for t, f in zip(c["segment_s"], scale))
            per_child.append(len(c["samples"]) / busy)
        return {
            "setup_s": statistics.median(c["setup_s"] * f for c, f in zip(children, setup_scales)),
            "throughput_cmd_s": statistics.median(per_child),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p90_ms": 1000 * percentile(latencies, 90),
            "peak_rss_mb": max(c["maxrss_kb"] / 1024 for c in children),
        }

    scales = [
        [KERNEL_REF_S / ((a + b) / 2) for a, b in zip(c["kernel_s"], c["kernel_s"][1:])]
        for c in children
    ]
    reference = metrics(scales, [KERNEL_REF_S / statistics.mean(c["setup_kernel_s"]) for c in children])
    wall = metrics([[1.0] * len(s) for s in scales], [1.0] * len(children))
    return reference, wall, sum(len(c["samples"]) for c in children)


def per_layer(child: dict, spans_path: Path) -> dict:
    calls = child["trace"]["calls"]
    counts = child["trace"]["counts"]
    marks = child["trace"]["span_marks"]
    names, arrays = read_spans(spans_path)
    kernel_s = child["kernel_s"]
    own: dict[str, float] = {}  # calibrated seconds per pass, like end_to_end()
    for lo, hi, first_segment, last_segment in marks:
        scale = KERNEL_REF_S / statistics.mean(kernel_s[first_segment:last_segment + 2])
        for k, v in self_times(names, arrays, lo, hi)[0].items():
            own[k] = own.get(k, 0.0) + v * scale / len(marks)
    nested = self_times(names, arrays, *marks[0][:2])[1]

    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
    for span in ("dsl.parse", "dsl.sort_check", "dsl.serialize_trace", "model.hierarchy",
                 "geometry.eval_relation", "geometry.eval_constraint", "logic.check_theory",
                 "logic.eval_formula", "logic.reference_eval", "dynamics.step", "dynamics.stratify"):
        values[f"{span}.calls"] = calls.get(span, 0)
        values[f"{span}.self_s"] = own.get(span, 0.0)
    values["dsl.serialize_trace.bytes"] = counts.get("dsl.serialize_trace.bytes", 0)
    generated = counts.get("library.bindings.generated", 0)
    satisfied = counts.get("library.bindings.satisfied", 0)
    values["library.bindings.generated"] = generated
    values["library.bindings.satisfied"] = satisfied
    values["library.satisfied_ratio"] = satisfied / generated if generated else 0.0
    steps = calls.get("dynamics.step", 0)
    values["dynamics.atoms_per_step"] = (
        nested[("dynamics.step", "geometry.eval_relation")] / steps if steps else 0.0
    )
    candidates = counts.get("enumeration.candidates", 0)
    values["enumeration.candidates"] = candidates
    values["enumeration.models"] = counts.get("enumeration.models", 0)
    values["enumeration.model_ratio"] = values["enumeration.models"] / candidates if candidates else 0.0
    values["enumeration.atoms_per_candidate"] = (
        nested[("enumeration", "geometry.eval_relation")] / candidates if candidates else 0.0
    )
    values["trace.overhead_ratio"] = sum(child["pass_s"]["traced"]) / sum(child["pass_s"]["untraced"])
    return {name: values[name] for name in PER_LAYER}


def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool, root: Path) -> dict:
    src = root / "src"
    if not (src / "ischema" / "cli.py").is_file():
        raise FileNotFoundError(f"no ischema sources under {src}; run from the repository root")
    limit = time.monotonic() + RUN_LIMIT_S
    base = root / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=base))
    try:
        commands = workloads.build(workload, seed, workdir, src / "ischema" / "data", toy=toy)
        if trace:
            children = [run_child(workdir, src, commands, seconds, True, "traced", limit)]
            metrics = per_layer(children[0], workdir / "traced.spans")
            units = PER_LAYER
            wall = {}
            samples = sum(1 for _, _, traced, _ in children[0]["samples"] if traced)
        else:
            n = 2 if toy else CHILDREN
            children = [
                run_child(workdir, src, commands, seconds / n, False, f"child{k}", limit)
                for k in range(n)
            ]
            metrics, wall, samples = end_to_end(children)
            units = END_TO_END

        sys.path.insert(0, str(src))
        from checks import Checker

        attempted, failed, reasons = check_outputs(
            Checker(workdir), commands, children, pins_for(workload, seed, toy)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(base.iterdir()):
            base.rmdir()
    return {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "wall": wall,
        "kernel_ms": 1000 * statistics.median(k for c in children for k in c["kernel_s"]),
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "samples": samples,
        "commands_per_pass": len(commands),
        "passes": [len(c["pass_s"]["untraced"]) + len(c["pass_s"]["traced"]) for c in children],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.toy, Path.cwd())
    except (FileNotFoundError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for reason in out["reasons"]:
        print(f"wrong output: {reason}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {out['commands_per_pass']} commands per pass, "
          f"passes per child {out['passes']}, {out['samples']} latency samples")
    print(f"calibration kernel: median {out['kernel_ms']:.3f} ms, reference {1000 * KERNEL_REF_S:g} ms")
    for name, m in out["metrics"].items():
        wall = f"   (wall: {out['wall'][name]:.6g})" if name in out["wall"] else ""
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{wall}")
    error_rate = out["failed"] / out["attempted"]
    print(f"  {'error_rate':34s} {error_rate:.6g} ratio ({out['failed']} of {out['attempted']} commands)")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
