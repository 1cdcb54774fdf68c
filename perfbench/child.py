"""One measured process: runs a workload's commands in process through the CLI.

Usage: python3 child.py SPEC RESULT, with the working directory holding the
command inputs. SPEC is a JSON file written by run.py:

    {"src": <dir holding the ischema package>, "commands": [{"args": [...],
     "out_file": <name or null>}, ...], "seconds": <loop budget>,
     "trace": <bool>, "spans": <file for the spans, when tracing>}

The child times `import ischema.cli` plus the first command (set-up), then
runs whole passes over the commands until the budget is spent, one command at
a time. It writes RESULT: set-up time, the calibration kernel's times on both
sides of set-up and at every cut of the loop, per-command and per-pass wall times,
one digest per distinct (exit code, output) of each command with a copy of
that output, the peak RSS, and when tracing the call counts of the first
traced pass, and for each traced pass where its spans and segments start
and end.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _run_one(main, command: dict, tracer) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                main.main(command["args"], standalone_mode=False)
            else:
                tracer.span("cli", main.main, command["args"], standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a wrong output, counted by the checker
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


CALIBRATE_EVERY_S = 0.02


def calibrate() -> float:
    """Time a fixed piece of pure-Python work (Fraction arithmetic and dict
    stores, like the engine's inner loops). The machine's speed drifts with
    the load of its other tenants; timing this kernel between commands tells
    by how much."""
    from fractions import Fraction

    start = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 300):
        q = Fraction(i, i % 7 + 1)
        acc += q * q - acc / (i + 1)
        table[(i % 50, "x")] = acc
    return perf_counter() - start


def digest(code: int, stdout: str, file_text: str | None) -> str:
    h = hashlib.sha256(f"{code}\n".encode())
    h.update(stdout.encode("utf-8"))
    if file_text is not None:
        h.update(b"\0" + file_text.encode("utf-8"))
    return h.hexdigest()


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    commands = spec["commands"]
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
    sys.path.insert(0, spec["src"])

    outputs: dict[int, dict[str, dict]] = {}

    def run(i: int) -> float:
        command = commands[i]
        if tracer is not None:
            tracer.current_command = i
        t = perf_counter()
        code, stdout, stderr = _run_one(cli.main, command, tracer)
        elapsed = perf_counter() - t
        file_text = None
        if command["out_file"]:
            file_text = Path(command["out_file"]).read_text(encoding="utf-8")
        seen = outputs.setdefault(i, {})
        key = digest(code, stdout, file_text)
        if key in seen:
            seen[key]["count"] += 1
        else:
            seen[key] = {"count": 1, "code": code, "stdout": stdout, "stderr": stderr, "file": file_text}
        return elapsed

    # Set-up is scaled by the kernel timed on both sides of it, five times
    # each; the kernel imports `fractions` first, so set-up does not.
    setup_kernel_s = [sorted(calibrate() for _ in range(5))[2]]
    t0 = perf_counter()
    import ischema.cli as cli

    run(0)
    setup_s = perf_counter() - t0
    setup_kernel_s.append(sorted(calibrate() for _ in range(5))[2])

    # The loop is cut into segments of at least CALIBRATE_EVERY_S seconds,
    # with a calibration kernel timed at each cut.
    kernel_s = [calibrate()]
    segment_s: list[float] = []
    segment_start = perf_counter()

    def cut() -> None:
        nonlocal segment_start
        segment_s.append(perf_counter() - segment_start)
        kernel_s.append(calibrate())
        segment_start = perf_counter()

    # Untraced runs make untraced passes only; traced runs alternate an
    # untraced and a traced pass, so the overhead compares passes of one
    # process close in time.
    modes = [False, True] if tracer is not None else [False]
    samples: list[list] = []
    pass_s: dict[bool, list[float]] = {False: [], True: []}
    span_marks: list[list[int]] = []
    first_pass = None
    deadline = perf_counter() + spec["seconds"]
    while True:
        for traced in modes:
            if traced:
                tracer.install()
            elif tracer is not None:
                tracer.uninstall()
            lo = len(tracer.name) if traced else 0
            first_segment = len(segment_s)
            start = perf_counter()
            for i in range(len(commands)):
                samples.append([i, run(i), traced, len(segment_s)])
                if perf_counter() - segment_start >= CALIBRATE_EVERY_S:
                    cut()
            pass_s[traced].append(perf_counter() - start)
            if traced:
                span_marks.append([lo, len(tracer.name), first_segment, len(segment_s)])
                if first_pass is None:
                    first_pass = {"calls": dict(tracer.calls), "counts": dict(tracer.counts)}
        if perf_counter() >= deadline:
            break
    if samples[-1][3] == len(segment_s):
        cut()
    if tracer is not None:
        tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "setup_kernel_s": setup_kernel_s,
        "kernel_s": kernel_s,
        "segment_s": segment_s,
        "samples": samples,
        "pass_s": {"untraced": pass_s[False], "traced": pass_s[True]},
        "outputs": {str(i): v for i, v in outputs.items()},
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = {**first_pass, "span_marks": span_marks}
        tracer.write(Path(spec["spans"]))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
