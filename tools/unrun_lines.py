"""List the executable lines of the ischema package that a run never executes.

    python3 tools/unrun_lines.py --workload shipped [--seed 7] [--toy]
    python3 tools/unrun_lines.py --pytest -- -q tests/test_dsl.py

Run it from the root of the repository. A run is either one pass of a
perfbench workload's commands, in process through the CLI as the benchmark
runs them (inputs written by `perfbench/workloads.build` into a temporary
directory), or pytest with the arguments after `--`. A line of a module
under `src/ischema` is executable when the `co_lines` of one of the
module's code objects names it, and it ran when a `sys.settrace` hook saw a
frame start or reach it. The package is imported after the hook is in, so
module-level lines count. Lines that run only while an exception unwinds
(the cleanup of a `with` or an `except`) are listed unless one did.

It prints, for each module with unrun lines, its path and the unrun lines as
ranges, then a total. The exit code is 0.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ischema"
PERFBENCH = ROOT / "perfbench"


def executable_lines(path: Path) -> set[int]:
    """Every line that `co_lines` of a code object compiled from `path` names."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def run_lines(run) -> dict[Path, set[int]]:
    """Call `run()` under a trace hook; the lines it executed in each module
    of the package, by the module's resolved path."""
    hits: dict[Path, set[int]] = {}
    local_traces: dict[str, object] = {}  # co_filename -> its line tracer, or None outside the package

    def local_trace_for(filename: str):
        path = Path(filename).resolve()
        if path.parent != PACKAGE:
            return None
        seen = hits.setdefault(path, set())

        def local_trace(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local_trace

        return local_trace

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        local_trace = local_traces.get(filename, False)
        if local_trace is False:
            local_trace = local_traces[filename] = local_trace_for(filename)
        if local_trace is not None:
            local_trace(frame, "line", arg)  # the line a call or a resumption starts at
        return local_trace

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def unrun_lines(run) -> dict[str, list[int]]:
    """The executable lines of each module of the package that `run()` never
    executes, ascending, by path relative to the repository root."""
    hits = run_lines(run)
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - hits.get(path.resolve(), set()))
        if missed:
            out[path.relative_to(ROOT).as_posix()] = missed
    return out


def workload_pass(workload: str, seed: int, toy: bool):
    """A run of one pass of `workload`'s commands through the CLI, in process."""
    sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]
    import child
    import workloads

    def run() -> None:
        with tempfile.TemporaryDirectory(prefix="unrun-") as tmp:
            commands = workloads.build(workload, seed, Path(tmp), PACKAGE / "data", toy)
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                import ischema.cli

                for command in commands:
                    child._run_one(ischema.cli.main, {"args": command.args}, None)
            finally:
                os.chdir(cwd)

    return run


def pytest_run(args: list[str]):
    """A run of pytest with `args`, in process."""
    sys.path.insert(0, str(ROOT / "src"))

    def run() -> None:
        import pytest

        pytest.main(args)

    return run


def ranges(lines: list[int]) -> str:
    """Ascending lines as comma-separated ranges: 3-5, 9."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    kind = parser.add_mutually_exclusive_group(required=True)
    kind.add_argument("--workload", help="one pass of this perfbench workload")
    kind.add_argument("--pytest", action="store_true", help="pytest with the arguments after --")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--toy", action="store_true", help="the workload at its toy sizes")
    parser.add_argument("pytest_args", nargs="*")
    args = parser.parse_args(argv)
    run = pytest_run(args.pytest_args) if args.pytest else workload_pass(args.workload, args.seed, args.toy)
    missed = unrun_lines(run)
    total = sum(len(executable_lines(p)) for p in PACKAGE.glob("*.py"))
    for path, lines in missed.items():
        print(f"{path}: {ranges(lines)}")
    print(f"{sum(map(len, missed.values()))} of {total} executable lines not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
