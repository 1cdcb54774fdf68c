"""Compare the CLI output of two commits on every benchmark command.

    python3 tools/cli_diff.py --base REV --seeds 1,2

Run it from the root of the repository. It checks the base revision and HEAD
out into temporary `git worktree`s, so only committed files are compared.
For every perfbench workload and seed it writes the inputs with
`perfbench/workloads.build` once per side, from that side's shipped data,
and runs the commands of one pass in order in a new process per side, in
process through the CLI as the benchmark does. A command's output is the
sha256 of its exit code, stdout, stderr and the file it writes. Commands are
compared by their place in the pass, since a pass may repeat a command. It
prints the commands whose outputs differ and exits 1 if there are any, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"
sys.path[:0] = [str(TOOLS), str(PERFBENCH)]

import bench_compare  # noqa: E402
import workloads  # noqa: E402


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
    with tempfile.TemporaryDirectory(prefix="cli-diff-") as tmp:
        sides = {name: Path(tmp) / name for name in shas}
        try:
            for name, path in sides.items():
                bench_compare.git("worktree", "add", "--detach", str(path), shas[name])
            for workload in workloads.WORKLOADS:
                for seed in seeds:
                    digests = {}
                    for name, path in sides.items():
                        workdir = Path(tmp) / f"{name}-{workload}-{seed}"
                        workdir.mkdir()
                        src = path / "src"
                        commands = workloads.build(workload, seed, workdir, src / "ischema" / "data", toy=toy)
                        digests[name] = run_side(src, workdir, commands)
                    differ = [i for i, (b, h) in enumerate(zip(digests["base"], digests["head"])) if b != h]
                    print(f"{workload} seed {seed}: {len(commands)} commands, {len(differ)} differ")
                    for i in differ:
                        print(f"  #{i}: {commands[i].key}")
                    total += len(commands)
                    differing += len(differ)
        finally:
            for path in sides.values():
                if path.exists():
                    bench_compare.git("worktree", "remove", "--force", str(path))
            bench_compare.git("worktree", "prune")
    print(f"{shas['base'][:12]} against {shas['head'][:12]}: {total} commands, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
