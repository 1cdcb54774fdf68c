"""Pin the sha256 of (exit code, output) of every benchmark command.

    python3 perfbench/pin.py

Run from the repository root at the commit whose outputs are the reference.
It runs one pass of each workload (the generated ones for seeds PIN_SEEDS),
refuses to pin an output the checker rejects, and rewrites
perfbench/pins.json. run.py then fails any command whose output differs from
its pin; seeds without pins are checked by the oracles alone.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads

PIN_SEEDS = range(16)


def pass_digests(workload: str, seed: int, root: Path) -> dict[str, str]:
    src = root / "src"
    sys.path.insert(0, str(src))
    from checks import Checker

    base = root / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"pin-{workload}-{seed}-", dir=base))
    try:
        commands = workloads.build(workload, seed, workdir, src / "ischema" / "data")
        child = run.run_child(workdir, src, commands, 0, False, "pin", time.monotonic() + 600)
        _, failed, reasons = run.check_outputs(Checker(workdir), commands, [child], {})
        if failed:
            raise SystemExit(f"{workload} seed {seed}: refusing to pin wrong outputs: {reasons}")
        return {commands[int(i)].key: next(iter(seen)) for i, seen in child["outputs"].items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(base.iterdir()):
            base.rmdir()


def main() -> None:
    root = Path.cwd()
    pins: dict = {"shipped": pass_digests("shipped", 0, root)}
    for workload in workloads.WORKLOADS[1:]:
        pins[workload] = {str(seed): pass_digests(workload, seed, root) for seed in PIN_SEEDS}
        print(f"pinned {workload}", file=sys.stderr)
    path = Path(run.__file__).resolve().parent / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
