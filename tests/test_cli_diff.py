"""tools/cli_diff.py at toy sizes, on the sources committed to a scratch
repository: a commit against itself differs nowhere, and a changed shipped
scenario shows in exactly the commands that read it."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_diff", ROOT / "tools" / "cli_diff.py")
cli_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)


def test_head_against_itself_and_against_a_changed_scenario(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    monkeypatch.setattr(cli_diff.bench_compare, "ROOT", repo)

    assert cli_diff.main(["--base", "HEAD", "--seeds", "1"], toy=True) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11 and all(line.endswith(" commands, 0 differ") for line in lines)
    assert lines[4] == "simulate_rules seed 1: 5 commands, 0 differ"
    assert lines[5] == "gravity_slides seed 1: 4 commands, 0 differ"
    assert lines[6] == "tolerances seed 1: 9 commands, 0 differ"
    assert lines[7] == "still_runs seed 1: 8 commands, 0 differ"
    assert lines[8] == "capture seed 1: 9 commands, 0 differ"
    assert lines[9] == "classify_large seed 1: 17 commands, 0 differ"

    drop = repo / "src" / "ischema" / "data" / "drop.scn"
    drop.write_text(drop.read_text(encoding="utf-8").replace("Point(2, 5)", "Point(2, 6)"), encoding="utf-8")
    git("commit", "-q", "-a", "-m", "head")
    assert cli_diff.main(["--base", "HEAD~1", "--seeds", "1"], toy=True) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(" commands, 1 differ")
    assert lines[1] == "  #2: simulate drop.scn --steps 7 --delta 1 --trace-out drop.trace.json"
    assert all(line.endswith(" commands, 0 differ") for line in lines[2:5])
    assert lines[5:12] == ["simulate_rules seed 1: 5 commands, 1 differ", "  #0: simulate drop.scn --json",
                           "gravity_slides seed 1: 4 commands, 0 differ", "tolerances seed 1: 9 commands, 0 differ",
                           "still_runs seed 1: 8 commands, 0 differ", "capture seed 1: 9 commands, 0 differ",
                           "classify_large seed 1: 17 commands, 0 differ"]
    assert lines[-1].endswith(" commands, 2 differ")
