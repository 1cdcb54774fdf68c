"""tools/scaling.py at toy sizes, on the sources committed to a scratch
repository: a commit against itself gives the same outputs and the same
counts on both sides, and an exponent per side and measure."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("scaling", ROOT / "tools" / "scaling.py")
scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scaling)


def test_exponent_is_the_slope_of_the_logarithms():
    assert abs(scaling.exponent([10, 20, 40], [3, 12, 48]) - 2) < 1e-12
    assert scaling.exponent([10, 10], [1, 2]) is None
    assert scaling.exponent([10, 20], [0, 5]) is None


def test_head_against_itself(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    monkeypatch.setattr(scaling.bench_compare, "ROOT", repo)

    assert scaling.main(["--base", "HEAD", "--points", "3,6", "--runs", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "wrote BENCH_scaling.json"
    doc = json.loads((repo / "BENCH_scaling.json").read_text(encoding="utf-8"))
    assert doc["base_sha"] == doc["head_sha"] and doc["same_output"] == [True, True]
    base, head = doc["sides"]["base"], doc["sides"]["head"]
    assert [row["entities"] for row in head["rows"]] == [11, 15]
    for b, h in zip(base["rows"], head["rows"]):
        assert h["boxes_apart"] == b["boxes_apart"] > 0 and h["eval_relation"] == b["eval_relation"] > 0
        assert h["seconds"] > 0
    assert set(head["exponent"]) == {"seconds", "boxes_apart", "eval_relation"}
    assert head["exponent"]["boxes_apart"] == base["exponent"]["boxes_apart"] > 0


def test_the_simulate_series_at_toy_sizes(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    for args in (("init", "-q"), ("add", "-A"), ("commit", "-q", "-m", "base")):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)
    monkeypatch.setattr(scaling.bench_compare, "ROOT", repo)

    assert scaling.main(["--base", "HEAD", "--points", "3", "--bodies", "4,8", "--runs", "1"]) == 0
    simulate = json.loads((repo / "BENCH_scaling.json").read_text(encoding="utf-8"))["simulate"]
    assert simulate["same_output"] == [True, True]
    base, head = simulate["sides"]["base"], simulate["sides"]["head"]
    assert [row["bodies"] for row in head["rows"]] == [4, 8]
    for b, h in zip(base["rows"], head["rows"]):
        assert h["touches"] == b["touches"] > 0 and h["seconds"] > 0
    assert set(head["exponent"]) == {"seconds", "touches"}
    assert head["exponent"]["touches"] == base["exponent"]["touches"] > 0
