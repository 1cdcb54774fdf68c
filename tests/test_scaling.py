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

    monkeypatch.setattr(scaling, "GRIDS", (2,))
    monkeypatch.setattr(scaling, "ROUNDS", 2)
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

    monkeypatch.setattr(scaling, "GRIDS", (2,))
    monkeypatch.setattr(scaling, "ROUNDS", 1)
    assert scaling.main(["--base", "HEAD", "--points", "3", "--bodies", "4,8", "--runs", "1"]) == 0
    simulate = json.loads((repo / "BENCH_scaling.json").read_text(encoding="utf-8"))["simulate"]
    assert simulate["same_output"] == [True, True]
    base, head = simulate["sides"]["base"], simulate["sides"]["head"]
    assert [row["bodies"] for row in head["rows"]] == [4, 8]
    for b, h in zip(base["rows"], head["rows"]):
        assert h["touches"] == b["touches"] > 0 and h["seconds"] > 0
    assert set(head["exponent"]) == {"seconds", "touches"}
    assert head["exponent"]["touches"] == base["exponent"]["touches"] > 0


def test_the_enumerate_series_in_alternating_rounds(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    for args in (("init", "-q"), ("add", "-A"), ("commit", "-q", "-m", "base")):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)
    monkeypatch.setattr(scaling.bench_compare, "ROOT", repo)
    order = []
    run_side = scaling.run_side

    def spy(src, *args, **kwargs):
        order.append(src.parent.name)
        return run_side(src, *args, **kwargs)

    monkeypatch.setattr(scaling, "run_side", spy)
    monkeypatch.setattr(scaling, "GRIDS", (3, 4, 9))
    monkeypatch.setattr(scaling, "ROUNDS", 3)
    assert scaling.main(["--base", "HEAD", "--points", "3", "--bodies", "4", "--runs", "1"]) == 0
    assert order == ["base", "head", "head", "base", "base", "head"]
    doc = json.loads((repo / "BENCH_scaling.json").read_text(encoding="utf-8"))
    assert doc["rounds"] == 3
    enumerate_ = doc["enumerate"]
    assert enumerate_["horizon"] == 2
    assert enumerate_["same_output"] == [True] * 3 and enumerate_["json"]["same_output"] == [True] * 2
    for series, grids in ((enumerate_, [3, 4, 9]), (enumerate_["json"], [3, 4])):
        base, head = series["sides"]["base"], series["sides"]["head"]
        assert [row["grid"] for row in head["rows"]] == grids
        assert [row["frames"] for row in head["rows"]] == [g * g for g in grids]
        for b, h in zip(base["rows"], head["rows"]):
            assert h["eval_relation"] == b["eval_relation"] > 0
            assert len(h["rounds"]) == 3 and h["seconds"] == sorted(h["rounds"])[1]
        assert set(head["exponent"]) == {"seconds", "eval_relation"}
    # counting: `inside` once per frame, and no step relation decided by eval_relation
    assert [row["eval_relation"] for row in enumerate_["sides"]["head"]["rows"]] == [9, 16, 81]
