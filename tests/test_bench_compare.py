import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_compare", Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _pairs(base, head):
    return [{"base": {"metrics": {"t": b, "l": -b}}, "head": {"metrics": {"t": h, "l": -h}}} for b, h in zip(base, head)]


def test_summary_counts_wins_by_direction_and_shows_a_gain_beyond_the_base_spread():
    pairs = _pairs([10, 11, 12, 13, 14], [20, 21, 22, 23, 13])
    summary = bench_compare.summarize(pairs, {"t": "higher", "l": "lower"})
    t = summary["t"]
    assert (t["base"]["median"], t["head"]["median"], t["base"]["q1_q3"]) == (12, 21, [11, 13])
    assert (t["wins"], t["pairs"], t["ratio"]) == (4, 5, 21 / 12)
    assert not t["gain_shown"]  # 4 of 5 wins is short of nine tenths
    assert summary["l"]["wins"] == 4  # lower is better, and -head < -base in four pairs
    summary = bench_compare.summarize(_pairs([10, 11, 12], [20, 21, 22]), {"t": "higher"})
    assert summary["t"]["gain_shown"]
    summary = bench_compare.summarize(_pairs([10, 11, 20], [12, 13, 22]), {"t": "higher"})
    assert not summary["t"]["gain_shown"]  # a median gain of 2 within a base spread of 5



def _flags(direction, base, head, bound=0.05):
    pairs = [{"base": {"metrics": {"m": b}}, "head": {"metrics": {"m": h}}} for b, h in zip(base, head)]
    flags = bench_compare.judge(pairs, "m", direction, bound)
    return flags["regressed"], flags["unresolved"]


def test_judge_flags_a_median_beyond_the_bound_and_a_base_spread_wider_than_it():
    steady, spread = [100] * 5, [90, 95, 100, 105, 110]  # quartiles 0 and 10 apart
    for direction, worse in (("higher", -1), ("lower", 1)):
        assert _flags(direction, steady, [100 + worse * 4] * 5) == (False, False)  # 4% worse: within
        assert _flags(direction, steady, [100 + worse * 6] * 5) == (True, False)  # 6% worse: beyond
        assert _flags(direction, steady, [100 - worse * 6] * 5) == (False, False)  # better
        assert _flags(direction, spread, [100 - worse] * 5) == (False, True)  # within the base's runs
        assert _flags(direction, spread, [100 - worse * 11] * 5) == (False, False)  # beyond every base run
        assert _flags(direction, spread, [100 + worse * 6] * 5) == (True, True)
    assert _flags("higher", spread, [100] * 5, bound=0.2) == (False, False)  # a spread of 10% within 20%


_FAKE_RUNNER = '''\
import argparse, json, pathlib
parser = argparse.ArgumentParser()
for option in ("--workload", "--seed", "--seconds"):
    parser.add_argument(option, required=True)
parser.add_argument("--trace", choices=("0", "1"), required=True)
args = parser.parse_args()
side = pathlib.Path("SIDE").read_text().strip()
if args.trace == "1":
    metrics = {"library.bindings.generated": {"value": 7 if side == "head" else 9, "unit": "count"}}
else:
    metrics = {"throughput_cmd_s": {"value": 2.0 if side == "head" else 1.0, "unit": "cmd/s"}}
print("human-readable lines come first")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
'''


def test_a_traced_run_per_side_lands_in_the_document(tmp_path, monkeypatch):
    import json
    import subprocess

    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(_FAKE_RUNNER, encoding="utf-8")
    (repo / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "throughput_cmd_s", "better": "higher"}]}), encoding="utf-8"
    )

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / "src").mkdir()
    sources = {"base": {"m.py": "a\nb\nc\n"}, "head": {"m.py": "a\nB\n", "n.py": "x\ny\n"}}
    for side in ("base", "head"):
        (repo / "SIDE").write_text(side, encoding="utf-8")
        for name, text in sources[side].items():
            (repo / "src" / name).write_text(text, encoding="utf-8")
        git("add", "-A")
        git("commit", "-q", "-m", side)
    monkeypatch.setattr(bench_compare, "ROOT", repo)
    argv = ["--base", "HEAD~1", "--workloads", "w", "--pairs", "2", "--seed", "1", "--label", "fake",
            "--workdir", str(tmp_path)]
    assert bench_compare.main(argv) == 0
    doc = json.loads((repo / "BENCH_fake.json").read_text(encoding="utf-8"))
    entry = doc["workloads"]["w"]
    assert entry["correct"]
    assert entry["summary"]["throughput_cmd_s"]["wins"] == 2
    traced = {side: run["metrics"] for side, run in entry["traced"].items()}
    assert traced == {"base": {"library.bindings.generated": 9}, "head": {"library.bindings.generated": 7}}
    assert doc["src_lines"] == {
        "files": {"src/m.py": {"added": 1, "deleted": 2}, "src/n.py": {"added": 2, "deleted": 0}},
        "added": 3,
        "deleted": 2,
        "net": 1,
    }
