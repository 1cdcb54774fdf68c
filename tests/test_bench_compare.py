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
