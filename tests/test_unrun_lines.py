"""tools/unrun_lines.py on one toy pass of the `shipped` workload: a line
the pass never runs is listed, and one it runs is not."""

import subprocess
import sys
from pathlib import Path

from ischema import dsl, logic

ROOT = Path(__file__).resolve().parents[1]


def _lines(code) -> set[int]:
    """The lines of a function's body that `co_lines` names, its `def` line
    (which runs at import) left out."""
    return {line for _, _, line in code.co_lines() if line is not None and line != code.co_firstlineno}


def test_a_toy_shipped_pass_lists_the_witness_search_and_not_the_tokenizer():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unrun_lines.py"), "--workload", "shipped", "--toy"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    listed: dict[str, set[int]] = {}
    for line in result.stdout.splitlines()[:-1]:
        path, spans = line.split(": ")
        for span in spans.split(", "):
            lo, _, hi = span.partition("-")
            listed.setdefault(path, set()).update(range(int(lo), int(hi or lo) + 1))
    assert result.stdout.splitlines()[-1].endswith(" executable lines not run")
    # no benchmark command prints a witness
    assert _lines(logic._find_witness.__code__) <= listed["src/ischema/logic.py"]
    # every command parses its inputs
    assert min(_lines(dsl.tokenize.__code__)) not in listed["src/ischema/dsl.py"]
