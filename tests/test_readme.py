"""README's library quick start runs, and prints what its comments say."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def quick_start_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_quick_start_runs_and_states_its_values(monkeypatch):
    monkeypatch.chdir(ROOT)  # the knot pipeline opens tests/data/fig8.txt
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    checked = {}
    for block in blocks:
        namespace = {}
        exec(block, namespace)
        for line in block.splitlines():
            expr, _, comment = line.partition("#")
            comment = comment.strip()
            if comment in ("45", "t^2 - 3*t + 1"):
                checked[comment] = str(eval(expr, namespace))
    assert checked == {"45": "45", "t^2 - 3*t + 1": "t^2 - 3*t + 1"}
