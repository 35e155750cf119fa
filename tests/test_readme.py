"""The README's library example runs as written and gives the values its
comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_as_written():
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```\n", section, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    assert eval("count_group_flows(g, gamma)", namespace) == 3
    assert eval("f1(5)", namespace) == 1
