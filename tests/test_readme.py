"""The README's library quick start runs as written, so a public name it
uses cannot be removed without failing the tests."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    assert namespace["ts"].dh_estimate > 0.0
