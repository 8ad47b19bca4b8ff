"""The README's library tour runs as written, so a renamed or removed public
name or parameter fails here instead of in a reader's session."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks, "README.md has no python block"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_tour"})
