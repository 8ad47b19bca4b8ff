"""The README's library tour and command examples run as written, so a
renamed or removed public name, parameter or flag fails here instead of in a
reader's session."""

import json
import re
import shlex
from pathlib import Path

import pytest

from framedual.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
COMMANDS = re.search(r"## Command line\n\n```\n(.*?)```", TEXT, re.DOTALL).group(1).splitlines()


def test_readme_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", TEXT, re.DOTALL)
    assert blocks, "README.md has no python block"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_tour"})


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(tmp_path, monkeypatch, capsys, line):
    # the block holds nothing but framedual commands; @window.json is read
    # from the working directory
    assert line.startswith("framedual ")
    monkeypatch.chdir(tmp_path)
    window = [[1.0, 0.0], [0.5, -0.5], [0.0, 1.0], [-0.25, 0.0]] * 3
    (tmp_path / "window.json").write_text(json.dumps(window))
    assert main(shlex.split(line)[1:]) == 0
    assert "Traceback" not in capsys.readouterr().err
