"""Every `contactloci ...` line in the README's code blocks runs as written.

Each line goes through ``cli.main`` in process, with any ``--out`` file sent
into a temporary directory; lines that read shell variables belong to a loop
and are skipped.  A line must exit 0, print no traceback and write any file it
names.
"""

import re
import shlex
from pathlib import Path

import pytest

from contactloci.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_command_lines() -> list[str]:
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    # a line repeated in two blocks runs once
    return list(dict.fromkeys(line for line in lines
                              if line.startswith("contactloci ") and "$" not in line))


def test_readme_has_command_lines():
    assert len(readme_command_lines()) >= 8


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_runs(line, tmp_path, capsys):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / Path(argv[at]).name)
    assert main(argv) == 0, line
    assert "Traceback" not in capsys.readouterr().err, line
    if "--out" in argv:
        assert Path(argv[argv.index("--out") + 1]).stat().st_size > 0, line
