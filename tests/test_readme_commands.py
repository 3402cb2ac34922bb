"""Every `qdof ...` line of the README's command block runs and exits 0, so
the README and the parser cannot drift apart."""

import shlex
from pathlib import Path

import pytest

from qdof.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    commands, fenced = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("qdof "):
            commands.append(line.split("#", 1)[0].strip())
    return commands


def test_readme_has_commands():
    assert len(_readme_commands()) >= 15


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_exits_0(capsys, command):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().err == ""
