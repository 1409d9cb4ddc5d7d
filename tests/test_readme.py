"""The README's command lines and library example run as written."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

from skewpoisson.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README section ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_command_lines_and_library_example_run(capsys):
    command_lines = [shlex.split(line, comments=True)[1:]
                     for line in code_block("Command line", "sh").splitlines()
                     if line.startswith("skewpoisson ")]
    assert len(command_lines) == 8
    for argv in command_lines:
        assert main([*argv, "--format", "machine"]) == 0, argv
        json.loads(capsys.readouterr().out)
    exec(code_block("Library example", "python"), {})
    # one line per rung of the ladder 0..8, none of them feasible
    assert len(capsys.readouterr().out.splitlines()) == 9
