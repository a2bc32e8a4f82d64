"""README's library example and CLI lines run as written."""

import re
import shlex
from pathlib import Path

import pytest

from modfold.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _cli_lines(*commands):
    (block,) = [b for b in _blocks("sh") if "modfold bounds" in b]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("modfold ") and line.split()[1] in commands
    ]


def test_library_example(capsys):
    (example,) = _blocks("python")
    exec(compile(example, "README.md", "exec"), {})
    # the values the example's comments state
    assert capsys.readouterr().out == (
        "9/4\n(Fraction(9, 2), Fraction(9, 2))\n"
    )


CLI_LINES = _cli_lines("bounds", "reconstruct", "group")


def test_every_command_is_covered():
    assert {argv[0] for argv in CLI_LINES} == {
        "bounds", "reconstruct", "group"
    }


@pytest.mark.parametrize("argv", CLI_LINES, ids=" ".join)
def test_cli_line(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out
