"""The README's examples run as written.

The "Quick tour" python blocks run in one namespace, in order. Every
``incalg ...`` command under "Command line" runs in-process through
``cli.main`` and must exit 0; a heredoc body is its stdin.
"""

import io
import itertools
import json
import pathlib
import re
import shlex

from incalg.cli import main

README = pathlib.Path(__file__).parents[1] / "README.md"


def _section(title):
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def _blocks(section, lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", section, re.M | re.S)


def _commands(section):
    """(argv, stdin) for each ``incalg`` command of the sh blocks."""
    out = []
    for block in _blocks(section, "sh"):
        lines = iter(block.replace("\\\n", " ").splitlines())
        for line in lines:
            words = shlex.split(line)
            if not words or words[0] != "incalg":
                continue
            stdin = ""
            if words[-1].startswith("<<"):
                end = words.pop()[2:]
                stdin = "".join(f"{body}\n" for body in
                                itertools.takewhile(end.__ne__, lines))
            out.append((words[1:], stdin))
    return out


def test_quick_tour_runs():
    blocks = _blocks(_section("Quick tour"), "python")
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].match


def test_command_line_examples_exit_zero(capsys, monkeypatch):
    commands = _commands(_section("Command line"))
    assert [argv[0] for argv, _ in commands] == [
        "verify", "decompose", "spectral", "demo", "demo",
        "enumerate-potents"]
    for argv, stdin in commands:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(argv) == 0, argv
        out = json.loads(capsys.readouterr().out)
        if argv[0] == "decompose":
            assert out["certificates"]["r"] == "2"
