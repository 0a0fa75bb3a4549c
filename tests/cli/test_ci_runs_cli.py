"""Whatever a user can run, CI runs: every command path pinned in
``cli_surface.json`` must be invoked by some ``repro-io ...`` command line
of ``.github/workflows/ci.yml``.

A command line's path is read with the real parser: after ``repro-io``,
each word that names a subcommand of the current parser descends into it,
options are skipped together with their value, and the first other word
ends the path.  A path covers itself and every prefix (``jobs show``
covers ``jobs``).
"""

from __future__ import annotations

import argparse
import json
import shlex
from pathlib import Path
from typing import Iterator, List

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
FIXTURE = Path(__file__).with_name("cli_surface.json")


def repro_io_argvs(text: str) -> Iterator[List[str]]:
    """The words after each ``repro-io`` of the workflow's shell lines, up
    to the next shell operator (``|``, ``&&``, ``;``, ``)``, ``>`` ...)."""
    for line in text.replace("\\\n", " ").splitlines():
        line = line.strip()
        if "repro-io" not in line or line.startswith("#"):
            continue
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        try:
            words = list(lexer)
        except ValueError:  # an unbalanced quote: a line of an inline script
            continue
        for i, word in enumerate(words):
            if word != "repro-io":
                continue
            argv = []
            for arg in words[i + 1:]:
                if arg and set(arg) <= set("();<>|&"):
                    break
                argv.append(arg)
            yield argv


def _subcommands(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def command_path(parser: argparse.ArgumentParser, argv: List[str]) -> str:
    """The subcommand path ``argv`` selects, e.g. ``"store ls"``."""
    path = []
    i = 0
    while i < len(argv):
        word = argv[i]
        if word.startswith("-"):
            action = parser._option_string_actions.get(word.split("=")[0])
            takes_value = (action is not None and action.nargs != 0
                           and "=" not in word)
            i += 2 if takes_value else 1
            continue
        subcommands = _subcommands(parser)
        if word not in subcommands:
            break
        path.append(word)
        parser = subcommands[word]
        i += 1
    return " ".join(path)


def covered_paths(text: str) -> set:
    parser = build_parser()
    covered = set()
    for argv in repro_io_argvs(text):
        words = command_path(parser, argv).split()
        covered.update(" ".join(words[:n]) for n in range(1, len(words) + 1))
    return covered


def test_ci_runs_every_pinned_command():
    pinned = [path for path in json.loads(FIXTURE.read_text(encoding="utf-8"))
              if path]
    covered = covered_paths(CI_WORKFLOW.read_text(encoding="utf-8"))
    missing = [path for path in pinned if path not in covered]
    assert not missing, (
        f"commands no CI step runs: {missing}; add a smoke step to "
        f"{CI_WORKFLOW.relative_to(ROOT)} or delete the command")
