"""The ``repro-io`` option surface is pinned by a recorded fixture.

``cli_surface.json`` lists, for every subcommand path, each action's
option strings, ``dest``, ``default``, ``choices``, ``nargs`` and
``required``.  Scripts and CI jobs drive the CLI by these names, so a
refactor of the CLI code must leave them exactly as recorded.  Regenerate
the fixture only for a deliberate surface change::

    PYTHONPATH=src python tests/cli/test_cli_surface.py > tests/cli/cli_surface.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli import build_parser

FIXTURE = Path(__file__).with_name("cli_surface.json")


def _walk(parser, path=()):
    """Yield ``(path, parser)`` for the root parser and every subparser."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _walk(sub, path + (name,))


def _action_row(action) -> dict:
    choices = action.choices
    if isinstance(action, argparse._SubParsersAction):
        choices = sorted(choices)
    elif choices is not None:
        choices = list(choices)
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": choices,
        "nargs": action.nargs,
        "required": action.required,
    }


def surface(parser) -> dict:
    """Each subcommand path's actions: positionals in parse order, then
    options sorted by their strings (help listing order is not pinned)."""
    doc = {}
    for path, sub in _walk(parser):
        rows = [_action_row(a) for a in sub._actions]
        doc[" ".join(path)] = (
            [r for r in rows if not r["option_strings"]]
            + sorted((r for r in rows if r["option_strings"]),
                     key=lambda r: r["option_strings"]))
    return doc


def test_option_surface_matches_fixture():
    parser = build_parser()
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    current = json.loads(json.dumps(surface(parser)))
    assert sorted(current) == sorted(recorded)
    for path in recorded:
        assert current[path] == recorded[path], f"surface of {path!r} changed"
    for path, sub in _walk(parser):
        assert sub.format_help().startswith("usage: repro-io"), path


if __name__ == "__main__":
    blocks = [
        f"  {json.dumps(path)}: [\n"
        + ",\n".join(f"    {json.dumps(row)}" for row in rows) + "\n  ]"
        for path, rows in surface(build_parser()).items()
    ]
    sys.stdout.write("{\n" + ",\n".join(blocks) + "\n}\n")
