"""Command-line interface: ``repro-io``.

``repro-io --help`` lists the commands and ``repro-io <cmd> --help`` their
options.  Each command group lives in its own module, which registers its
subparsers next to their handlers; flags and output blocks that several
commands share live in :mod:`repro.cli.common`.

Global flags: ``--log-level debug|info|warning|error`` configures stdlib
logging for every ``repro.*`` module-level logger.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from repro.cli import (
    experiment,
    grammar,
    scenario,
    service,
    store,
    telemetry,
    toolkit,
)
from repro.cli.common import CommandError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-io",
        description="Parallel I/O evaluation toolkit "
        "(reproduction of Neuwirth & Paul, CLUSTER 2021)",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="warning",
        help="stdlib logging level for repro.* loggers (default warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for module in (toolkit, experiment, scenario, telemetry, service, store,
                   grammar):
        module.register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except CommandError as exc:
        print(exc, file=sys.stderr)
        return exc.code
