"""Option groups and output helpers shared by the ``repro-io`` commands.

The flag groups and output blocks that several commands share are
declared here once, next to the code that acts on them, so the commands
cannot drift apart.  Like the command modules, this module imports nothing
heavy at load time: the service boots through :func:`repro.cli.main`.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional

DEFAULT_STORE = "results/store"


class CommandError(Exception):
    """A command cannot proceed; :func:`repro.cli.main` prints the message
    to stderr and exits with ``code``."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a number greater than 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def add_store_dir(p, help: str) -> None:
    p.add_argument("--store-dir", default=DEFAULT_STORE,
                   help=f"{help} (default {DEFAULT_STORE})")


def write_json(path, doc, what: str) -> None:
    """Write ``doc`` to ``path`` as indented JSON, creating its parent
    directories, and say so."""
    from pathlib import Path

    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"{what} written to {path}")


# -- scenario references -----------------------------------------------------

def scenario_spec(ref: str, seed: int):
    """Resolve a scenario reference: a preset name or a JSON file path."""
    from pathlib import Path

    from repro.scenario import ScenarioSpec, get_scenario

    if Path(ref).is_file() or ref.endswith(".json"):
        with open(ref, "r", encoding="utf-8") as fh:
            return ScenarioSpec.from_json(fh.read()).with_seed(seed).validate()
    return get_scenario(ref, seed)


def _parse_sweep_value(text: str):
    """Coerce one sweep value: int, float, bool, else string."""
    low = text.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text.strip()


def parse_grid(items) -> dict:
    """Parse ``key=v1,v2`` grid axes."""
    grid = {}
    for item in items:
        if "=" not in item:
            raise CommandError(
                f"bad sweep parameter {item!r} (want key=v1,v2,...)")
        key, _, values = item.partition("=")
        grid[key] = [_parse_sweep_value(v) for v in values.split(",") if v]
        if not grid[key]:
            raise CommandError(f"no values for sweep parameter {key!r}")
    return grid


# -- fan-out: experiment and scenario sweep ----------------------------------

def add_fanout_flags(p, unit: str) -> None:
    """Process fan-out and result cache flags; ``unit`` names what is
    fanned out (``task`` or ``point``)."""
    p.add_argument("--jobs", type=positive_int, default=1,
                   help=f"worker processes for the {unit} fan-out (default 1)")
    p.add_argument("--no-cache", action="store_true",
                   help=f"recompute every {unit} and do not cache")
    p.add_argument("--cache-dir", default=DEFAULT_STORE,
                   help=f"run-store root the {unit} cache lives in "
                   f"(default {DEFAULT_STORE})")


def fanout_kwargs(args) -> dict:
    """The keyword arguments the fan-out flags give ``run_experiments``
    and ``run_sweep``."""
    return dict(jobs=args.jobs, use_cache=not args.no_cache,
                cache_dir=args.cache_dir)


def print_fanout_summary(label: str, results, jobs: int, failed: int) -> None:
    n_cached = sum(1 for r in results if r.cached)
    print(f"{label}: {len(results) - n_cached} computed, {n_cached} from "
          f"cache (jobs={jobs})" + (f", {failed} FAILED" if failed else ""))


# -- self-telemetry ----------------------------------------------------------

def add_telemetry_flags(p) -> None:
    p.add_argument(
        "--trace", metavar="OUT.json",
        help="enable self-telemetry and write its one document: the merged "
        "cross-process Chrome trace (one pid track per worker; load in "
        "Perfetto) carrying the metrics and series (summarize with "
        "`repro-io telemetry OUT.json`)",
    )


def enable_telemetry(args) -> bool:
    """Switch self-telemetry on when ``--trace`` is set; return whether
    it is on."""
    if args.trace:
        from repro import telemetry

        telemetry.enable()
    return bool(args.trace)


def emit_telemetry(args) -> Optional[dict]:
    """Build the telemetry document once, write it to ``--trace`` and
    return it; ``None`` when telemetry is off."""
    if not args.trace:
        return None
    from repro.telemetry.collect import merged_chrome_trace

    doc = merged_chrome_trace()
    pids = doc["otherData"]["processes"]
    write_json(args.trace, doc,
               f"telemetry trace ({len(pids)} process track(s))")
    return doc


# -- the run service ---------------------------------------------------------

def add_service_address(p) -> None:
    p.add_argument("--address", metavar="HOST:PORT",
                   help="service address (default: discovery file)")
    p.add_argument("--state-dir", default="results",
                   help="directory holding service.json discovery "
                   "(default results)")


def call_service(args, coro_fn):
    """Run ``coro_fn(host, port)`` against the service and return its result.

    ``--address host:port`` beats the discovery file the server writes
    into ``--state-dir``.  A service that cannot be found or reached is a
    :class:`CommandError`.
    """
    import asyncio

    try:
        if args.address:
            host, _, port = args.address.rpartition(":")
            host, port = host or "127.0.0.1", int(port)
        else:
            from repro.service import load_discovery

            doc = load_discovery(args.state_dir, require_live=True)
            host, port = doc["host"], doc["port"]
    except (FileNotFoundError, ValueError, ConnectionError) as exc:
        raise CommandError(str(exc)) from exc
    try:
        return asyncio.run(coro_fn(host, port))
    except ConnectionError as exc:
        raise CommandError(
            f"cannot reach service at {host}:{port}: {exc}") from exc


# -- monitor frames ----------------------------------------------------------

def progress_bar(done: int, total: int, width: int = 40) -> str:
    """``[####----] 50%``; an empty total counts as complete."""
    filled = int(width * done / total) if total else width
    pct = (100.0 * done / total) if total else 100.0
    return f"[{'#' * filled}{'-' * (width - filled)}] {pct:.0f}%"


def task_counts(stats: dict) -> str:
    """The ``tasks:`` line of a service report."""
    return (f"  tasks: {stats.get('tasks_submitted', 0)} submitted, "
            f"{stats.get('computed', 0)} computed, "
            f"{stats.get('warm_hits', 0)} warm, "
            f"{stats.get('coalesced', 0)} coalesced, "
            f"{stats.get('requeued', 0)} requeued")


def durability_lines(journal: Optional[dict], replayed: int) -> list:
    """The write-ahead journal line of a service report; none when the
    journal never ran."""
    if not journal:
        return []
    return [
        f"  journal: {journal.get('records', 0)} record(s), "
        f"{journal.get('fsync_batches', 0)} fsync batch(es), "
        f"{journal.get('compactions', 0)} compaction(s); "
        f"{replayed} computation(s) replayed at boot"
    ]
