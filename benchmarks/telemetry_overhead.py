#!/usr/bin/env python
"""Telemetry-off overhead gate for the DES event loop.

PR 2 added self-telemetry hooks to the engine's hot path
(``Environment.run`` wraps its one event loop in a span and event counters
when ``repro.telemetry`` is enabled).  The disabled cost must stay one boolean
check: this gate times the same ``event_loop_throughput`` workload as
``benchmarks/check_regression.py`` with telemetry **disabled** and fails
when it falls outside ``--tolerance`` of the committed reference timing
(``BENCH_BASELINE.json``'s ``reference_min``, which is aggregated over
several harness invocations to ride out host noise; ``BENCH_PR1.json``'s
single-run ``min_seconds`` is only a fallback).

The distributed-telemetry PR added a second class of hooks: DES-timeline
probes (``repro.telemetry.timeseries``) installed by ``scenario.build``
plus simulation-time cohort series on the engine's batch paths.  All of
them hide behind the same one-attribute ``TELEMETRY.active`` check, so a
second gate (``scenario_probe_path``) times a full ``run_scenario`` of
the ``tiny`` preset with telemetry disabled and fails on regression the
same way.

For context (never gated -- the slowdown is the *point* of the feature,
only its disabled cost is a bug) the report also times both workloads
with telemetry enabled and prints the enabled/disabled ratio.

Usage::

    PYTHONPATH=src python benchmarks/telemetry_overhead.py           # gate
    PYTHONPATH=src python benchmarks/telemetry_overhead.py --smoke   # fast
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
PR1_REPORT = REPO_ROOT / "BENCH_PR1.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_BASELINE.json"

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(REPO_ROOT / "src"))

BENCH_NAME = "event_loop_throughput"
PROBE_BENCH_NAME = "scenario_probe_path"


def _scenario_probe_path(scale: float) -> None:
    """One full scenario build+run -- the path that installs probes.

    With telemetry disabled this must cost exactly one attribute check in
    ``build()`` plus the already-gated cohort branches; the probe process
    is never created.
    """
    from repro.scenario import get_scenario, run_scenario

    run = run_scenario(get_scenario("tiny"))
    assert run.results


def _event_loop(scale: float) -> None:
    """The exact workload of check_regression's event_loop_throughput."""
    from repro.des import Environment

    n = max(1, int(10_000 * scale))
    env = Environment()

    def ticker(env):
        for _ in range(n):
            yield env.timeout(0.001)

    env.process(ticker(env))
    env.run()
    assert env.events_processed >= n


def time_loop(rounds: int, scale: float, fn=_event_loop) -> Dict[str, float]:
    for _ in range(3):  # warmup
        fn(scale)
    times = []
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        fn(scale)
        times.append(time.perf_counter() - start)
        gc.enable()
    return {"median": statistics.median(times), "min": min(times)}


def reference_seconds(name: str = BENCH_NAME) -> Optional[float]:
    """Reference min for a gated workload.

    Prefers the baseline's noise-aware ``reference_min`` (aggregated over
    several harness invocations) over ``BENCH_PR1.json``'s single-run min,
    which can sample the fast end of the host's noise distribution.
    """
    if BASELINE_PATH.exists():
        with open(BASELINE_PATH, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        ref = (baseline.get("reference_min") or {}).get(name)
        if ref is not None:
            return ref
    if PR1_REPORT.exists():
        with open(PR1_REPORT, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        mins = report.get("min_seconds") or {}
        if name in mins:
            return mins[name]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed slowdown vs the PR 1 reference")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, 1 round, no pass/fail gate")
    args = parser.parse_args(argv)

    rounds, scale = args.rounds, args.scale
    if args.smoke:
        rounds, scale = 1, 0.02

    from repro import telemetry

    gated = not args.smoke and scale == 1.0
    failures = 0
    for name, fn in ((BENCH_NAME, _event_loop),
                     (PROBE_BENCH_NAME, _scenario_probe_path)):
        if telemetry.enabled():  # the gate measures the *disabled* fast path
            telemetry.disable()
        off = time_loop(rounds, scale, fn)

        telemetry.enable()
        try:
            on = time_loop(rounds, scale, fn)
        finally:
            telemetry.disable()
            telemetry.reset()

        ratio = on["min"] / off["min"] if off["min"] > 0 else float("inf")
        print(f"[{name}]")
        print(f"  telemetry off : {off['min'] * 1e3:8.3f} ms (min of {rounds})")
        print(f"  telemetry on  : {on['min'] * 1e3:8.3f} ms "
              f"({ratio:.2f}x, informational)")

        ref = reference_seconds(name) if gated else None
        if ref is not None:
            slowdown = off["min"] / ref
            print(f"  reference     : {ref * 1e3:8.3f} ms -> disabled-path "
                  f"slowdown {slowdown:.2f}x (tolerance {args.tolerance:.0%})")
            if off["min"] > ref * (1.0 + args.tolerance):
                print(f"FAIL: disabled-telemetry {name} regressed beyond "
                      "tolerance", file=sys.stderr)
                failures += 1
        elif gated:
            print(f"no reference timing for {name}; gate skipped",
                  file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
