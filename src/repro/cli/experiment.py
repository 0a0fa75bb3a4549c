"""``repro-io experiment``: run the reproduction experiments."""

from __future__ import annotations

import argparse
import contextlib

from repro.cli import common


def register(sub) -> None:
    # No prefix matching: ``--seed`` is a usage error, not ``--seeds``.
    p = sub.add_parser("experiment", help="run reproduction experiments",
                       allow_abbrev=False)
    p.add_argument(
        "id", help="experiment id (E1-E4, C1-C10, A1-A5, R1-R3) or 'all'"
    )
    common.add_fanout_flags(p, "task")
    p.add_argument(
        "--seeds", type=_seed_list, default="0",
        help="comma-separated seed list (e.g. 0,1,2; default 0)",
    )
    p.add_argument("--json", help="write results JSON to this path")
    common.add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_experiment)


def _seed_list(text: str) -> list:
    """argparse type: a non-empty comma-separated list of distinct seeds."""
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad value {text!r} (want e.g. 0,1,2)") from None
    if not seeds:
        raise argparse.ArgumentTypeError("parsed to an empty list")
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(
            f"bad value {text!r} (a seed is repeated)")
    return seeds


def _cmd_experiment(args) -> int:
    from repro import telemetry
    from repro.core.experiment import ResultsCollector
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.runner import run_experiments

    want_telemetry = common.enable_telemetry(args)
    ids = list(ALL_EXPERIMENTS) if args.id == "all" else [args.id.upper()]
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        raise common.CommandError(f"unknown experiment id(s): {unknown}; "
                                  f"have {sorted(ALL_EXPERIMENTS)}")
    seeds = args.seeds
    span = telemetry.span(
        "repro-io experiment", cat="cli",
        ids=len(ids), seeds=len(seeds), jobs=args.jobs,
    ) if want_telemetry else contextlib.nullcontext()
    with span:
        results = run_experiments(ids, seeds=seeds,
                                  **common.fanout_kwargs(args))
    collector = ResultsCollector()
    failed = 0
    errored = 0
    for res in results:
        record = res.record
        if record is None:
            print(f"[{res.experiment_id}#s{res.seed}] FAILED: {res.error}")
            print()
            errored += 1
            continue
        key = record.id if len(seeds) == 1 else f"{record.id}#s{res.seed}"
        collector.records[key] = record
        print(record.summary())
        print()
        if record.supported is False:
            failed += 1
    common.print_fanout_summary(
        f"{len(ids)} experiment(s) x {len(seeds)} seed(s)", results,
        args.jobs, errored)
    if args.json:
        collector.save(args.json)
        print(f"results written to {args.json}")
    common.emit_telemetry(args)
    return 1 if failed or errored else 0
