"""``repro-io scenario list|run|sweep``: declared whole-evaluation
scenarios."""

from __future__ import annotations

import logging

from repro.cli import common

log = logging.getLogger(__name__)


def register(sub) -> None:
    p = sub.add_parser(
        "scenario",
        help="declare, run and sweep whole-evaluation scenarios",
    )
    scen_sub = p.add_subparsers(dest="action", required=True)

    sp = scen_sub.add_parser("list", help="list named scenario presets")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_scenario_errors(_cmd_list))

    sp = scen_sub.add_parser(
        "run", help="build and run one scenario (preset name or JSON file)"
    )
    sp.add_argument("scenario", help="preset name or path to a scenario JSON")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", help="write the scenario outcome JSON here")
    sp.add_argument(
        "--engine", choices=["sequential", "partitioned"],
        help="override the scenario's DES engine (default: as declared)",
    )
    sp.add_argument(
        "--engine-workers", type=common.positive_int,
        help="partitioned-engine partition count (default: one per island)",
    )
    common.add_telemetry_flags(sp)
    common.add_store_dir(sp, "run store that archives telemetry artifacts "
                         "of this run")
    sp.add_argument(
        "--no-store", action="store_true",
        help="keep telemetry outputs as loose files only; skip the store",
    )
    sp.set_defaults(fn=_scenario_errors(_cmd_run))

    sp = scen_sub.add_parser(
        "sweep",
        help="cartesian sweep: scenario plus key=v1,v2 parameter grids",
    )
    sp.add_argument("scenario", help="base preset name or scenario JSON path")
    sp.add_argument(
        "params", nargs="+", metavar="key=v1,v2",
        help="grid axes; dotted paths (platform.n_oss, "
        "workloads.0.params.transfer_size) or bare names (n_oss, "
        "stripe_count) resolved layer by layer",
    )
    sp.add_argument("--seed", type=int, default=0)
    common.add_fanout_flags(sp, "point")
    sp.add_argument("--json", help="write all point outcomes JSON here")
    sp.set_defaults(fn=_scenario_errors(_cmd_sweep))


def _scenario_errors(handler):
    """Report an invalid or unreadable scenario as exit code 2."""

    def run(args) -> int:
        from repro.scenario import ScenarioError

        try:
            return handler(args)
        except ScenarioError as exc:
            raise common.CommandError(f"scenario error: {exc}") from exc
        except OSError as exc:
            raise common.CommandError(f"cannot read scenario: {exc}") from exc

    return run


def _cmd_list(args) -> int:
    from repro.scenario import get_scenario, list_scenarios

    for name in list_scenarios():
        print(f"{name:<16} {get_scenario(name, args.seed).describe()}")
    return 0


def _cmd_run(args) -> int:
    from repro.scenario import run_scenario

    want_telemetry = common.enable_telemetry(args)
    spec = common.scenario_spec(args.scenario, args.seed)
    run = run_scenario(
        spec,
        engine=args.engine,
        engine_workers=args.engine_workers,
    )
    print(spec.describe())
    print(f"scenario digest: {spec.digest()[:16]}")
    print(run.summary())
    for sr in run.scale_results:
        stats = ", ".join(
            f"{k}={v:.2f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(sr.stats.items())
        )
        print(
            f"  scale engine {sr.engine}: "
            f"{sr.events} events, digest {sr.digest[:16]}"
            + (f" ({stats})" if stats else "")
        )
    if args.json:
        common.write_json(args.json, run.to_dict(), "results")
    trace_doc = common.emit_telemetry(args)
    if want_telemetry and not args.no_store:
        _store_scenario_telemetry(args, spec, trace_doc)
    return 0


def _cmd_sweep(args) -> int:
    from repro.scenario import run_sweep

    spec = common.scenario_spec(args.scenario, args.seed)
    results = run_sweep(spec, common.parse_grid(args.params),
                        **common.fanout_kwargs(args))
    errored = 0
    for r in results:
        if r.failed:
            print(f"{r.point.name:<56} FAILED: {r.error}")
            errored += 1
            continue
        o = r.outcome
        origin = "cache" if r.cached else f"{r.seconds:.2f}s"
        mb_w = o.get("bytes_written", 0) / 1e6
        mb_r = o.get("bytes_read", 0) / 1e6
        print(f"{r.point.name:<56} {o.get('duration', 0.0):8.3f}s sim  "
              f"W {mb_w:8.1f} MB  R {mb_r:8.1f} MB  [{origin}]")
    common.print_fanout_summary(f"{len(results)} point(s)", results,
                                args.jobs, errored)
    if args.json:
        common.write_json(
            args.json,
            [{"name": r.point.name, "overrides": r.point.overrides,
              "cached": r.cached, "outcome": r.outcome,
              **({"error": r.error} if r.failed else {})}
             for r in results],
            "results",
        )
    return 1 if errored else 0


def _store_scenario_telemetry(args, spec, trace_doc) -> None:
    """Land a telemetry-enabled scenario run's trace/metrics/series in the
    run store, behind ``telemetry/<scenario digest16>-*`` refs.

    The loose ``--trace``/``--metrics-json`` files remain (easy to open in
    Perfetto), but the store copies are the durable, content-addressed
    record -- ``repro-io telemetry telemetry/<digest16>-series`` works on
    any machine holding the store.
    """
    import time as _time

    from repro import telemetry
    from repro.store import RunArtifact, RunStore, StoreError

    if trace_doc is None:
        from repro.telemetry.collect import merged_chrome_trace

        trace_doc = merged_chrome_trace()
    d16 = spec.digest()[:16]
    meta = {"scenario": spec.name, "scenario_digest": spec.digest(),
            "created": _time.time()}
    try:
        store = RunStore(args.store_dir)
        stored = {}
        for label, artifact in (
            ("trace", RunArtifact.from_trace(trace_doc)),
            ("metrics",
             RunArtifact.from_metrics(telemetry.TELEMETRY.metrics.to_dict())),
            ("series",
             RunArtifact.from_timeseries(telemetry.TELEMETRY.series.to_dict())),
        ):
            digest = store.put(artifact)
            store.set_ref(f"telemetry/{d16}-{label}", digest, meta=meta)
            stored[label] = digest
        print("telemetry stored: " + ", ".join(
            f"{label} {digest[:16]}" for label, digest in stored.items()
        ) + f"  (refs telemetry/{d16}-*)")
    except (StoreError, OSError) as exc:
        log.warning("could not store telemetry artifacts: %s", exc)
