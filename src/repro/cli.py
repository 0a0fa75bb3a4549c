"""Command-line interface: ``repro-io``.

Subcommands::

    repro-io figures [1|2|3|4|all]     render the paper's figures
    repro-io taxonomy [--modules]      print the Sec. IV taxonomy tree
    repro-io corpus                    survey-corpus distributions
    repro-io experiment <id>|all       run reproduction experiments
                                       (--jobs N fans out over processes,
                                       --seeds a,b,c sweeps seeds, results
                                       are cached under results/cache;
                                       --no-cache forces recomputation;
                                       --trace/--metrics enable the
                                       simulator's self-telemetry)
    repro-io scenario list             named scenario presets
    repro-io scenario run <name|file>  build + run one declared scenario
    repro-io scenario sweep <name|file> key=v1,v2 ...
                                       cartesian sweep over a base
                                       scenario (--jobs fans out, points
                                       are cached, a sweep manifest
                                       records per-point provenance)
    repro-io telemetry <file|token>    summarize a trace / manifest /
                                       metrics / timeseries / sweep JSON
                                       -- a file path, or a store token
                                       (run id, ref, digest, 'latest')
    repro-io watch [dir|file]          live monitor: tails a running
                                       sweep's sweep-progress.json or a
                                       service's service-jobs.json
                                       (--fail-on-errors exits nonzero
                                       on any failed point/job)
    repro-io serve                     run the multi-tenant run service:
                                       an async job server over the
                                       store with fair-share scheduling,
                                       digest coalescing and warm hits
    repro-io submit <name|file> [k=v1,v2 ...]
                                       submit a scenario or sweep to a
                                       running service (discovery via
                                       results/service.json)
    repro-io jobs list|show|cancel|stats|shutdown
                                       inspect or control a running
                                       service
    repro-io loadgen                   hammer a service with simulated
                                       tenants; reports p50/p99 latency,
                                       throughput, store-hit ratio
    repro-io store ls|show|diff|gc|verify|scrub|export|table
                                       inspect the content-addressed run
                                       store (results/store): list runs
                                       and refs, show artifacts, diff two
                                       runs by content, collect garbage,
                                       check integrity, bundle for
                                       sharing, or regenerate
                                       the EXPERIMENTS table from stored
                                       records without re-running
    repro-io run-dsl <file>            run a DSL workload on a simulated
                                       cluster and print its profile
    repro-io cycle                     run one evaluation-cycle iteration

Global flags: ``--log-level debug|info|warning|error`` configures stdlib
logging for every ``repro.*`` module-level logger.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

log = logging.getLogger(__name__)


def _cmd_figures(args) -> int:
    from repro.cluster import medium_cluster
    from repro.survey.figures import (
        fig1_platform,
        fig2_stack,
        fig3_distribution,
        fig4_cycle,
    )

    renders = {
        "1": lambda: fig1_platform(medium_cluster()),
        "2": fig2_stack,
        "3": fig3_distribution,
        "4": fig4_cycle,
    }
    which = [args.figure] if args.figure != "all" else ["1", "2", "3", "4"]
    for key in which:
        print(renders[key]())
        print()
    return 0


def _cmd_taxonomy(args) -> int:
    from repro.core.taxonomy import render_tree

    print(render_tree(show_modules=args.modules))
    return 0


def _cmd_corpus(args) -> int:
    from repro.survey.analysis import (
        distribution_by_publisher,
        distribution_by_type,
        distribution_by_year,
        taxonomy_coverage,
    )

    print("by type   :", {k: f"{v:.1f}%" for k, v in distribution_by_type().items()})
    print("by pub    :", {k: f"{v:.1f}%" for k, v in distribution_by_publisher().items()})
    print("by year   :", distribution_by_year())
    print("by category:")
    for cat, n in taxonomy_coverage().items():
        print(f"  {cat:<35} {n}")
    return 0


def _cmd_experiment(args) -> int:
    from repro import telemetry
    from repro.core.experiment import ResultsCollector
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.runner import run_experiments

    want_telemetry = bool(
        args.trace or args.metrics or args.metrics_json or args.series
    )
    if want_telemetry:
        telemetry.enable()

    ids = list(ALL_EXPERIMENTS) if args.id == "all" else [args.id.upper()]
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {unknown}; have {sorted(ALL_EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            print(f"bad --seeds value {args.seeds!r} (want e.g. 0,1,2)",
                  file=sys.stderr)
            return 2
        if not seeds:
            print("--seeds parsed to an empty list", file=sys.stderr)
            return 2
    else:
        seeds = [args.seed]
    kwargs = dict(
        seeds=seeds,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        manifest=not args.no_manifest,
        fail_fast=args.fail_fast,
    )
    if want_telemetry:
        with telemetry.span(
            "repro-io experiment", cat="cli",
            ids=len(ids), seeds=len(seeds), jobs=args.jobs,
        ):
            results = run_experiments(ids, **kwargs)
    else:
        results = run_experiments(ids, **kwargs)
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
    n_cached = sum(1 for r in results if r.cached)
    print(
        f"{len(ids)} experiment(s) x {len(seeds)} seed(s): "
        f"{len(results) - n_cached} computed, {n_cached} from cache "
        f"(jobs={args.jobs})"
        + (f", {errored} FAILED" if errored else "")
    )
    if args.json:
        collector.save(args.json)
        print(f"results written to {args.json}")
    if args.trace:
        from repro.telemetry.collect import write_merged_chrome

        path = write_merged_chrome(args.trace)
        n_remote = sum(
            len(s.get("spans", ())) for s in telemetry.TELEMETRY.remote
        )
        print(f"telemetry trace written to {path} "
              f"({len(telemetry.TELEMETRY.tracer)} local + {n_remote} worker "
              f"span(s); load in Perfetto or chrome://tracing)")
    if args.metrics:
        print()
        print("-- self-telemetry metrics " + "-" * 34)
        print(telemetry.TELEMETRY.metrics.render_text())
    if args.series:
        print()
        print("-- simulation-time series " + "-" * 34)
        print(telemetry.TELEMETRY.series.render_text())
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            fh.write(telemetry.TELEMETRY.metrics.render_json())
        print(f"metrics JSON written to {args.metrics_json}")
    return 1 if failed or errored else 0


def _scenario_spec(ref: str, seed: int):
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


def _parse_grid(items) -> dict:
    """Parse ``key=v1,v2`` grid axes; raises ValueError on bad input."""
    grid = {}
    for item in items:
        if "=" not in item:
            raise ValueError(
                f"bad sweep parameter {item!r} (want key=v1,v2,...)")
        key, _, values = item.partition("=")
        grid[key] = [_parse_sweep_value(v) for v in values.split(",") if v]
        if not grid[key]:
            raise ValueError(f"no values for sweep parameter {key!r}")
    return grid


def _cmd_scenario(args) -> int:
    from repro.scenario import ScenarioError

    try:
        if args.action == "list":
            from repro.scenario import get_scenario, list_scenarios

            for name in list_scenarios():
                print(f"{name:<16} {get_scenario(name, args.seed).describe()}")
            return 0

        if args.action == "run":
            from repro import telemetry
            from repro.scenario import run_scenario

            want_telemetry = bool(
                args.metrics or args.metrics_json or args.trace or args.series
            )
            if want_telemetry:
                telemetry.enable()
            spec = _scenario_spec(args.scenario, args.seed)
            run = run_scenario(
                spec,
                engine=args.engine,
                engine_backend=args.engine_backend,
                engine_workers=args.engine_workers,
            )
            print(spec.describe())
            print(f"scenario digest: {spec.digest()[:16]}")
            print(run.summary())
            for sr in run.scale_results:
                backend = f"/{sr.backend}" if sr.backend else ""
                stats = ", ".join(
                    f"{k}={v:.2f}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in sorted(sr.stats.items())
                )
                print(
                    f"  scale engine {sr.engine}{backend}: "
                    f"{sr.events} events, digest {sr.digest[:16]}"
                    + (f" ({stats})" if stats else "")
                )
            if args.json:
                with open(args.json, "w", encoding="utf-8") as fh:
                    json.dump(run.to_dict(), fh, indent=1)
                print(f"results written to {args.json}")
            trace_doc = None
            if args.trace:
                from repro.telemetry.collect import (
                    merged_chrome_trace,
                    write_merged_chrome,
                )

                trace_doc = merged_chrome_trace()
                path = write_merged_chrome(args.trace)
                pids = trace_doc["otherData"].get("processes", [])
                print(f"telemetry trace written to {path} "
                      f"({len(pids)} process track(s); load in Perfetto or "
                      f"chrome://tracing)")
            if args.metrics:
                print()
                print("-- self-telemetry metrics " + "-" * 34)
                print(telemetry.TELEMETRY.metrics.render_text())
            if args.series:
                print()
                print("-- simulation-time series " + "-" * 34)
                print(telemetry.TELEMETRY.series.render_text())
            if args.metrics_json:
                with open(args.metrics_json, "w", encoding="utf-8") as fh:
                    fh.write(telemetry.TELEMETRY.metrics.render_json())
                print(f"metrics JSON written to {args.metrics_json}")
            if want_telemetry and not args.no_store:
                _store_scenario_telemetry(args, spec, trace_doc)
            return 0

        # sweep
        from repro.scenario import run_sweep

        spec = _scenario_spec(args.scenario, args.seed)
        try:
            grid = _parse_grid(args.params)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if not grid:
            print("sweep needs at least one key=v1,v2 parameter", file=sys.stderr)
            return 2
        results = run_sweep(
            spec, grid,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            manifest=not args.no_manifest,
            fail_fast=args.fail_fast,
        )
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
        n_cached = sum(1 for r in results if r.cached)
        print(f"{len(results)} point(s): {len(results) - n_cached} computed, "
              f"{n_cached} from cache (jobs={args.jobs})"
              + (f", {errored} FAILED" if errored else ""))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(
                    [{"name": r.point.name, "overrides": r.point.overrides,
                      "cached": r.cached, "outcome": r.outcome,
                      **({"error": r.error} if r.failed else {})}
                     for r in results],
                    fh, indent=1,
                )
            print(f"results written to {args.json}")
        return 1 if errored else 0
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 2


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


def _cmd_telemetry(args) -> int:
    """Summarize a telemetry artifact (trace / manifest / metrics / sweep).

    ``args.file`` is a JSON file path, or -- when no such file exists -- a
    run-store token (run id, ref name, digest or digest prefix, or
    ``latest``) resolved against ``--store-dir``.
    """
    from pathlib import Path

    from repro.scenario.sweep import SWEEP_PROGRESS_SCHEMA, SWEEP_SCHEMA
    from repro.telemetry import (
        MANIFEST_SCHEMA,
        METRICS_SCHEMA,
        TIMESERIES_SCHEMA,
        cache_hit_ratio,
        validate_chrome_trace,
    )

    if Path(args.file).is_file():
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.file}: {exc}", file=sys.stderr)
            return 2
    else:
        from repro.store import RunStore, StoreError

        store = RunStore(args.store_dir)
        try:
            artifact = store.get(store.resolve(args.file))
        except StoreError as exc:
            print(
                f"cannot read {args.file}: not a file, and not resolvable "
                f"in the run store at {args.store_dir} ({exc})",
                file=sys.stderr,
            )
            return 2
        if artifact.kind == "experiment_record":
            print(artifact.to_record().summary())
            return 0
        doc = dict(artifact.payload)

    if isinstance(doc, dict) and "traceEvents" in doc:
        problems = validate_chrome_trace(doc)
        if problems:
            print(f"invalid trace: {'; '.join(problems[:5])}", file=sys.stderr)
            return 2
        return _summarize_trace(doc, top=args.top)
    if isinstance(doc, dict) and doc.get("schema") == MANIFEST_SCHEMA:
        return _summarize_manifest(doc, cache_hit_ratio, top=args.top)
    if isinstance(doc, dict) and doc.get("schema") == METRICS_SCHEMA:
        return _summarize_metrics(doc)
    if isinstance(doc, dict) and doc.get("schema") == TIMESERIES_SCHEMA:
        return _summarize_series(doc, top=args.top)
    if isinstance(doc, dict) and doc.get("schema") == SWEEP_SCHEMA:
        return _summarize_sweep(doc, top=args.top)
    if isinstance(doc, dict) and doc.get("schema") == SWEEP_PROGRESS_SCHEMA:
        print(_render_sweep_progress(doc))
        return 0
    from repro.service.jobs import SERVICE_LEDGER_SCHEMA

    if isinstance(doc, dict) and doc.get("schema") == SERVICE_LEDGER_SCHEMA:
        print(_render_service_ledger(doc))
        return 0
    print(f"{args.file}: not a repro trace, manifest, metrics, timeseries, "
          f"sweep or service-ledger document", file=sys.stderr)
    return 2


def _summarize_trace(doc, top: int) -> int:
    spans = [ev for ev in doc["traceEvents"] if ev.get("ph") == "X"]
    if not spans:
        print("trace contains no complete spans")
        return 0
    # Self time: a span's duration minus its direct children's durations
    # (the exporter records parent_id in each event's args).
    child_us: dict = {}
    for ev in spans:
        parent = ev.get("args", {}).get("parent_id")
        if parent is not None:
            child_us[parent] = child_us.get(parent, 0.0) + ev["dur"]
    agg: dict = {}
    for ev in spans:
        name = ev["name"]
        entry = agg.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
        entry["count"] += 1
        entry["total"] += ev["dur"]
        span_id = ev.get("args", {}).get("span_id")
        entry["self"] += max(0.0, ev["dur"] - child_us.get(span_id, 0.0))
    wall = max(ev["ts"] + ev["dur"] for ev in spans) - min(ev["ts"] for ev in spans)
    print(f"trace: {len(spans)} span(s), {wall / 1e3:.1f} ms wall")
    print(f"{'span':<28} {'count':>6} {'total ms':>10} {'self ms':>10}")
    ranked = sorted(agg.items(), key=lambda kv: kv[1]["self"], reverse=True)
    for name, entry in ranked[:top]:
        print(f"{name:<28} {entry['count']:>6} "
              f"{entry['total'] / 1e3:>10.2f} {entry['self'] / 1e3:>10.2f}")
    return 0


def _summarize_manifest(doc, cache_hit_ratio, top: int) -> int:
    cache = doc.get("cache", {})
    tasks = doc.get("tasks", [])
    host = doc.get("host", {})
    digest = doc.get("source_digest") or "?"
    print(f"manifest: {len(tasks)} task(s) "
          f"({len(doc.get('experiment_ids', []))} experiment(s) x "
          f"{len(doc.get('seeds', []))} seed(s)), jobs={doc.get('jobs')}")
    print(f"source digest: {digest[:16]}  host: {host.get('host', '?')} "
          f"python {host.get('python', '?')}")
    print(f"cache: {cache.get('hits', 0)} hit(s), {cache.get('fresh', 0)} "
          f"fresh, {cache.get('stale', 0)} stale, "
          f"{cache.get('corrupt', 0)} corrupt "
          f"-> hit ratio {cache_hit_ratio(doc):.0%}")
    print(f"wall: {doc.get('wall_seconds', 0.0):.2f}s")
    slowest = sorted(tasks, key=lambda t: t.get("seconds", 0.0), reverse=True)
    if slowest:
        print("slowest tasks:")
        for t in slowest[:top]:
            origin = "cache" if t.get("cached") else "fresh"
            print(f"  {t['id']}#s{t['seed']:<4} {t.get('seconds', 0.0):8.3f}s  "
                  f"({origin})")
    return 0


def _summarize_metrics(doc) -> int:
    metrics = doc.get("metrics", {})
    print(f"metrics: {len(metrics)} metric(s)")
    for name in sorted(metrics):
        m = metrics[name]
        if m.get("kind") == "histogram":
            print(f"  {m['kind']:<9} {name:<36} n={m.get('count', 0)} "
                  f"mean={m.get('mean', 0.0):.4g}")
        else:
            print(f"  {m['kind']:<9} {name:<36} {m.get('value')}")
    section = _partition_section(metrics)
    if section:
        print(section)
    section = _durability_section(metrics)
    if section:
        print(section)
    return 0


def _partition_section(metrics: dict) -> str:
    """Render the PartitionStats digest of a metrics document (windows,
    occupancy, cross-partition exchange traffic) -- empty string when the
    run never used the partitioned executor."""
    windows = metrics.get("des.partition.windows", {}).get("value", 0)
    if not windows:
        return ""
    events = metrics.get("des.partition.events", {}).get("value", 0)
    exchanged = metrics.get("des.partition.exchanged", {}).get("value", 0)
    lines = ["partitioned execution:"]
    frac = f" ({exchanged / events:.1%} of events)" if events else ""
    lines.append(
        f"  windows {windows}  events {events}  "
        f"cross-partition {exchanged}{frac}"
    )
    occ = metrics.get("des.partition.window_occupancy")
    if occ and occ.get("count"):
        lines.append(
            f"  window occupancy: mean {occ.get('mean', 0.0):.2f} "
            f"partition(s), max {occ.get('max', 0):g}"
        )
    per_p = []
    for name, m in sorted(metrics.items()):
        if name.startswith("des.partition.p") and name.endswith(".events"):
            per_p.append(f"{name[len('des.partition.'):-len('.events')]}="
                         f"{m.get('value', 0)}")
    if per_p:
        lines.append("  per-partition events: " + " ".join(per_p))
    return "\n".join(lines)


def _durability_section(metrics: dict) -> str:
    """Render the crash-recovery digest of a metrics document (journal
    write-ahead activity, boot replays, store scrub outcomes) -- empty
    string when neither the journal nor the scrubber ran."""

    def value(name):
        return metrics.get(name, {}).get("value", 0)

    records = value("service.journal.records")
    replayed = value("service.journal.replayed")
    passes = value("store.scrub.passes")
    if not (records or replayed or passes):
        return ""
    lines = ["durability:"]
    if records or replayed:
        lines.append(
            f"  journal: {records} record(s), "
            f"{value('service.journal.fsync_batches')} fsync batch(es), "
            f"{value('service.journal.compactions')} compaction(s), "
            f"{replayed} computation(s) replayed"
        )
    if passes:
        lines.append(
            f"  scrub: {passes} pass(es), "
            f"{value('store.scrub.scanned')} object(s) scanned, "
            f"{value('store.scrub.healed')} healed, "
            f"{value('store.scrub.quarantined')} quarantined"
        )
    return "\n".join(lines)


_SPARK_CHARS = " .:-=+*#%@"


def _sparkline(values, width: int = 32) -> str:
    """Down-sample ``values`` to ``width`` buckets of ASCII intensity."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    out = []
    n = len(values)
    for b in range(min(width, n)):
        chunk = values[b * n // width: max(b * n // width + 1,
                                           (b + 1) * n // width)]
        mean = sum(chunk) / len(chunk)
        idx = int((mean - lo) / span * (len(_SPARK_CHARS) - 1))
        out.append(_SPARK_CHARS[idx])
    return "".join(out)


def _summarize_series(doc, top: int) -> int:
    """Per-probe stats table plus busiest-component callouts for a
    ``repro.telemetry.timeseries/1`` document."""
    series = doc.get("series", [])
    total = sum(len(s.get("times", ())) for s in series)
    print(f"time series: {len(series)} series, {total} point(s)")
    if not series:
        return 0
    rows = []
    for s in series:
        values = s.get("values", [])
        if not values:
            continue
        ordered = sorted(values)
        rank = max(0, min(len(values) - 1, -(-99 * len(values) // 100) - 1))
        rows.append({
            "name": s.get("name", "?"),
            "unit": s.get("unit", ""),
            "n": len(values),
            "min": ordered[0],
            "mean": sum(values) / len(values),
            "p99": ordered[rank],
            "max": ordered[-1],
            "spark": _sparkline(values),
        })
    name_w = max(len(r["name"]) for r in rows)
    shown = rows
    if len(rows) > top:
        shown = sorted(rows, key=lambda r: r["mean"], reverse=True)[:top]
        print(f"(showing top {top} of {len(rows)} by mean; raise --top "
              f"for more)")
    print(f"{'series':<{name_w}} {'n':>6} {'min':>9} {'mean':>9} "
          f"{'p99':>9} {'max':>9}")
    for r in shown:
        print(f"{r['name']:<{name_w}} {r['n']:>6} {r['min']:>9.4g} "
              f"{r['mean']:>9.4g} {r['p99']:>9.4g} {r['max']:>9.4g}  "
              f"|{r['spark']}| {r['unit']}")
    for label, prefix in (("busiest OST", "pfs.ost."),
                          ("busiest OSS", "pfs.oss."),
                          ("busiest link", "net.")):
        candidates = [r for r in rows if r["name"].startswith(prefix)]
        if candidates:
            best = max(candidates, key=lambda r: r["mean"])
            print(f"{label}: {best['name']} "
                  f"(mean {best['mean']:.4g}, p99 {best['p99']:.4g})")
    return 0


def _summarize_sweep(doc, top: int) -> int:
    points = doc.get("points", [])
    grid = doc.get("grid", {})
    n_cached = sum(1 for p in points if p.get("cached"))
    print(f"sweep manifest: base {doc.get('base_scenario', '?')} "
          f"({str(doc.get('base_digest', '?'))[:16]}), "
          f"{len(points)} point(s), jobs={doc.get('jobs')}")
    print("grid: " + "; ".join(f"{k} in {v}" for k, v in grid.items()))
    print(f"source digest: {str(doc.get('source_digest', '?'))[:16]}  "
          f"host: {doc.get('host', {}).get('host', '?')}")
    print(f"cache: {n_cached} hit(s), {len(points) - n_cached} fresh; "
          f"wall {doc.get('wall_seconds', 0.0):.2f}s")
    slowest = sorted(points, key=lambda p: p.get("seconds", 0.0), reverse=True)
    if slowest:
        print("slowest points:")
        for p in slowest[:top]:
            origin = "cache" if p.get("cached") else "fresh"
            print(f"  {p.get('name', '?'):<56} {p.get('seconds', 0.0):8.3f}s  "
                  f"({origin})")
    return 0


def _render_sweep_progress(doc, now: Optional[float] = None) -> str:
    """Render one frame of the live sweep monitor from a
    ``repro.scenario.sweep.progress/1`` document."""
    import time as _time

    now = _time.time() if now is None else now
    counts = doc.get("counts", {})
    total = doc.get("total", 0) or 0
    cached = counts.get("cached", 0)
    done = counts.get("done", 0)
    failed = counts.get("failed", 0)
    pending = counts.get("pending", 0)
    complete = cached + done + failed
    jobs = doc.get("jobs", 1) or 1

    width = 40
    filled = int(width * complete / total) if total else width
    bar = "#" * filled + "-" * (width - filled)
    pct = (100.0 * complete / total) if total else 100.0

    lines = [
        f"sweep {doc.get('sweep', '?')}: {complete}/{total} point(s) "
        f"[{bar}] {pct:.0f}%",
        f"  cached {cached}  computed {done}  failed {failed}  "
        f"pending {pending}  (jobs={jobs})",
    ]
    served = cached + done
    if served:
        lines.append(f"  cache-hit ratio {cached / served:.0%}")
    # ETA from the mean wall-time of computed points, spread over the pool.
    seconds = [
        p.get("seconds", 0.0)
        for p in doc.get("points", {}).values()
        if p.get("status") == "done"
    ]
    if pending and seconds:
        eta = (sum(seconds) / len(seconds)) * pending / jobs
        lines.append(f"  ETA ~{eta:.0f}s ({len(seconds)} timed point(s), "
                     f"mean {sum(seconds) / len(seconds):.2f}s)")
    age = now - doc.get("updated", now)
    if doc.get("finished"):
        wall = doc.get("updated", now) - doc.get("started", now)
        lines.append(f"  finished in {wall:.1f}s")
    else:
        liveness = "workers alive" if age < 30 else "STALLED?"
        lines.append(f"  last update {age:.1f}s ago ({liveness})")
    slow = sorted(
        ((name, p) for name, p in doc.get("points", {}).items()
         if p.get("status") in ("done", "failed")),
        key=lambda kv: kv[1].get("seconds", 0.0), reverse=True,
    )
    for name, p in slow[:3]:
        mark = " FAILED" if p.get("status") == "failed" else ""
        lines.append(f"    {name:<52} {p.get('seconds', 0.0):7.2f}s{mark}")
    return "\n".join(lines)


def _render_service_ledger(doc, now: Optional[float] = None) -> str:
    """Render one frame of the service monitor from a
    ``repro.service.jobs/1`` job-ledger document."""
    import time as _time

    now = _time.time() if now is None else now
    counts = doc.get("counts", {})
    stats = doc.get("stats", {})
    total = doc.get("total", 0) or 0
    terminal = (
        counts.get("done", 0) + counts.get("failed", 0)
        + counts.get("cancelled", 0)
    )
    service = doc.get("service", {})
    width = 40
    filled = int(width * terminal / total) if total else width
    bar = "#" * filled + "-" * (width - filled)
    pct = (100.0 * terminal / total) if total else 100.0

    lines = [
        f"service {service.get('host', '?')}:{service.get('port', '?')} "
        f"(pid {service.get('pid', '?')}, workers={service.get('workers', '?')}): "
        f"{terminal}/{total} job(s) [{bar}] {pct:.0f}%",
        f"  queued {counts.get('queued', 0)}  running {counts.get('running', 0)}"
        f"  done {counts.get('done', 0)}  failed {counts.get('failed', 0)}"
        f"  cancelled {counts.get('cancelled', 0)}",
        f"  tasks: {stats.get('tasks_submitted', 0)} submitted, "
        f"{stats.get('computed', 0)} computed, "
        f"{stats.get('warm_hits', 0)} warm, "
        f"{stats.get('coalesced', 0)} coalesced, "
        f"{stats.get('requeued', 0)} requeued",
    ]
    tasks = stats.get("tasks_submitted", 0)
    if tasks:
        lines.append(
            f"  store-hit ratio {stats.get('warm_hits', 0) / tasks:.0%}"
            f"  (rejected: {stats.get('rejected_backpressure', 0)} "
            f"backpressure, {stats.get('rejected_quota', 0)} quota)"
        )
    journal = doc.get("journal")
    if journal:
        lines.append(
            f"  journal: {journal.get('records', 0)} record(s), "
            f"{journal.get('fsync_batches', 0)} fsync batch(es), "
            f"{journal.get('compactions', 0)} compaction(s); "
            f"{stats.get('replayed', 0)} replayed at boot"
        )
    scrub = doc.get("scrub", {})
    if scrub.get("runs"):
        lines.append(
            f"  scrub: {scrub.get('runs', 0)} pass(es), "
            f"{scrub.get('scanned', 0)} scanned, "
            f"{scrub.get('healed', 0)} healed, "
            f"{scrub.get('quarantined', 0)} quarantined"
        )
    tenants = doc.get("tenants", {})
    if tenants:
        top = sorted(tenants.items(), key=lambda kv: -kv[1])[:5]
        lines.append("  queued by tenant: " + ", ".join(
            f"{t}={n}" for t, n in top))
    failures = [
        (name, row) for name, row in doc.get("jobs", {}).items()
        if row.get("status") == "failed"
    ]
    for name, row in failures[-3:]:
        lines.append(
            f"    {name} ({row.get('tenant', '?')}) FAILED: "
            f"{str(row.get('error', '?'))[:80]}"
        )
    age = now - doc.get("updated", now)
    if doc.get("finished"):
        lines.append("  service stopped")
    else:
        liveness = "alive" if age < 30 else "STALLED?"
        lines.append(f"  last update {age:.1f}s ago ({liveness})")
    return "\n".join(lines)


def _cmd_watch(args) -> int:
    """Live monitor: tail a sweep progress ledger or a run-service job
    ledger (whichever the path resolves to)."""
    import time as _time
    from pathlib import Path

    from repro.scenario.sweep import SWEEP_PROGRESS_NAME, SWEEP_PROGRESS_SCHEMA
    from repro.service.jobs import SERVICE_LEDGER_NAME, SERVICE_LEDGER_SCHEMA

    renderers = {
        SWEEP_PROGRESS_SCHEMA: _render_sweep_progress,
        SERVICE_LEDGER_SCHEMA: _render_service_ledger,
    }
    path = Path(args.path)
    if path.is_dir():
        # A directory holds either (or both) ledgers; prefer the sweep
        # ledger for compatibility, fall back to the service one.
        candidates = [path / SWEEP_PROGRESS_NAME, path / SERVICE_LEDGER_NAME]
    else:
        candidates = [path]
    waited = 0.0
    while True:
        doc, doc_path = None, candidates[0]
        for candidate in candidates:
            try:
                with open(candidate, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
                doc_path = candidate
                break
            except FileNotFoundError:
                continue
            except ValueError:  # mid-write is impossible (atomic), but be safe
                continue
        if doc is not None and doc.get("schema") not in renderers:
            print(f"{doc_path}: not a sweep progress or service job "
                  f"document (schema={doc.get('schema')!r})", file=sys.stderr)
            return 2
        if doc is None:
            if args.once:
                print(f"no sweep progress or service job ledger at "
                      f"{' or '.join(str(c) for c in candidates)} (start one "
                      f"with `repro-io scenario sweep ...` or "
                      f"`repro-io serve`)", file=sys.stderr)
                return 2
            if waited == 0.0:
                print(f"waiting for {' or '.join(str(c) for c in candidates)} ...")
        else:
            print(renderers[doc["schema"]](doc))
            if args.once or doc.get("finished"):
                failed = (doc.get("counts", {}).get("failed", 0)
                          or doc.get("stats", {}).get("failed", 0))
                if args.fail_on_errors and failed:
                    print(f"{failed} failed point(s)/job(s)", file=sys.stderr)
                    return 1
                return 0
            print()
        if args.timeout and waited >= args.timeout:
            print(f"watch timed out after {waited:.0f}s", file=sys.stderr)
            return 1
        _time.sleep(args.interval)
        waited += args.interval


def _fmt_when(ts) -> str:
    import datetime

    try:
        return datetime.datetime.fromtimestamp(float(ts)).strftime(
            "%Y-%m-%d %H:%M:%S")
    except (TypeError, ValueError, OSError, OverflowError):
        return "?"


def _service_endpoint(args) -> "tuple[str, int]":
    """Resolve the service address: ``--address host:port`` beats the
    discovery file the server writes next to its store."""
    address = getattr(args, "address", None)
    if address:
        host, _, port = address.rpartition(":")
        return host or "127.0.0.1", int(port)
    from repro.service import load_discovery

    doc = load_discovery(getattr(args, "state_dir", "results"),
                         require_live=True)
    return doc["host"], doc["port"]


def _submit_scenario_ref(ref: str, seed: Optional[int]):
    """A submit payload: inline spec dict for files, name for presets."""
    from pathlib import Path

    if Path(ref).is_file() or ref.endswith(".json"):
        return _scenario_spec(ref, seed or 0).to_dict()
    return ref


def _cmd_serve(args) -> int:
    import asyncio
    from pathlib import Path

    from repro.service import RunService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        store_dir=Path(args.store_dir),
        workers=args.workers,
        queue_limit=args.queue_limit,
        tenant_quota=args.tenant_quota,
        use_cache=not args.no_cache,
        enable_chaos=args.enable_chaos,
        journal=args.journal,
        fsync_interval=args.fsync_interval,
        scrub_interval=args.scrub_interval,
    )
    service = RunService(config)

    async def _run() -> None:
        await service.start()
        print(f"run service listening on {service.host}:{service.port} "
              f"({config.workers} worker(s))")
        print(f"  store     {service.store.root}")
        print(f"  ledger    {service.ledger_path}")
        print(f"  discovery {service.discovery_path}")
        if config.journal:
            replayed = service.stats.get("replayed", 0)
            print(f"  journal   {config.resolved_journal_dir()}"
                  + (f" ({replayed} computation(s) replayed)"
                     if replayed else ""))
        if config.scrub_interval > 0:
            print(f"  scrub     every {config.scrub_interval:.0f}s")
        print(f"monitor with `repro-io watch {service.ledger_path.parent}`; "
              f"stop with Ctrl-C or `repro-io jobs shutdown`")
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\nservice stopped")
    return 0


def _cmd_submit(args) -> int:
    import asyncio

    from repro.service import ServiceClient

    try:
        host, port = _service_endpoint(args)
    except (FileNotFoundError, ValueError, ConnectionError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        grid = _parse_grid(args.params) if args.params else None
        scenario = _submit_scenario_ref(args.scenario, args.seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    async def _run():
        async with await ServiceClient.connect(host, port) as client:
            return await client.submit(
                scenario,
                tenant=args.tenant,
                grid=grid,
                seed=args.seed,
                wait=not args.no_wait,
                idempotency_key=args.idempotency_key,
            )

    try:
        doc = asyncio.run(_run())
    except ConnectionError as exc:
        print(f"cannot reach service at {host}:{port}: {exc}",
              file=sys.stderr)
        return 2
    if doc.get("deduplicated"):
        print(f"idempotency key matched: joined existing job "
              f"{doc.get('job_id', '?')}")
    if args.no_wait:
        print(f"job {doc.get('job_id', '?')} {doc.get('state', '?')}: "
              f"{doc.get('total', 0)} task(s), {doc.get('warm', 0)} warm, "
              f"{doc.get('coalesced', 0)} coalesced")
        if doc.get("job_id"):
            print(f"await it with `repro-io jobs show {doc['job_id']}`")
        return 0 if doc.get("ok") else 1
    if "job_id" not in doc:  # rejected at admission
        print(f"submission rejected: {doc.get('reason') or doc.get('error')}",
              file=sys.stderr)
        return 1
    _print_job_doc(doc, latency=doc.get("latency"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({k: v for k, v in doc.items() if k != "ok"}, fh, indent=1)
        print(f"job document written to {args.json}")
    return 0 if doc.get("state") == "done" else 1


def _print_job_doc(job: dict, latency=None) -> None:
    head = (f"job {job.get('job_id', '?')} [{job.get('state', '?')}] "
            f"tenant={job.get('tenant', '?')} kind={job.get('kind', '?')}: "
            f"{job.get('total', 0)} task(s), {job.get('warm', 0)} warm, "
            f"{job.get('coalesced', 0)} coalesced")
    if latency is not None:
        head += f"  ({latency:.3f}s)"
    print(head)
    if job.get("run_id"):
        print(f"  run {job['run_id']}")
    for task in job.get("tasks", ()):
        origin = "warm" if task.get("cached") else f"{task.get('seconds', 0.0):.2f}s"
        line = (f"  {task.get('name', '?'):<48} {task.get('state', '?'):<9} "
                f"[{origin}]")
        if task.get("artifact"):
            line += f" {task['artifact'][:16]}"
        print(line)
        if task.get("error"):
            print(f"    ERROR: {task['error']}")


def _cmd_jobs(args) -> int:
    import asyncio

    from repro.service import ServiceClient

    try:
        host, port = _service_endpoint(args)
    except (FileNotFoundError, ValueError, ConnectionError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    async def _run():
        async with await ServiceClient.connect(host, port) as client:
            if args.action == "list":
                return await client.jobs(tenant=args.tenant)
            if args.action == "show":
                if args.wait:
                    return await client.wait(args.job_id)
                return await client.status(args.job_id)
            if args.action == "cancel":
                return await client.cancel(
                    job_id=args.job_id, tenant=args.tenant)
            if args.action == "stats":
                return await client.stats()
            if args.action == "chaos-kill":
                return await client.chaos_kill()
            if args.action == "shutdown":
                return await client.shutdown(drain=args.drain)
            raise AssertionError(args.action)

    try:
        doc = asyncio.run(_run())
    except ConnectionError as exc:
        print(f"cannot reach service at {host}:{port}: {exc}",
              file=sys.stderr)
        return 2
    if not doc.get("ok", True) and doc.get("error"):
        print(f"error: {doc['error']}", file=sys.stderr)
        return 1

    if args.action == "list":
        jobs = doc.get("jobs", {})
        if not jobs:
            print("no jobs")
            return 0
        for job_id, row in jobs.items():
            line = (f"{job_id:<24} {row.get('status', '?'):<9} "
                    f"{row.get('tenant', '?'):<16} {row.get('kind', '?'):<8} "
                    f"{row.get('total', 0)} task(s), {row.get('warm', 0)} warm")
            if "seconds" in row:
                line += f"  {row['seconds']:.2f}s"
            if row.get("error"):
                line += f"  ERROR: {str(row['error'])[:60]}"
            print(line)
        return 0
    if args.action == "show":
        _print_job_doc(doc)
        return 0 if doc.get("state") in ("done", "queued", "running") else 1
    if args.action == "cancel":
        cancelled = doc.get("cancelled", [])
        print(f"cancelled {len(cancelled)} job(s), "
              f"{doc.get('dropped', 0)} queued computation(s) dropped")
        for job_id in cancelled:
            print(f"  {job_id}")
        return 0
    if args.action == "chaos-kill":
        print(f"killed {doc.get('killed', 0)} worker(s); pool rebuilt "
              f"(generation {doc.get('pool_generation', '?')})")
        return 0
    if args.action == "shutdown":
        if doc.get("draining"):
            print(f"drain requested: admission stopped, "
                  f"{doc.get('pending', 0)} computation(s) finishing before "
                  f"clean close")
        else:
            print("shutdown requested")
        return 0
    # stats
    stats = doc.get("stats", {})
    print(f"service {host}:{port} up {doc.get('uptime', 0.0):.1f}s, "
          f"{doc.get('workers', '?')} worker(s) "
          f"(pool generation {doc.get('pool_generation', 0)})")
    print(f"  store {doc.get('store', '?')}")
    print(f"  jobs: {stats.get('jobs_submitted', 0)} submitted, "
          f"{stats.get('done', 0)} done, {stats.get('failed', 0)} failed, "
          f"{stats.get('cancelled', 0)} cancelled")
    print(f"  tasks: {stats.get('tasks_submitted', 0)} submitted, "
          f"{stats.get('computed', 0)} computed, "
          f"{stats.get('warm_hits', 0)} warm, "
          f"{stats.get('coalesced', 0)} coalesced, "
          f"{stats.get('requeued', 0)} requeued")
    print(f"  admission: {stats.get('rejected_backpressure', 0)} backpressure "
          f"rejection(s), {stats.get('rejected_quota', 0)} quota rejection(s), "
          f"{stats.get('rejected_draining', 0)} draining rejection(s), "
          f"{stats.get('deduplicated', 0)} deduplicated")
    print(f"  queue {doc.get('queue', 0)}, running {doc.get('running', 0)}, "
          f"inflight digests {doc.get('inflight', 0)}"
          + (" [draining]" if doc.get("draining") else ""))
    journal = doc.get("journal")
    if journal:
        print(f"  journal: {journal.get('records', 0)} record(s), "
              f"{journal.get('fsync_batches', 0)} fsync batch(es), "
              f"{journal.get('compactions', 0)} compaction(s), "
              f"{journal.get('segments', 0)} segment(s); "
              f"{stats.get('replayed', 0)} computation(s) replayed at boot")
    scrub = doc.get("scrub", {})
    if scrub.get("runs"):
        print(f"  scrub: {scrub.get('runs', 0)} pass(es), "
              f"{scrub.get('scanned', 0)} object(s) scanned, "
              f"{scrub.get('healed', 0)} healed, "
              f"{scrub.get('quarantined', 0)} quarantined")
    tenants = doc.get("tenants", {})
    if tenants:
        print("  outstanding by tenant: " + ", ".join(
            f"{t}={n}" for t, n in sorted(tenants.items())[:10]))
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio

    from repro.service.loadgen import run_load

    try:
        host, port = _service_endpoint(args)
    except (FileNotFoundError, ValueError, ConnectionError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        grid = _parse_grid(args.params) if args.params else None
        scenario = _submit_scenario_ref(args.scenario, args.seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    report = asyncio.run(run_load(
        host, port,
        tenants=args.tenants,
        requests_per_tenant=args.requests_per_tenant,
        connections=args.connections,
        scenario=scenario,
        grid=grid,
        seed=args.seed,
        distinct_seeds=args.distinct_seeds,
        tenant_prefix=args.tenant_prefix,
    ))
    lat = report["latency"]
    print(f"{report['requests']} submission(s) from {report['tenants']} "
          f"tenant(s) over {report['connections']} connection(s): "
          f"{report['requests_ok']} ok, {report['requests_failed']} failed, "
          f"{report['retries']} admission retries, "
          f"{report.get('reconnects', 0)} reconnect(s)")
    print(f"  wall {report['wall_seconds']:.2f}s, "
          f"throughput {report['throughput_rps']:.0f} req/s")
    print(f"  latency p50 {lat['p50'] * 1e3:.1f}ms  "
          f"p95 {lat['p95'] * 1e3:.1f}ms  p99 {lat['p99'] * 1e3:.1f}ms  "
          f"mean {lat['mean'] * 1e3:.1f}ms  max {lat['max'] * 1e3:.1f}ms")
    delta = report["server_delta"]
    hit = report["hit_ratio"]
    print(f"  server: {delta.get('computed', 0)} computed, "
          f"{delta.get('warm_hits', 0)} warm, "
          f"{delta.get('coalesced', 0)} coalesced"
          + (f", store-hit ratio {hit:.0%}" if hit is not None else ""))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        print(f"load report written to {args.json}")
    return 0 if report["requests_failed"] == 0 else 1


def _cmd_store(args) -> int:
    """Inspect/maintain the content-addressed run store."""
    from repro.store import RunStore, StoreError

    store = RunStore(args.store_dir)
    try:
        return _store_action(store, args)
    except StoreError as exc:
        print(f"store error: {exc}", file=sys.stderr)
        return 2


def _store_action(store, args) -> int:
    if args.action == "ls":
        return _store_ls(store, args)
    if args.action == "show":
        return _store_show(store, args)
    if args.action == "diff":
        return _store_diff(store, args)
    if args.action == "gc":
        report = store.gc(dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        print(f"gc: {report['kept']} object(s) kept, "
              f"{verb} {len(report['removed'])} "
              f"({report['bytes_freed']} bytes)")
        for digest in report["removed"][:20]:
            print(f"  {digest[:16]}")
        return 0
    if args.action == "verify":
        problems = store.verify()
        if not problems:
            print(f"store at {store.root}: no problems found "
                  f"({len(store)} object(s))")
            return 0
        for p in problems:
            where = p.get("digest") or p.get("ref") or p.get("run")
            print(f"{str(where)[:40]:<40} {p['problem']}")
        print(f"{len(problems)} problem(s)", file=sys.stderr)
        return 1
    if args.action == "scrub":
        from repro.store import scrub_store

        report = scrub_store(store, heal=not args.no_heal,
                             dry_run=args.dry_run)
        verb = "would " if args.dry_run else ""
        print(f"scrub of {store.root}: {report['scanned']} object(s) "
              f"scanned, {report['ok']} ok, "
              f"{verb}healed {report['healed']}, "
              f"{verb}quarantined {report['quarantined']}, "
              f"{len(report['dangling_refs'])} dangling ref(s)")
        for problem in report["problems"][:20]:
            print(f"  {problem['digest'][:16]:<16} {problem['action']}: "
                  f"{problem['problem']}")
        for name in report["dangling_refs"][:20]:
            print(f"  dangling ref {name}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
            print(f"scrub report written to {args.json}")
        return 0 if not (report["quarantined"] or report["healed"]) else 1
    if args.action == "export":
        bundle = store.export(args.tokens or None)
        text = json.dumps(bundle, indent=1, sort_keys=True)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"{len(bundle['objects'])} object(s), "
                  f"{len(bundle['runs'])} run(s) exported to {args.output}")
        else:
            print(text)
        return 0
    # table
    return _store_table(store, args)


def _store_ls(store, args) -> int:
    runs = store.runs()
    refs = store.refs(args.pattern or "*")
    print(f"store at {store.root}: {len(store)} object(s), "
          f"{len(refs)} ref(s), {len(runs)} run(s)")
    if runs:
        print("runs (oldest first):")
        for run in runs:
            print(f"  {run['run_id']:<28} {_fmt_when(run.get('created'))}  "
                  f"{len(run.get('artifacts', {}))} artifact(s)")
    if args.kind:
        print(f"objects of kind {args.kind!r}:")
        for digest, artifact in store.query(args.kind):
            print(f"  {digest[:16]}  {artifact.describe()}")
    elif refs:
        print("refs:")
        for name, entry in refs:
            print(f"  {name:<44} -> {entry['digest'][:16]}")
    return 0


def _store_show(store, args) -> int:
    run = store._maybe_run(args.token)
    if run is not None:
        print(f"run {run['run_id']} ({run.get('kind', '?')}), "
              f"created {_fmt_when(run.get('created'))}")
        print(f"manifest {run['manifest'][:16]}")
        for label in sorted(run.get("artifacts", {})):
            digest = run["artifacts"][label]
            try:
                desc = store.get(digest).describe()
            except Exception as exc:  # corrupt/missing: show, don't die
                desc = f"UNREADABLE: {exc}"
            print(f"  {label:<24} {digest[:16]}  {desc}")
        return 0
    digest = store.resolve(args.token)
    artifact = store.get(digest)
    print(f"{digest}  kind={artifact.kind}")
    print(artifact.describe())
    if args.json:
        print(json.dumps(dict(artifact.payload), indent=1, sort_keys=True))
    return 0


def _store_diff(store, args) -> int:
    report = store.diff(args.a, args.b)
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0 if report["identical"] else 1
    if report["identical"]:
        print(f"{report['a']} and {report['b']} are identical "
              f"({report['mode']} diff: 0 difference(s))")
        return 0
    if report["mode"] == "runs":
        for label in report["only_a"]:
            print(f"only in {report['a']}: {label}")
        for label in report["only_b"]:
            print(f"only in {report['b']}: {label}")
        for label, changes in report["changed"].items():
            print(f"{label}: {len(changes)} change(s)")
            for ch in changes[:args.top]:
                print(f"  {ch['path']}: {ch['a']!r} -> {ch['b']!r}")
    else:
        for ch in report["changed"][:args.top]:
            print(f"{ch['path']}: {ch['a']!r} -> {ch['b']!r}")
    return 1


def _store_table(store, args) -> int:
    """Regenerate the EXPERIMENTS records table from stored artifacts."""
    from repro.core.experiment import ResultsCollector

    if args.run:
        docs = [store.get_run(args.run)]
    else:
        docs = [r for r in store.runs() if r.get("kind") == "experiment"][-1:]
    pairs = []  # (label, record)
    if docs:
        for label in sorted(docs[0].get("artifacts", {})):
            artifact = store.get(docs[0]["artifacts"][label])
            if artifact.kind == "experiment_record":
                pairs.append((label, artifact.to_record()))
    if not pairs:  # no usable run document: fall back to record refs
        for name, entry in store.refs("records/*") + \
                store.refs("legacy/experiments/*"):
            artifact = store.get(entry["digest"])
            if artifact.kind == "experiment_record":
                meta = entry.get("meta", {})
                label = f"{artifact.payload.get('id', name)}" \
                        f"#s{meta.get('seed', '?')}"
                pairs.append((label, artifact.to_record()))
    if not pairs:
        print("store holds no experiment records yet "
              "(run `repro-io experiment all` first)", file=sys.stderr)
        return 2
    collector = ResultsCollector()
    ids = [rec.id for _, rec in pairs]
    unique = len(set(ids)) == len(ids)
    for label, rec in pairs:
        collector.records[rec.id if unique else label] = rec
    print(collector.table())
    return 0


def _cmd_run_dsl(args) -> int:
    from repro.cluster import tiny_cluster
    from repro.monitoring import DarshanProfiler
    from repro.pfs import build_pfs
    from repro.simulate import run_workload
    from repro.wgen import DSLError, parse_workload

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        workload = parse_workload(text)
    except DSLError as exc:
        print(f"DSL error: {exc}", file=sys.stderr)
        return 2
    platform = tiny_cluster(seed=args.seed)
    pfs = build_pfs(platform)
    profiler = DarshanProfiler(job_name=workload.name)
    result = run_workload(platform, pfs, workload, observers=[profiler])
    print(result.summary())
    print()
    print(profiler.profile(n_ranks=workload.n_ranks).report())
    return 0


def _load_grammar(path):
    """Load a grammar JSON file, or the built-in default when ``path`` is
    None/'default'."""
    from repro.wgen import GrammarSpec, default_grammar

    if path is None or path == "default":
        return default_grammar()
    with open(path, "r", encoding="utf-8") as fh:
        return GrammarSpec.from_json(fh.read()).validate()


def _grammar_target(ref: str, seed: int):
    """Resolve a synthesis target into (ops, n_ranks, label).

    ``ref`` is a trace file (``.jsonl.gz`` from ``save_trace``), a scenario
    JSON file, or a preset name; scenarios are run under a tracer and the
    posix-layer records become the target.
    """
    from pathlib import Path

    from repro.monitoring import RecorderTracer, load_trace
    from repro.wgen import target_ops

    if Path(ref).is_file() and not ref.endswith(".json"):
        records = load_trace(ref)
        posix = [r for r in records if r.layer == "posix"]
        records = posix or records
        ops = target_ops(records)
        label = f"trace {ref}"
    else:
        from repro.scenario import run_scenario

        spec = _scenario_spec(ref, seed)
        tracer = RecorderTracer()
        run_scenario(spec, observers=[tracer])
        ops = target_ops(tracer.archive.at_layer("posix"))
        label = f"scenario {spec.name} (digest {spec.digest()[:12]})"
    if not ops:
        raise ValueError(f"no operations in target {ref!r}")
    n_ranks = max(op.rank for op in ops) + 1
    return ops, n_ranks, label


def _cmd_grammar(args) -> int:
    import json as _json

    from repro.wgen import GrammarError, expand, sample

    try:
        grammar = _load_grammar(getattr(args, "grammar", None))
    except (OSError, GrammarError) as exc:
        print(f"grammar error: {exc}", file=sys.stderr)
        return 2

    if args.action == "show":
        if args.json:
            print(grammar.to_json())
            return 0
        print(grammar.describe())
        for rule in grammar.rules:
            print(f"  <{rule.lhs}> ::=")
            for p in rule.productions:
                weight = f"  (w={p.weight:g})" if p.weight != 1.0 else ""
                print(f"    | {' '.join(p.symbols)}{weight}")
        return 0

    if args.action == "sample":
        from repro.scenario import run_scenario

        for seed in range(args.seed, args.seed + args.count):
            derivation = sample(grammar, seed=seed, n_ranks=args.ranks,
                                max_steps=args.max_steps)
            spec = derivation.scenario_spec(seed=seed)
            if args.json:
                print(_json.dumps(derivation.to_dict()))
            else:
                print(f"seed={seed} choices={len(derivation.choices)} "
                      f"scenario {spec.digest()}")
            if args.text:
                print(derivation.text)
            if args.run:
                run = run_scenario(spec).to_dict()
                print(f"  ran: {run['duration']:.4f}s sim, "
                      f"{run['bytes_written']} B written, "
                      f"{run['bytes_read']} B read, "
                      f"{run['meta_ops']} metadata op(s)")
        return 0

    if args.action == "expand":
        try:
            choices = [int(c) for c in args.choices.split(",") if c != ""]
            derivation = expand(grammar, choices, n_ranks=args.ranks,
                                complete=args.complete)
        except (ValueError, GrammarError) as exc:
            print(f"expand error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(_json.dumps(derivation.to_dict()))
        else:
            print(f"choices={list(derivation.choices)} "
                  f"scenario {derivation.scenario_spec().digest()}")
            print(derivation.text)
        return 0

    if args.action == "synth":
        from repro.scenario import ScenarioError
        from repro.wgen import synthesize

        try:
            ops, n_ranks, label = _grammar_target(args.target, args.seed)
        except (OSError, ValueError, ScenarioError) as exc:
            print(f"cannot resolve target: {exc}", file=sys.stderr)
            return 2
        print(f"target: {label}, {len(ops)} op(s), {n_ranks} rank(s)")
        from repro.modeling import DISTANCE_THRESHOLD

        threshold = (DISTANCE_THRESHOLD if args.threshold is None
                     else args.threshold)
        result = synthesize(
            ops, grammar=grammar, n_ranks=n_ranks,
            beam_width=args.beam, max_steps=args.max_steps,
            threshold=threshold,
        )
        spec = result.scenario_spec(seed=args.seed)
        print(f"best derivation: {len(result.derivation.choices)} choice(s), "
              f"distance {result.distance:.4f} "
              f"(threshold {result.threshold:.4f}) "
              f"[{'ok' if result.ok else 'ABOVE THRESHOLD'}]")
        print(f"synthesized scenario digest {spec.digest()}")
        if args.text:
            print(result.derivation.text)
        if args.store_dir:
            from repro.store import RunStore
            from repro.wgen import store_synthesis

            digests = store_synthesis(RunStore(args.store_dir), result,
                                      grammar=grammar)
            for kind, digest in sorted(digests.items()):
                print(f"stored {kind}: {digest}")
        rerun_ok = True
        if args.rerun:
            from repro.modeling import trace_distance
            from repro.monitoring import RecorderTracer
            from repro.scenario import run_scenario
            from repro.wgen import target_ops

            tracer = RecorderTracer()
            run_scenario(spec, observers=[tracer])
            rerun_dist = trace_distance(
                ops, target_ops(tracer.archive.at_layer("posix"))
            )
            rerun_ok = rerun_dist <= result.threshold
            print(f"re-simulated trace distance {rerun_dist:.4f} "
                  f"[{'ok' if rerun_ok else 'ABOVE THRESHOLD'}]")
        if args.check and not (result.ok and rerun_ok):
            return 1
        return 0

    raise AssertionError(f"unhandled grammar action {args.action!r}")


def _cmd_run_workload(args) -> int:
    from repro.cluster import tiny_cluster
    from repro.monitoring import DarshanProfiler
    from repro.pfs import build_pfs
    from repro.simulate import run_workload
    from repro.workloads.registry import PRESETS, make_preset

    if args.name == "list":
        for name in sorted(PRESETS):
            _, main = make_preset(name, n_ranks=args.ranks)
            print(f"{name:<12} {main.describe()}")
        return 0
    try:
        setup, main = make_preset(args.name, n_ranks=args.ranks)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    platform = tiny_cluster(seed=args.seed)
    pfs = build_pfs(platform)
    for w in setup:
        run_workload(platform, pfs, w)
    profiler = DarshanProfiler(job_name=main.name)
    result = run_workload(platform, pfs, main, observers=[profiler])
    print(main.describe())
    print(result.summary())
    print()
    print(profiler.profile(n_ranks=main.n_ranks).report())
    return 0


def _cmd_cycle(args) -> int:
    from repro.cluster import tiny_cluster
    from repro.core.cycle import EvaluationCycle
    from repro.workloads import IORConfig, IORWorkload

    MiB = 1024 * 1024
    cycle = EvaluationCycle(
        platform_factory=lambda: tiny_cluster(seed=args.seed),
        workload_factory=lambda: IORWorkload(
            IORConfig(block_size=4 * MiB, transfer_size=MiB, read=True), 4
        ),
        seed=args.seed,
    )
    for report in cycle.run(iterations=args.iterations):
        print(report.summary())
    return 0


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

    p = sub.add_parser("figures", help="render the paper's figures")
    p.add_argument("figure", nargs="?", default="all", choices=["1", "2", "3", "4", "all"])
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("taxonomy", help="print the evaluation taxonomy")
    p.add_argument("--modules", action="store_true", help="show implementing modules")
    p.set_defaults(fn=_cmd_taxonomy)

    p = sub.add_parser("corpus", help="survey-corpus distributions")
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("experiment", help="run reproduction experiments")
    p.add_argument(
        "id", help="experiment id (E1-E4, C1-C10, A1-A5, R1-R3) or 'all'"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--seeds",
        help="comma-separated seed list (e.g. 0,1,2); overrides --seed",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the experiment fan-out (default 1)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="recompute even when a cached result exists, and do not cache",
    )
    p.add_argument(
        "--cache-dir", default="results/store",
        help="run-store root the record cache lives in "
        "(default results/store)",
    )
    p.add_argument("--json", help="write results JSON to this path")
    p.add_argument(
        "--trace", metavar="OUT.json",
        help="enable self-telemetry and write a Chrome trace-event JSON "
        "(load in Perfetto or chrome://tracing)",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="enable self-telemetry and print the metrics table",
    )
    p.add_argument(
        "--series", action="store_true",
        help="enable self-telemetry and print the simulation-time series "
        "table (probe samples)",
    )
    p.add_argument(
        "--metrics-json", metavar="OUT.json",
        help="enable self-telemetry and write the metrics registry as JSON",
    )
    p.add_argument(
        "--no-manifest", action="store_true",
        help="skip writing the run-provenance manifest.json",
    )
    p.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first failed task instead of recording it and "
        "finishing the rest",
    )
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser(
        "scenario",
        help="declare, run and sweep whole-evaluation scenarios",
    )
    scen_sub = p.add_subparsers(dest="action", required=True)

    sp = scen_sub.add_parser("list", help="list named scenario presets")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_scenario)

    sp = scen_sub.add_parser(
        "run", help="build and run one scenario (preset name or JSON file)"
    )
    sp.add_argument("scenario", help="preset name or path to a scenario JSON")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", help="write the scenario outcome JSON here")
    sp.add_argument(
        "--engine", choices=["sequential", "conservative", "partitioned"],
        help="override the scenario's DES engine (default: as declared)",
    )
    sp.add_argument(
        "--engine-backend", choices=["serial", "thread", "process"],
        default="thread",
        help="partitioned-engine backend (default: thread)",
    )
    sp.add_argument(
        "--engine-workers", type=int,
        help="partitioned-engine partition/worker count (default: CPUs)",
    )
    sp.add_argument(
        "--metrics", action="store_true",
        help="enable self-telemetry and print the metrics table (cohort "
        "sizes, partition window occupancy, ...)",
    )
    sp.add_argument(
        "--trace", metavar="OUT.json",
        help="enable self-telemetry and write the merged cross-process "
        "Chrome trace (one pid track per worker; load in Perfetto)",
    )
    sp.add_argument(
        "--series", action="store_true",
        help="enable self-telemetry and print the simulation-time series "
        "table (link/OSS/OST/MDS probes)",
    )
    sp.add_argument(
        "--metrics-json", metavar="FILE",
        help="enable self-telemetry and write the metrics registry as JSON "
        "(summarize with `repro-io telemetry FILE`)",
    )
    sp.add_argument(
        "--store-dir", default="results/store",
        help="run store that archives telemetry artifacts of this run "
        "(default results/store)",
    )
    sp.add_argument(
        "--no-store", action="store_true",
        help="keep telemetry outputs as loose files only; skip the store",
    )
    sp.set_defaults(fn=_cmd_scenario)

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
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes for the point fan-out (default 1)")
    sp.add_argument("--no-cache", action="store_true",
                    help="recompute every point and do not cache")
    sp.add_argument("--cache-dir", default="results/store",
                    help="run-store root the point cache lives in "
                    "(default results/store)")
    sp.add_argument("--no-manifest", action="store_true",
                    help="skip writing the sweep provenance manifest")
    sp.add_argument("--fail-fast", action="store_true",
                    help="abort on the first failed point instead of "
                    "recording it and finishing the rest")
    sp.add_argument("--json", help="write all point outcomes JSON here")
    sp.set_defaults(fn=_cmd_scenario)

    p = sub.add_parser(
        "telemetry",
        help="summarize a self-telemetry artifact (trace, manifest or "
        "metrics JSON; a file path or a run-store token)",
    )
    p.add_argument(
        "file",
        help="path to the JSON artifact, or a store token (run id, ref "
        "name, digest prefix, or 'latest') when no such file exists",
    )
    p.add_argument("--top", type=int, default=10,
                   help="rows to show in rankings (default 10)")
    p.add_argument("--store-dir", default="results/store",
                   help="run store consulted for non-file tokens "
                   "(default results/store)")
    p.set_defaults(fn=_cmd_telemetry)

    p = sub.add_parser(
        "watch",
        help="live monitor: tail a running sweep's progress "
        "(per-point status, cache-hit ratio, ETA)",
    )
    p.add_argument(
        "path", nargs="?", default="results",
        help="sweep-progress.json path, or the directory holding it "
        "(default results)",
    )
    p.add_argument("--interval", type=float, default=1.0,
                   help="poll interval in seconds (default 1)")
    p.add_argument("--once", action="store_true",
                   help="render one frame and exit")
    p.add_argument("--timeout", type=float, default=0.0,
                   help="give up after this many seconds (default: never)")
    p.add_argument("--fail-on-errors", action="store_true",
                   help="exit nonzero when the final frame shows any "
                   "failed point or job")
    p.set_defaults(fn=_cmd_watch)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant run service (async job server over "
        "the store; submit with `repro-io submit`)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = pick a free one)")
    p.add_argument("--workers", type=int, default=2,
                   help="process-pool workers executing scenarios (default 2)")
    p.add_argument("--store-dir", default="results/store",
                   help="run-store root results land in (default results/store)")
    p.add_argument("--queue-limit", type=int, default=256,
                   help="admission queue depth before backpressure "
                   "rejections (default 256)")
    p.add_argument("--tenant-quota", type=int, default=64,
                   help="max outstanding computations per tenant (default 64)")
    p.add_argument("--no-cache", action="store_true",
                   help="do not serve warm results from (or land refs in) "
                   "the store")
    p.add_argument("--enable-chaos", action="store_true",
                   help="allow the chaos-kill op (testing: kills a pool "
                   "worker mid-job)")
    p.add_argument("--journal", dest="journal", action="store_true",
                   default=True, help="write-ahead job journal for crash "
                   "recovery (default on)")
    p.add_argument("--no-journal", dest="journal", action="store_false",
                   help="disable the write-ahead journal (jobs in flight "
                   "at a crash are lost)")
    p.add_argument("--fsync-interval", type=float, default=0.05,
                   help="journal group-commit window in seconds "
                   "(default 0.05)")
    p.add_argument("--scrub-interval", type=float, default=0.0,
                   help="seconds between background store scrub passes "
                   "(default 0 = disabled)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a scenario (or key=v1,v2 sweep) to a running service",
    )
    p.add_argument("scenario", help="preset name or scenario JSON path")
    p.add_argument("params", nargs="*", metavar="key=v1,v2",
                   help="optional sweep grid axes (as in `scenario sweep`)")
    p.add_argument("--tenant", default="cli",
                   help="tenant the submission is accounted to (default cli)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-wait", action="store_true",
                   help="return the job id immediately instead of waiting")
    p.add_argument("--idempotency-key",
                   help="resubmission with the same key dedups onto the "
                   "original job (survives server restarts via the journal)")
    p.add_argument("--json", help="write the finished job document here")
    p.add_argument("--address", metavar="HOST:PORT",
                   help="service address (default: discovery file)")
    p.add_argument("--state-dir", default="results",
                   help="directory holding service.json discovery "
                   "(default results)")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "jobs",
        help="inspect a running service: list/show/cancel jobs, stats, "
        "shutdown",
    )
    p.add_argument("--address", metavar="HOST:PORT",
                   help="service address (default: discovery file)")
    p.add_argument("--state-dir", default="results",
                   help="directory holding service.json discovery "
                   "(default results)")
    jobs_sub = p.add_subparsers(dest="action", required=True)
    sp = jobs_sub.add_parser("list", help="list jobs the service knows")
    sp.add_argument("--tenant", help="only this tenant's jobs")
    sp.set_defaults(fn=_cmd_jobs)
    sp = jobs_sub.add_parser("show", help="show one job document")
    sp.add_argument("job_id")
    sp.add_argument("--wait", action="store_true",
                    help="block until the job is terminal")
    sp.set_defaults(fn=_cmd_jobs)
    sp = jobs_sub.add_parser(
        "cancel", help="cancel a job id or a whole tenant's queued work"
    )
    sp.add_argument("job_id", nargs="?")
    sp.add_argument("--tenant", help="cancel every unfinished job of "
                    "this tenant")
    sp.set_defaults(fn=_cmd_jobs)
    sp = jobs_sub.add_parser("stats", help="server counters and queue state")
    sp.set_defaults(fn=_cmd_jobs)
    sp = jobs_sub.add_parser(
        "chaos-kill",
        help="kill one pool worker (server must run with --enable-chaos)",
    )
    sp.set_defaults(fn=_cmd_jobs)
    sp = jobs_sub.add_parser("shutdown", help="stop the service")
    sp.add_argument("--drain", action="store_true",
                    help="stop admission, finish running jobs, then close "
                    "cleanly (next boot skips journal replay)")
    sp.set_defaults(fn=_cmd_jobs)

    p = sub.add_parser(
        "loadgen",
        help="multi-tenant load generator: hammer a running service and "
        "report p50/p99 latency, throughput and store-hit ratio",
    )
    p.add_argument("scenario", nargs="?", default="tiny",
                   help="preset name or scenario JSON path (default tiny)")
    p.add_argument("params", nargs="*", metavar="key=v1,v2",
                   help="optional sweep grid axes")
    p.add_argument("--tenants", type=int, default=100,
                   help="simulated tenants (default 100)")
    p.add_argument("--requests-per-tenant", type=int, default=1)
    p.add_argument("--connections", type=int, default=8,
                   help="real sockets the tenants multiplex over (default 8)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--distinct-seeds", action="store_true",
                   help="give every tenant its own seed (forces cold "
                   "computations instead of warm hits)")
    p.add_argument("--tenant-prefix", default="tenant")
    p.add_argument("--json", help="write the full load report here")
    p.add_argument("--address", metavar="HOST:PORT",
                   help="service address (default: discovery file)")
    p.add_argument("--state-dir", default="results",
                   help="directory holding service.json discovery "
                   "(default results)")
    p.set_defaults(fn=_cmd_loadgen)

    p = sub.add_parser(
        "store",
        help="inspect and maintain the content-addressed run store",
    )
    p.add_argument("--store-dir", default="results/store",
                   help="store root (default results/store)")
    store_sub = p.add_subparsers(dest="action", required=True)

    sp = store_sub.add_parser("ls", help="list runs, refs and objects")
    sp.add_argument("pattern", nargs="?", default="*",
                    help="fnmatch pattern over ref names (default *)")
    sp.add_argument("--kind",
                    help="list objects of this artifact kind instead of refs")
    sp.set_defaults(fn=_cmd_store)

    sp = store_sub.add_parser(
        "show", help="show one run or artifact (run id, ref, digest, latest)"
    )
    sp.add_argument("token")
    sp.add_argument("--json", action="store_true",
                    help="also dump the artifact payload as JSON")
    sp.set_defaults(fn=_cmd_store)

    sp = store_sub.add_parser(
        "diff",
        help="content-diff two runs (by artifact set) or two artifacts "
        "(by payload); exits 0 when identical",
    )
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--json", action="store_true",
                    help="print the structured diff report")
    sp.add_argument("--top", type=int, default=10,
                    help="changes to show per artifact (default 10)")
    sp.set_defaults(fn=_cmd_store)

    sp = store_sub.add_parser(
        "gc", help="delete objects unreachable from any ref or run"
    )
    sp.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without deleting")
    sp.set_defaults(fn=_cmd_store)

    sp = store_sub.add_parser(
        "verify", help="integrity sweep: corrupt objects, dangling refs"
    )
    sp.set_defaults(fn=_cmd_store)

    sp = store_sub.add_parser(
        "scrub",
        help="patrol read: digest-verify every object, heal non-canonical "
        "bytes, quarantine unrecoverable ones",
    )
    sp.add_argument("--dry-run", action="store_true",
                    help="classify problems without touching disk")
    sp.add_argument("--no-heal", action="store_true",
                    help="quarantine instead of rewriting healable objects")
    sp.add_argument("--json", help="write the scrub report here")
    sp.set_defaults(fn=_cmd_store)

    sp = store_sub.add_parser(
        "export", help="bundle runs/refs/objects into one JSON document"
    )
    sp.add_argument("tokens", nargs="*",
                    help="limit to these runs/artifacts (default: whole store)")
    sp.add_argument("-o", "--output", help="write the bundle here")
    sp.set_defaults(fn=_cmd_store)

    sp = store_sub.add_parser(
        "table",
        help="regenerate the EXPERIMENTS records table from stored "
        "records, no re-run",
    )
    sp.add_argument("--run", help="run id to read records from "
                    "(default: the latest experiment run)")
    sp.set_defaults(fn=_cmd_store)

    p = sub.add_parser("run-dsl", help="run a DSL workload description")
    p.add_argument("file", help="path to the .wdsl file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_run_dsl)

    p = sub.add_parser(
        "grammar",
        help="generated workloads: sample/expand the I/O-pattern grammar, "
        "synthesize scenarios back from traces",
    )
    grammar_sub = p.add_subparsers(dest="action", required=True)

    sp = grammar_sub.add_parser("show", help="print the grammar's rules")
    sp.add_argument("--grammar", help="grammar JSON file (default: built-in)")
    sp.add_argument("--json", action="store_true",
                    help="dump the grammar document instead")
    sp.set_defaults(fn=_cmd_grammar)

    sp = grammar_sub.add_parser(
        "sample", help="draw deterministic derivations (seeded)"
    )
    sp.add_argument("--grammar", help="grammar JSON file (default: built-in)")
    sp.add_argument("--seed", type=int, default=0, help="first sample seed")
    sp.add_argument("--count", type=int, default=1,
                    help="number of consecutive seeds to sample")
    sp.add_argument("--ranks", type=int, default=4)
    sp.add_argument("--max-steps", type=int, default=256,
                    help="derivation depth bound")
    sp.add_argument("--text", action="store_true",
                    help="print each generated DSL program")
    sp.add_argument("--json", action="store_true",
                    help="print derivation documents as JSON lines")
    sp.add_argument("--run", action="store_true",
                    help="also run each sampled scenario")
    sp.set_defaults(fn=_cmd_grammar)

    sp = grammar_sub.add_parser(
        "expand", help="replay an explicit derivation (choice list)"
    )
    sp.add_argument("choices", help="comma-separated production indices")
    sp.add_argument("--grammar", help="grammar JSON file (default: built-in)")
    sp.add_argument("--ranks", type=int, default=4)
    sp.add_argument("--complete", action="store_true",
                    help="finish a partial derivation greedily")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_grammar)

    sp = grammar_sub.add_parser(
        "synth",
        help="search the grammar for the smallest derivation reproducing "
        "a trace or scenario's access pattern",
    )
    sp.add_argument(
        "target",
        help="trace file (save_trace .jsonl.gz), scenario JSON, or preset",
    )
    sp.add_argument("--grammar", help="grammar JSON file (default: built-in)")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for running a scenario target")
    sp.add_argument("--beam", type=int, default=8, help="beam width")
    sp.add_argument("--max-steps", type=int, default=64,
                    help="search depth bound")
    sp.add_argument("--threshold", type=float,
                    default=None, help="acceptance distance (default: the "
                    "documented DISTANCE_THRESHOLD)")
    sp.add_argument("--text", action="store_true",
                    help="print the synthesized DSL program")
    sp.add_argument("--rerun", action="store_true",
                    help="re-simulate the synthesized scenario and report "
                    "its trace distance to the target")
    sp.add_argument("--store-dir",
                    help="persist grammar + synthesis artifacts to this store")
    sp.add_argument("--check", action="store_true",
                    help="exit nonzero when the distance exceeds the "
                    "threshold (CI gate)")
    sp.set_defaults(fn=_cmd_grammar)

    p = sub.add_parser(
        "run-workload", help="run a preset workload on a simulated cluster"
    )
    p.add_argument("name", help="preset name, or 'list' to enumerate presets")
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_run_workload)

    p = sub.add_parser("cycle", help="run evaluation-cycle iterations")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_cycle)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
