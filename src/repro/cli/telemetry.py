"""``repro-io telemetry`` and ``repro-io watch``: summarize self-telemetry
artifacts and tail the live sweep and service ledgers."""

from __future__ import annotations

import json
import sys
import time

from repro.cli import common


def register(sub) -> None:
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
    common.add_store_dir(p, "run store consulted for non-file tokens")
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
    p.add_argument("--interval", type=common.positive_float, default=1.0,
                   help="poll interval in seconds (default 1)")
    p.add_argument("--once", action="store_true",
                   help="render one frame and exit")
    p.add_argument("--timeout", type=float, default=0.0,
                   help="give up after this many seconds (default: never)")
    p.add_argument("--fail-on-errors", action="store_true",
                   help="exit nonzero when the final frame shows any "
                   "failed point or job")
    p.set_defaults(fn=_cmd_watch)


def _cmd_telemetry(args) -> int:
    """Summarize a telemetry artifact (trace / manifest / metrics / sweep).

    ``args.file`` is a JSON file path, or -- when no such file exists -- a
    run-store token (run id, ref name, digest or digest prefix, or
    ``latest``) resolved against ``--store-dir``.
    """
    from pathlib import Path

    from repro.scenario.sweep import SWEEP_PROGRESS_SCHEMA, SWEEP_SCHEMA
    from repro.service.jobs import SERVICE_LEDGER_SCHEMA
    from repro.telemetry import (
        MANIFEST_SCHEMA,
        METRICS_SCHEMA,
        TIMESERIES_SCHEMA,
    )

    if Path(args.file).is_file():
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise common.CommandError(
                f"cannot read {args.file}: {exc}") from exc
    else:
        from repro.store import RunStore, StoreError

        store = RunStore(args.store_dir)
        try:
            artifact = store.get(store.resolve(args.file))
        except StoreError as exc:
            raise common.CommandError(
                f"cannot read {args.file}: not a file, and not resolvable "
                f"in the run store at {args.store_dir} ({exc})") from exc
        if artifact.kind == "experiment_record":
            print(artifact.to_record().summary())
            return 0
        doc = dict(artifact.payload)

    doc = doc if isinstance(doc, dict) else {}
    summarize = _summarize_trace if "traceEvents" in doc else {
        MANIFEST_SCHEMA: _summarize_manifest,
        METRICS_SCHEMA: _summarize_metrics,
        TIMESERIES_SCHEMA: _summarize_series,
        SWEEP_SCHEMA: _summarize_sweep,
        SWEEP_PROGRESS_SCHEMA: lambda d, top: print(_render_sweep_progress(d)),
        SERVICE_LEDGER_SCHEMA: lambda d, top: print(_render_service_ledger(d)),
    }.get(doc.get("schema"))
    if summarize is None:
        raise common.CommandError(
            f"{args.file}: not a repro trace, manifest, metrics, "
            f"timeseries, sweep or service-ledger document")
    summarize(doc, args.top)
    return 0


def _summarize_trace(doc, top: int) -> None:
    from repro.telemetry import validate_chrome_trace
    from repro.telemetry.tracing import span_self_times

    problems = validate_chrome_trace(doc)
    if problems:
        raise common.CommandError(f"invalid trace: {'; '.join(problems[:5])}")
    spans = [ev for ev in doc["traceEvents"] if ev.get("ph") == "X"]
    if not spans:
        print("trace contains no complete spans")
        return
    wall = max(ev["ts"] + ev["dur"] for ev in spans) - min(ev["ts"] for ev in spans)
    print(f"trace: {len(spans)} span(s), {wall / 1e3:.1f} ms wall")
    print(f"{'span':<28} {'count':>6} {'total ms':>10} {'self ms':>10}")
    agg = span_self_times(spans)
    ranked = sorted(agg.items(), key=lambda kv: kv[1]["self_s"], reverse=True)
    for name, entry in ranked[:top]:
        print(f"{name:<28} {entry['count']:>6} "
              f"{entry['total_s'] * 1e3:>10.2f} {entry['self_s'] * 1e3:>10.2f}")


def _summarize_manifest(doc, top: int) -> None:
    from repro.telemetry import cache_hit_ratio

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
    _print_slowest("tasks", tasks, lambda t: f"{t['id']}#s{t['seed']:<4}", top)


def _summarize_metrics(doc, top: int) -> None:
    metrics = doc.get("metrics", {})
    print(f"metrics: {len(metrics)} metric(s)")
    for name in sorted(metrics):
        m = metrics[name]
        if m.get("kind") == "histogram":
            print(f"  {m['kind']:<9} {name:<36} n={m.get('count', 0)} "
                  f"mean={m.get('mean', 0.0):.4g}")
        else:
            print(f"  {m['kind']:<9} {name:<36} {m.get('value')}")
    for line in _partition_lines(metrics) + _durability_lines(metrics):
        print(line)


def _partition_lines(metrics: dict) -> list:
    """The PartitionStats digest of a metrics document (windows,
    occupancy, cross-partition exchange traffic) -- no lines when the
    run never used the partitioned executor."""
    windows = metrics.get("des.partition.windows", {}).get("value", 0)
    if not windows:
        return []
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
    return lines


def _durability_lines(metrics: dict) -> list:
    """The crash-recovery digest of a metrics document (journal
    write-ahead activity, boot replays) -- no lines when the journal
    never ran."""

    def value(name):
        return metrics.get(name, {}).get("value", 0)

    journal = {k: value(f"service.journal.{k}")
               for k in ("records", "fsync_batches", "compactions")}
    replayed = value("service.journal.replayed")
    lines = common.durability_lines(
        journal if journal["records"] or replayed else None, replayed)
    return ["durability:"] + lines if lines else []


_SPARK_CHARS = " .:-=+*#%@"


def _sparkline(values, width: int = 32) -> str:
    """Down-sample ``values`` to ``width`` buckets of ASCII intensity."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    out = []
    n = len(values)
    buckets = min(width, n)
    for b in range(buckets):
        chunk = values[b * n // buckets:(b + 1) * n // buckets]
        mean = sum(chunk) / len(chunk)
        idx = int((mean - lo) / span * (len(_SPARK_CHARS) - 1))
        out.append(_SPARK_CHARS[idx])
    return "".join(out)


def _summarize_series(doc, top: int) -> None:
    """Per-probe stats table plus busiest-component callouts for a
    ``repro.telemetry.timeseries/1`` document."""
    series = doc.get("series", [])
    total = sum(len(s.get("times", ())) for s in series)
    print(f"time series: {len(series)} series, {total} point(s)")
    from repro.telemetry.timeseries import value_stats

    rows = [
        {"name": s.get("name", "?"), "unit": s.get("unit", ""),
         "spark": _sparkline(s["values"]), **value_stats(s["values"])}
        for s in series if s.get("values")
    ]
    if not rows:
        return
    name_w = max(len(r["name"]) for r in rows)
    shown = rows
    if len(rows) > top:
        shown = sorted(rows, key=lambda r: r["mean"], reverse=True)[:top]
        print(f"(showing top {top} of {len(rows)} by mean; raise --top "
              f"for more)")
    print(f"{'series':<{name_w}} {'n':>6} {'min':>9} {'mean':>9} "
          f"{'p99':>9} {'max':>9}")
    for r in shown:
        print(f"{r['name']:<{name_w}} {r['count']:>6} {r['min']:>9.4g} "
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


def _summarize_sweep(doc, top: int) -> None:
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
    _print_slowest("points", points, lambda p: f"{p.get('name', '?'):<56}",
                   top)


def _print_slowest(what: str, rows, label, top: int) -> None:
    """The ``top`` rows with the most wall ``seconds``, cache or fresh."""
    if rows:
        print(f"slowest {what}:")
    for row in sorted(rows, key=lambda r: r.get("seconds", 0.0),
                      reverse=True)[:top]:
        origin = "cache" if row.get("cached") else "fresh"
        print(f"  {label(row)} {row.get('seconds', 0.0):8.3f}s  ({origin})")

def _render_sweep_progress(doc) -> str:
    """Render one frame of the live sweep monitor from a
    ``repro.scenario.sweep.progress/1`` document."""
    now = time.time()
    counts = doc.get("counts", {})
    total = doc.get("total", 0) or 0
    cached = counts.get("cached", 0)
    done = counts.get("done", 0)
    failed = counts.get("failed", 0)
    pending = counts.get("pending", 0)
    complete = cached + done + failed
    jobs = doc.get("jobs", 1) or 1

    lines = [
        f"sweep {doc.get('sweep', '?')}: {complete}/{total} point(s) "
        f"{common.progress_bar(complete, total)}",
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
    if doc.get("finished"):
        wall = doc.get("updated", now) - doc.get("started", now)
        lines.append(f"  finished in {wall:.1f}s")
    else:
        lines.append(_last_update(doc, "workers alive"))
    slow = sorted(
        ((name, p) for name, p in doc.get("points", {}).items()
         if p.get("status") in ("done", "failed")),
        key=lambda kv: kv[1].get("seconds", 0.0), reverse=True,
    )
    for name, p in slow[:3]:
        mark = " FAILED" if p.get("status") == "failed" else ""
        lines.append(f"    {name:<52} {p.get('seconds', 0.0):7.2f}s{mark}")
    return "\n".join(lines)


def _render_service_ledger(doc) -> str:
    """Render one frame of the service monitor from a
    ``repro.service.jobs/1`` job-ledger document."""
    counts = doc.get("counts", {})
    stats = doc.get("stats", {})
    total = doc.get("total", 0) or 0
    terminal = (
        counts.get("done", 0) + counts.get("failed", 0)
        + counts.get("cancelled", 0)
    )
    service = doc.get("service", {})

    lines = [
        f"service {service.get('host', '?')}:{service.get('port', '?')} "
        f"(pid {service.get('pid', '?')}, workers={service.get('workers', '?')}): "
        f"{terminal}/{total} job(s) {common.progress_bar(terminal, total)}",
        f"  queued {counts.get('queued', 0)}  running {counts.get('running', 0)}"
        f"  done {counts.get('done', 0)}  failed {counts.get('failed', 0)}"
        f"  cancelled {counts.get('cancelled', 0)}",
        common.task_counts(stats),
    ]
    tasks = stats.get("tasks_submitted", 0)
    if tasks:
        lines.append(
            f"  store-hit ratio {stats.get('warm_hits', 0) / tasks:.0%}"
            f"  (rejected: {stats.get('rejected_backpressure', 0)} "
            f"backpressure, {stats.get('rejected_quota', 0)} quota)"
        )
    lines += common.durability_lines(doc.get("journal"),
                                     stats.get("replayed", 0))
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
    lines.append("  service stopped" if doc.get("finished")
                 else _last_update(doc, "alive"))
    return "\n".join(lines)


def _last_update(doc, alive: str) -> str:
    """How long ago a live ledger was rewritten; 30 s of silence reads as
    a stall."""
    now = time.time()
    age = now - doc.get("updated", now)
    return f"  last update {age:.1f}s ago ({alive if age < 30 else 'STALLED?'})"


def _cmd_watch(args) -> int:
    """Live monitor: tail a sweep progress ledger or a run-service job
    ledger (whichever the path resolves to)."""
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
            except (FileNotFoundError, ValueError):  # writes are atomic
                continue
        if doc is not None and doc.get("schema") not in renderers:
            raise common.CommandError(
                f"{doc_path}: not a sweep progress or service job document "
                f"(schema={doc.get('schema')!r})")
        if doc is None:
            if args.once:
                raise common.CommandError(
                    f"no sweep progress or service job ledger at "
                    f"{' or '.join(str(c) for c in candidates)} (start one "
                    f"with `repro-io scenario sweep ...` or "
                    f"`repro-io serve`)")
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
        time.sleep(args.interval)
        waited += args.interval
