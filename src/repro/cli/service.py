"""``repro-io serve|submit|jobs|loadgen``: run and drive the multi-tenant
run service."""

from __future__ import annotations

import functools

from repro.cli import common


def register(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="run the multi-tenant run service (async job server over "
        "the store; submit with `repro-io submit`)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = pick a free one)")
    p.add_argument("--workers", type=common.positive_int, default=2,
                   help="process-pool workers executing scenarios (default 2)")
    common.add_store_dir(p, "run-store root results land in")
    p.add_argument("--queue-limit", type=int, default=256,
                   help="admission queue depth before backpressure "
                   "rejections (default 256)")
    p.add_argument("--tenant-quota", type=int, default=64,
                   help="max outstanding computations per tenant (default 64)")
    p.add_argument("--enable-chaos", action="store_true",
                   help="allow the chaos-kill op (testing: kills a pool "
                   "worker mid-job)")
    p.add_argument("--fsync-interval", type=float, default=0.05,
                   help="journal group-commit window in seconds "
                   "(default 0.05)")
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
    common.add_service_address(p)
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "jobs",
        help="inspect a running service: list/show/cancel jobs, stats, "
        "shutdown",
    )
    common.add_service_address(p)
    jobs_sub = p.add_subparsers(dest="action", required=True)
    sp = jobs_sub.add_parser("list", help="list jobs the service knows")
    sp.add_argument("--tenant", help="only this tenant's jobs")
    sp.set_defaults(fn=_jobs_list)
    sp = jobs_sub.add_parser("show", help="show one job document")
    sp.add_argument("job_id")
    sp.add_argument("--wait", action="store_true",
                    help="block until the job is terminal")
    sp.set_defaults(fn=_jobs_show)
    sp = jobs_sub.add_parser(
        "cancel", help="cancel a job id or a whole tenant's queued work"
    )
    sp.add_argument("job_id", nargs="?")
    sp.add_argument("--tenant", help="cancel every unfinished job of "
                    "this tenant")
    sp.set_defaults(fn=_jobs_cancel)
    sp = jobs_sub.add_parser("stats", help="server counters and queue state")
    sp.set_defaults(fn=_jobs_stats)
    sp = jobs_sub.add_parser(
        "chaos-kill",
        help="kill one pool worker (server must run with --enable-chaos)",
    )
    sp.set_defaults(fn=_jobs_chaos_kill)
    sp = jobs_sub.add_parser("shutdown", help="stop the service")
    sp.add_argument("--drain", action="store_true",
                    help="stop admission, finish running jobs, then close "
                    "cleanly (next boot skips journal replay)")
    sp.set_defaults(fn=_jobs_shutdown)

    p = sub.add_parser(
        "loadgen",
        help="multi-tenant load generator: hammer a running service and "
        "report p50/p99 latency, throughput and store-hit ratio",
    )
    p.add_argument("scenario", nargs="?", default="tiny",
                   help="preset name or scenario JSON path (default tiny)")
    p.add_argument("params", nargs="*", metavar="key=v1,v2",
                   help="optional sweep grid axes")
    p.add_argument("--tenants", type=common.positive_int, default=100,
                   help="simulated tenants (default 100)")
    p.add_argument("--requests-per-tenant", type=int, default=1)
    p.add_argument("--connections", type=common.positive_int, default=8,
                   help="real sockets the tenants multiplex over (default 8)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--distinct-seeds", action="store_true",
                   help="give every tenant its own seed (forces cold "
                   "computations instead of warm hits)")
    p.add_argument("--tenant-prefix", default="tenant")
    p.add_argument("--json", help="write the full load report here")
    common.add_service_address(p)
    p.set_defaults(fn=_cmd_loadgen)


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
        enable_chaos=args.enable_chaos,
        fsync_interval=args.fsync_interval,
    )
    service = RunService(config)

    async def _run() -> None:
        await service.start()
        print(f"run service listening on {service.host}:{service.port} "
              f"({config.workers} worker(s))")
        print(f"  store     {service.store.root}")
        print(f"  ledger    {service.ledger_path}")
        print(f"  discovery {service.discovery_path}")
        replayed = service.stats.get("replayed", 0)
        print(f"  journal   {config.resolved_journal_dir()}"
              + (f" ({replayed} computation(s) replayed)" if replayed else ""))
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


def _submission(args):
    """The ``(scenario, grid)`` a submit or loadgen invocation sends: an
    inline spec dict for files, the name for presets."""
    from pathlib import Path

    grid = common.parse_grid(args.params) if args.params else None
    scenario = args.scenario
    if Path(scenario).is_file() or scenario.endswith(".json"):
        try:
            scenario = common.scenario_spec(scenario, args.seed or 0).to_dict()
        except ValueError as exc:
            raise common.CommandError(str(exc)) from exc
    return scenario, grid


async def _request(host, port, method: str, **kwargs):
    """Connect to the service and return the reply to one client call."""
    from repro.service import ServiceClient

    async with await ServiceClient.connect(host, port) as client:
        return await getattr(client, method)(**kwargs)


def _cmd_submit(args) -> int:
    scenario, grid = _submission(args)
    doc = common.call_service(args, functools.partial(
        _request, method="submit", scenario=scenario,
        tenant=args.tenant,
        grid=grid,
        seed=args.seed,
        wait=not args.no_wait,
        idempotency_key=args.idempotency_key,
    ))
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
        raise common.CommandError(
            f"submission rejected: {doc.get('reason') or doc.get('error')}",
            code=1)
    _print_job_doc(doc, latency=doc.get("latency"))
    if args.json:
        common.write_json(args.json,
                          {k: v for k, v in doc.items() if k != "ok"},
                          "job document")
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


def _jobs_call(args, method: str, **kwargs):
    """One ``jobs`` request: ``("host:port", reply)``.  A request the
    service refused exits 1 with its error."""

    async def call(host, port):
        return f"{host}:{port}", await _request(host, port, method, **kwargs)

    endpoint, doc = common.call_service(args, call)
    if not doc.get("ok", True) and doc.get("error"):
        raise common.CommandError(f"error: {doc['error']}", code=1)
    return endpoint, doc


def _jobs_list(args) -> int:
    _, doc = _jobs_call(args, "jobs", tenant=args.tenant)
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


def _jobs_show(args) -> int:
    _, doc = _jobs_call(args, "wait" if args.wait else "status",
                        job_id=args.job_id)
    _print_job_doc(doc)
    return 0 if doc.get("state") in ("done", "queued", "running") else 1


def _jobs_cancel(args) -> int:
    _, doc = _jobs_call(args, "cancel", job_id=args.job_id,
                        tenant=args.tenant)
    cancelled = doc.get("cancelled", [])
    print(f"cancelled {len(cancelled)} job(s), "
          f"{doc.get('dropped', 0)} queued computation(s) dropped")
    for job_id in cancelled:
        print(f"  {job_id}")
    return 0


def _jobs_chaos_kill(args) -> int:
    _, doc = _jobs_call(args, "chaos_kill")
    print(f"killed {doc.get('killed', 0)} worker(s); pool rebuilt "
          f"(generation {doc.get('pool_generation', '?')})")
    return 0


def _jobs_shutdown(args) -> int:
    _, doc = _jobs_call(args, "shutdown", drain=args.drain)
    if doc.get("draining"):
        print(f"drain requested: admission stopped, "
              f"{doc.get('pending', 0)} computation(s) finishing before "
              f"clean close")
    else:
        print("shutdown requested")
    return 0


def _jobs_stats(args) -> int:
    endpoint, doc = _jobs_call(args, "stats")
    stats = doc.get("stats", {})
    print(f"service {endpoint} up {doc.get('uptime', 0.0):.1f}s, "
          f"{doc.get('workers', '?')} worker(s) "
          f"(pool generation {doc.get('pool_generation', 0)})")
    print(f"  store {doc.get('store', '?')}")
    print(f"  jobs: {stats.get('jobs_submitted', 0)} submitted, "
          f"{stats.get('done', 0)} done, {stats.get('failed', 0)} failed, "
          f"{stats.get('cancelled', 0)} cancelled")
    print(common.task_counts(stats))
    print(f"  admission: {stats.get('rejected_backpressure', 0)} backpressure "
          f"rejection(s), {stats.get('rejected_quota', 0)} quota rejection(s), "
          f"{stats.get('rejected_draining', 0)} draining rejection(s), "
          f"{stats.get('deduplicated', 0)} deduplicated")
    print(f"  queue {doc.get('queue', 0)}, running {doc.get('running', 0)}, "
          f"inflight digests {doc.get('inflight', 0)}"
          + (" [draining]" if doc.get("draining") else ""))
    for line in common.durability_lines(doc.get("journal"),
                                        stats.get("replayed", 0)):
        print(line)
    tenants = doc.get("tenants", {})
    if tenants:
        print("  outstanding by tenant: " + ", ".join(
            f"{t}={n}" for t, n in sorted(tenants.items())[:10]))
    return 0


def _cmd_loadgen(args) -> int:
    from repro.service.loadgen import run_load

    scenario, grid = _submission(args)
    report = common.call_service(args, functools.partial(
        run_load,
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
        common.write_json(args.json, report, "load report")
    return 0 if report["requests_failed"] == 0 else 1
