#!/usr/bin/env python
"""Benchmark regression gate: kernel microbenchmarks and the scale tier.

``--tier kernel`` (the default) times the simulation-substrate
microbenchmarks (event loop, fair-share link, PFS write path, trace
compressor, one ``tiny`` scenario run), writes per-benchmark median
seconds to ``BENCH_PR1.json``, and exits nonzero when any benchmark
regressed more than ``--tolerance`` (default 25%) against the committed
reference in ``benchmarks/BENCH_BASELINE.json``.  Every kernel workload
runs with self-telemetry disabled and client resilience disarmed (the
defaults), so the tier also gates what those features cost when off: one
``TELEMETRY.active`` check on the event loop and the probe-installing
scenario path, one ``PFSClient._resilient`` check on the write path.

The kernel baseline file has three timing sets:

* ``seed``          -- the pre-optimization engine (PR 1's starting point),
                       kept so speedup-vs-seed stays visible in every report;
* ``reference``     -- the optimized engine's medians, for context;
* ``reference_min`` -- the optimized engine's per-benchmark min, which the
                       regression gate compares against (min-vs-min is robust
                       to scheduler noise on shared hosts).

``--tier scale`` times the large-scenario arms of
:mod:`repro.simulate.scalemodel` -- the 100k-rank bulk-synchronous write
workload under the sequential fast path (one coroutine per rank, millions
of events) and the vectorized cohort model on every executor (sequential,
partitioned on one partition -- the ``conservative`` arm -- and on
``SCALE_WORKERS`` partitions) -- verifies all arms produce bit-identical
result digests, sweeps rank counts for the partitioned-vs-sequential
crossover, writes ``BENCH_PR6.json``, and gates against
``benchmarks/BENCH_SCALE_BASELINE.json``.  At full scale the gate
additionally requires the partitioned arm to beat the sequential fast
path by at least ``SCALE_MIN_SPEEDUP``x.

``--tier service`` boots an in-process run service (:mod:`repro.service`)
on an ephemeral port, populates the store with one cold submission, then
drives a 1000-tenant warm storm and a 64-tenant dedup storm through the
multi-tenant load generator.  It writes ``BENCH_PR8.json`` and gates on
the service's own guarantees -- warm storm at a 100% store-hit ratio with
zero failed requests, the dedup storm computing *exactly once*, a clean
``store verify`` -- plus p50/p99 latency against
``benchmarks/BENCH_SERVICE_BASELINE.json``.  ``--tier all`` runs all
three tiers.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py               # kernel gate
    PYTHONPATH=src python benchmarks/check_regression.py --tier scale  # scale gate
    PYTHONPATH=src python benchmarks/check_regression.py --tier scale --scale 0.05 --smoke

``--smoke`` shrinks the workloads to one timing round and skips the
pass/fail gate so the test suite can exercise the harness in milliseconds
(see ``tests/benchmarks/test_check_regression.py``); an explicit
``--scale`` still wins over the smoke default.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_BASELINE.json"
OUTPUT_PATH = REPO_ROOT / "BENCH_PR1.json"
SCALE_BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_SCALE_BASELINE.json"
SCALE_OUTPUT_PATH = REPO_ROOT / "BENCH_PR6.json"
SERVICE_BASELINE_PATH = (
    Path(__file__).resolve().parent / "BENCH_SERVICE_BASELINE.json"
)
SERVICE_OUTPUT_PATH = REPO_ROOT / "BENCH_PR8.json"

try:  # allow running without PYTHONPATH=src, but never shadow an
    import repro  # noqa: F401  # already-importable repro (e.g. a worktree)
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(REPO_ROOT / "src"))

MiB = 1024 * 1024
KiB = 1024


# -- benchmark workloads ------------------------------------------------------

def bench_event_loop_throughput(scale: float = 1.0) -> None:
    from repro.des import Environment

    n = max(1, int(10_000 * scale))
    env = Environment()

    def ticker(env):
        for _ in range(n):
            yield env.timeout(0.001)

    env.process(ticker(env))
    env.run()
    assert env.events_processed >= n


def bench_fair_share_link_many_flows(scale: float = 1.0) -> None:
    from repro.des import Environment, FairShareLink

    n = max(2, int(200 * scale))
    env = Environment()
    link = FairShareLink(env, rate=1e9)

    def sender(env, i):
        yield env.timeout(i * 1e-4)
        yield link.transfer(1e6)

    for i in range(n):
        env.process(sender(env, i))
    env.run()
    assert link.bytes_transferred == n * 1e6


def bench_pfs_write_path(scale: float = 1.0) -> None:
    from repro.cluster import tiny_cluster
    from repro.pfs import build_pfs
    from repro.simulate import run_workload
    from repro.workloads import IORConfig, IORWorkload

    block = max(1, int(4 * scale)) * MiB
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    w = IORWorkload(IORConfig(block_size=block, transfer_size=MiB), 4)
    result = run_workload(platform, pfs, w)
    assert result.bytes_written == 4 * block


def bench_trace_compressor_speed(scale: float = 1.0) -> None:
    from repro.modeling import compress_ops
    from repro.ops import IOOp, OpKind

    steps = max(1, int(50 * scale))
    ops = []
    for _ in range(steps):
        ops.append(IOOp(OpKind.COMPUTE, duration=1.0))
        for i in range(100):
            ops.append(IOOp(OpKind.WRITE, "/f", offset=i * KiB, nbytes=KiB))
        ops.append(IOOp(OpKind.BARRIER))
    compress_ops(ops)


def bench_scenario_probe_path(scale: float = 1.0) -> None:
    """One ``tiny`` scenario build and run (fixed size; ``scale`` is
    ignored): the path that would install DES-timeline probes."""
    from repro.scenario import get_scenario, run_scenario

    assert run_scenario(get_scenario("tiny")).results


BENCHMARKS: Dict[str, Callable[[float], None]] = {
    "event_loop_throughput": bench_event_loop_throughput,
    "fair_share_link_many_flows": bench_fair_share_link_many_flows,
    "pfs_write_path": bench_pfs_write_path,
    "trace_compressor_speed": bench_trace_compressor_speed,
    "scenario_probe_path": bench_scenario_probe_path,
}


# -- scale tier (large-scenario parallel-vs-sequential) ----------------------

#: Full-scale scenario shape: 100k ranks over 64 islands, 10 rounds.  The
#: sequential fast path simulates this with ~4.2 million events.
SCALE_RANKS = 100_000
SCALE_ISLANDS = 64
SCALE_ROUNDS = 10
#: Rank counts swept for the partitioned-vs-sequential crossover (each is
#: multiplied by ``--scale``; the last point doubles as the headline run).
SCALE_SWEEP = (1_000, 4_000, 16_000, 50_000, SCALE_RANKS)
#: Gate: at full scale the partitioned arm must beat the sequential fast
#: path by at least this factor.
SCALE_MIN_SPEEDUP = 2.0
#: Partition count for the partitioned arm: the measured topology is 8
#: partitions of 8 islands, halos crossing at the boundaries.
SCALE_WORKERS = 8


def scale_config(scale: float = 1.0, ranks: int = SCALE_RANKS):
    """The swept scenario at ``ranks * scale`` ranks (islands clamped)."""
    from repro.simulate.scalemodel import ScaleConfig

    n = max(2, int(ranks * scale))
    return ScaleConfig(
        ranks=n,
        islands=min(SCALE_ISLANDS, n),
        rounds=SCALE_ROUNDS,
        seed=0,
    )


def _scale_arms() -> Dict[str, Callable]:
    """name -> callable(config) for every engine arm, slowest first."""
    from repro.simulate.scalemodel import (
        run_cohort,
        run_cohort_sequential,
        run_scale,
    )

    return {
        "sequential_fast_path": lambda c: run_scale(c, engine="sequential"),
        "cohort_sequential": run_cohort_sequential,
        "conservative": lambda c: run_cohort(c, workers=1),
        "partitioned_serial": lambda c: run_cohort(
            c, workers=min(SCALE_WORKERS, c.islands)
        ),
    }


def _time_arm(fn, rounds: int):
    """Time ``fn()`` ``rounds`` times with the collector paused, as in
    :func:`run_benchmarks`; every arm gets the same number of samples, so
    its "min" is never a single run.

    Returns ``({"median": s, "min": s}, last_result)``.
    """
    gc_was_enabled = gc.isenabled()
    times, result = [], None
    try:
        for _ in range(rounds):
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
            gc.enable()
    finally:
        if gc_was_enabled:
            gc.enable()
    return {"median": statistics.median(times), "min": min(times)}, result


def run_scale_arms(rounds: int, scale: float) -> Dict[str, Dict]:
    """Time every engine arm on the headline config.

    Returns ``{name: {"median", "min", "events", "digest", "stats"}}``.
    """
    config = scale_config(scale)
    arms = _scale_arms()
    # Warmup on a miniature config: imports and numpy caches.
    warm = scale_config(1.0, ranks=min(256, config.ranks))
    for fn in arms.values():
        fn(warm)
    out: Dict[str, Dict] = {}
    for name, fn in arms.items():
        timing, res = _time_arm(lambda: fn(config), rounds)
        out[name] = {
            **timing,
            "events": res.events,
            "digest": res.digest,
            "stats": dict(res.stats),
        }
    return out


def run_crossover_sweep(scale: float, full_arms: Dict[str, Dict]) -> Dict:
    """Sweep rank counts; find where the partitioned arm starts winning.

    Each sweep point times the sequential fast path against the
    partitioned arm (min-of-3).
    The headline point's timings are reused from ``full_arms`` rather
    than re-measured.
    """
    arms = _scale_arms()
    sweep = []
    seen = set()
    for base_ranks in SCALE_SWEEP:
        config = scale_config(scale, ranks=base_ranks)
        if config.ranks in seen:
            continue
        seen.add(config.ranks)
        if base_ranks == SCALE_RANKS:
            point = {
                "ranks": config.ranks,
                "sequential_fast_path":
                    full_arms["sequential_fast_path"]["min"],
                "partitioned_serial": full_arms["partitioned_serial"]["min"],
            }
        else:
            point = {"ranks": config.ranks}
            for name in ("sequential_fast_path", "partitioned_serial"):
                timing, _ = _time_arm(lambda: arms[name](config), rounds=3)
                point[name] = timing["min"]
        sweep.append(point)
    sweep.sort(key=lambda p: p["ranks"])

    crossover = next(
        (p["ranks"] for p in sweep
         if p["partitioned_serial"] < p["sequential_fast_path"]),
        None,
    )
    return {"sweep": sweep, "crossover_ranks": crossover}


# -- service tier (multi-tenant run service) ---------------------------------

#: Headline load: 1000 tenants hammering the warm path over 8 sockets.
SERVICE_TENANTS = 1_000
SERVICE_CONNECTIONS = 8
SERVICE_WORKERS = 2
#: Concurrent identical submissions in the dedup storm (must compute once).
SERVICE_DEDUP_TENANTS = 64
#: Pinned source digest for bench runs: cache keys must not depend on the
#: working tree, or a dirty checkout would silently turn the warm storm
#: into a cold one and gate on compute latency instead of service latency.
SERVICE_SOURCE_DIGEST = "bench" + "0" * 59


def run_service_bench(
    tenants: int, connections: int, workers: int = SERVICE_WORKERS
):
    """Boot an in-process service and drive the three load phases.

    Returns ``(cold, warm, dedup, verify_problems, journal)`` where the
    first three are :func:`repro.service.loadgen.run_load` reports,
    ``verify_problems`` is the result of ``store.verify()`` after all
    load, and ``journal`` summarizes write-ahead journal activity --
    including how many records the warm storm appended, which must be
    zero (warm-only jobs are never journaled, so crash durability adds
    no fsyncs to the gated warm path).
    """
    import asyncio
    import tempfile

    from repro.service import RunService, ServiceConfig
    from repro.service.loadgen import run_load

    async def drive():
        with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as tmp:
            service = RunService(ServiceConfig(
                store_dir=Path(tmp) / "store",
                workers=workers,
                queue_limit=max(4096, tenants),
                tenant_quota=max(64, tenants),
                source_digest=SERVICE_SOURCE_DIGEST,
            ))
            host, port = await service.start()
            try:
                # Phase 1 (cold): one tenant populates the store.
                cold = await run_load(
                    host, port, tenants=1, connections=1, scenario="tiny",
                )
                if service._journal is not None:
                    # Flush cold-phase stragglers (complete/land records
                    # are appended after the client is answered) so the
                    # warm-phase delta measures the warm storm alone.
                    await service._journal.commit()
                    warm_journal_before = dict(service._journal.stats)
                else:
                    warm_journal_before = None
                # Phase 2 (warm storm): every tenant submits the now-cached
                # scenario; the service must answer all of it from the store.
                warm = await run_load(
                    host, port, tenants=tenants, connections=connections,
                    scenario="tiny",
                )
                if service._journal is not None:
                    await service._journal.commit()  # settle any stragglers
                    journal = {
                        "enabled": True,
                        "stats": dict(service._journal.stats),
                        "warm_records": (
                            service._journal.stats["records"]
                            - warm_journal_before["records"]
                        ),
                        "warm_fsync_batches": (
                            service._journal.stats["fsync_batches"]
                            - warm_journal_before["fsync_batches"]
                        ),
                    }
                else:
                    journal = {"enabled": False}
                # Phase 3 (dedup storm): concurrent identical *fresh*
                # submissions (a seed nobody has computed) must coalesce
                # onto exactly one computation.
                dedup = await run_load(
                    host, port,
                    tenants=min(SERVICE_DEDUP_TENANTS, tenants),
                    connections=connections,
                    scenario="tiny", seed=990_001,
                )
                verify = service.store.verify()
            finally:
                await service.stop()
            return cold, warm, dedup, verify, journal

    return asyncio.run(drive())


def _service_main(args, rounds: int, scale: float) -> int:
    tenants = max(2, int(SERVICE_TENANTS * scale))
    connections = min(SERVICE_CONNECTIONS, tenants)

    baseline = {}
    if args.service_baseline.exists():
        with open(args.service_baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)

    cold, warm, dedup, verify, journal = run_service_bench(
        tenants, connections
    )

    latency_ms = {k: v * 1e3 for k, v in warm["latency"].items()}
    gated = not args.smoke and scale == 1.0

    # Correctness gates hold at every scale: a service that recomputes
    # cached work or loses requests is wrong, not slow.
    gate_failures = []
    if verify:
        gate_failures.append(
            f"store verify found {len(verify)} problem(s) after load"
        )
    for phase_name, phase in (("cold", cold), ("warm", warm),
                              ("dedup", dedup)):
        if phase["requests_failed"]:
            gate_failures.append(
                f"{phase_name} phase: {phase['requests_failed']} of "
                f"{phase['requests']} request(s) failed"
            )
    if warm["hit_ratio"] != 1.0:
        ratio = warm["hit_ratio"]
        gate_failures.append(
            f"warm storm hit ratio {ratio:.1%}, expected 100%"
        )
    computed = dedup["server_delta"].get("computed", 0)
    if computed != 1:
        gate_failures.append(
            f"dedup storm ran {computed} computation(s), expected exactly 1"
        )
    # Durability must be on and free on the warm path: the bench service
    # runs with the journal enabled, yet warm-only jobs append nothing,
    # so the 100%-hit storm performs zero journal writes or fsyncs.
    if not journal.get("enabled"):
        gate_failures.append(
            "service bench ran without the write-ahead journal"
        )
    elif journal["warm_records"] != 0:
        gate_failures.append(
            f"warm storm appended {journal['warm_records']} journal "
            f"record(s) ({journal['warm_fsync_batches']} fsync batch(es)); "
            f"the warm path must stay journal-free"
        )
    regressions = compare(
        {"p50_ms": latency_ms["p50"], "p99_ms": latency_ms["p99"]},
        baseline.get("reference_ms"), args.service_tolerance,
    ) if gated else {}

    report = {
        "tier": "service",
        "scale": scale,
        "smoke": args.smoke,
        "tenants": tenants,
        "connections": connections,
        "workers": SERVICE_WORKERS,
        "cold": cold,
        "warm": warm,
        "dedup": dedup,
        "latency_ms": latency_ms,
        "throughput_rps": warm["throughput_rps"],
        "hit_ratio": warm["hit_ratio"],
        "journal": journal,
        "store_verify_problems": len(verify),
        "baseline_reference_ms": baseline.get("reference_ms"),
        "tolerance": args.service_tolerance,
        "regressions": regressions,
        "gate_failures": gate_failures,
        "ok": not regressions and not gate_failures,
    }
    args.service_output.parent.mkdir(parents=True, exist_ok=True)
    with open(args.service_output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    print(f"service tier: {tenants} tenant(s) over {connections} "
          f"connection(s), {SERVICE_WORKERS} worker(s)")
    print(f"warm storm : {warm['requests']} requests, "
          f"{warm['throughput_rps']:8.0f} req/s, "
          f"p50 {latency_ms['p50']:6.2f} ms, p99 {latency_ms['p99']:6.2f} ms, "
          f"hit ratio {warm['hit_ratio']:.0%}")
    print(f"dedup storm: {dedup['requests']} concurrent identical "
          f"submissions -> {computed} computation(s), "
          f"{dedup['server_delta'].get('coalesced', 0)} coalesced, "
          f"{dedup['server_delta'].get('warm_hits', 0)} warm")
    if journal.get("enabled"):
        print(f"journal    : {journal['stats']['records']} record(s), "
              f"{journal['stats']['fsync_batches']} fsync batch(es) total; "
              f"warm storm appended {journal['warm_records']}")
    for name, row in regressions.items():
        print(f"{name}: REGRESSED {row['slowdown']:.2f}x "
              f"({row['current']:.2f} vs {row['reference']:.2f} ms)")
    print(f"report written to {args.service_output}")
    for failure in gate_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if regressions:
        print(f"FAIL: {len(regressions)} latency percentile(s) regressed "
              f"more than {args.service_tolerance:.0%}", file=sys.stderr)
    return 1 if (regressions or gate_failures) else 0


# -- harness -----------------------------------------------------------------

def run_benchmarks(
    rounds: int = 5, scale: float = 1.0
) -> Dict[str, Dict[str, float]]:
    """Time each benchmark over ``rounds`` runs.

    Returns ``{name: {"median": s, "min": s}}``.  The median is the headline
    statistic; the *min* feeds the regression gate because it is the least
    noise-contaminated estimator of true cost on a shared host (scheduler
    preemption only ever adds time).  The collector is paused during each
    timed run (and run between them): on this scale, cyclic-GC pauses
    triggered by allocation counts dominate run-to-run variance and would
    gate on collector luck, not engine speed.
    """
    stats: Dict[str, Dict[str, float]] = {}
    gc_was_enabled = gc.isenabled()
    try:
        for name, fn in BENCHMARKS.items():
            for _ in range(3):  # warmup: imports, allocator arenas, caches
                fn(scale)
            times = []
            for _ in range(rounds):
                gc.collect()
                gc.disable()
                start = time.perf_counter()
                fn(scale)
                times.append(time.perf_counter() - start)
                gc.enable()
            stats[name] = {"median": statistics.median(times), "min": min(times)}
    finally:
        if gc_was_enabled:
            gc.enable()
    return stats


def compare(
    current: Dict[str, float],
    reference: Optional[Dict[str, float]],
    tolerance: float,
) -> Dict[str, Dict[str, float]]:
    """Benchmarks whose current stat exceeds reference * (1 + tolerance)."""
    if not reference:
        return {}
    regressions = {}
    for name, cur in current.items():
        ref = reference.get(name)
        if ref is not None and cur > ref * (1.0 + tolerance):
            regressions[name] = {"current": cur, "reference": ref,
                                 "slowdown": cur / ref}
    return regressions


def speedups(
    current: Dict[str, float], seed: Optional[Dict[str, float]]
) -> Dict[str, float]:
    if not seed:
        return {}
    return {
        name: seed[name] / cur
        for name, cur in current.items()
        if name in seed and cur > 0
    }


BASELINE_REF = "bench/baseline"
REPORT_REF = "bench/latest"


def load_baseline(path: Path, store_dir: Optional[Path]) -> Dict:
    """Resolve the baseline: run store first, committed file as fallback.

    With ``--store``, the gate reads its reference timings from the
    content-addressed run store (ref ``bench/baseline``).  A store that
    does not hold one yet is seeded from the committed baseline file --
    the one-shot migration -- so subsequent invocations are pure store
    reads and the baseline is addressable/diffable like every other
    artifact (``repro-io store show bench/baseline``).
    """
    if store_dir is not None:
        from repro.store import RunArtifact, RunStore, StoreError

        store = RunStore(store_dir)
        try:
            entry = store.get_ref(BASELINE_REF)
            if entry is not None:
                return dict(store.get(entry["digest"]).payload)
        except StoreError as exc:
            print(f"store baseline unreadable ({exc}); falling back to file",
                  file=sys.stderr)
        if path.exists():
            with open(path, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
            digest = store.put(RunArtifact.from_bench(baseline))
            store.set_ref(BASELINE_REF, digest,
                          meta={"source": str(path)})
            return baseline
        return {}
    if path.exists():
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return {}


def _kernel_main(args, rounds: int, scale: float) -> int:
    baseline = load_baseline(args.baseline, args.store)

    stats = run_benchmarks(rounds=rounds, scale=scale)
    medians = {name: s["median"] for name, s in stats.items()}
    mins = {name: s["min"] for name, s in stats.items()}
    gated = not args.smoke and scale == 1.0
    regressions = compare(mins, baseline.get("reference_min"), args.tolerance) \
        if gated else {}
    vs_seed = speedups(medians, baseline.get("seed")) if gated else {}

    report = {
        "rounds": rounds,
        "scale": scale,
        "smoke": args.smoke,
        "median_seconds": medians,
        "min_seconds": mins,
        "baseline_seed_seconds": baseline.get("seed"),
        "baseline_reference_seconds": baseline.get("reference"),
        "baseline_reference_min_seconds": baseline.get("reference_min"),
        "speedup_vs_seed": vs_seed,
        "tolerance": args.tolerance,
        "regressions": regressions,
        "ok": not regressions,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    if args.store is not None:
        from repro.store import RunArtifact, RunStore

        store = RunStore(args.store)
        digest = store.put(RunArtifact.from_bench(report))
        store.set_ref(REPORT_REF, digest, meta={"smoke": args.smoke})
        print(f"report stored as {digest[:12]} ({REPORT_REF})")

    width = max(len(n) for n in medians)
    for name, cur in medians.items():
        line = f"{name:<{width}}  {cur * 1e3:8.3f} ms"
        if name in vs_seed:
            line += f"  ({vs_seed[name]:4.2f}x vs seed)"
        if name in regressions:
            line += f"  REGRESSED {regressions[name]['slowdown']:.2f}x"
        print(line)
    print(f"report written to {args.output}")
    if regressions:
        print(f"FAIL: {len(regressions)} benchmark(s) regressed more than "
              f"{args.tolerance:.0%}", file=sys.stderr)
        return 1
    return 0


def _scale_main(args, rounds: int, scale: float) -> int:
    baseline = {}
    if args.scale_baseline.exists():
        with open(args.scale_baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)

    config = scale_config(scale)
    arms = run_scale_arms(rounds, scale)
    crossover = run_crossover_sweep(scale, arms)

    digests = {a["digest"] for a in arms.values()}
    medians = {name: a["median"] for name, a in arms.items()}
    mins = {name: a["min"] for name, a in arms.items()}
    seq = mins["sequential_fast_path"]
    speedup_vs_sequential = {
        name: seq / t for name, t in mins.items() if t > 0
    }

    gated = not args.smoke and scale == 1.0
    regressions = compare(mins, baseline.get("reference_min"),
                          args.scale_tolerance) if gated else {}
    gate_failures = []
    if len(digests) != 1:
        # Equivalence is non-negotiable at any scale: a parallel engine
        # that returns different answers is wrong, not slow.
        gate_failures.append(
            f"engine arms disagree: {len(digests)} distinct digests"
        )
    if gated:
        speedup = speedup_vs_sequential.get("partitioned_serial", 0.0)
        if speedup < SCALE_MIN_SPEEDUP:
            gate_failures.append(
                f"partitioned_serial speedup {speedup:.2f}x is below "
                f"the required {SCALE_MIN_SPEEDUP:.1f}x"
            )

    report = {
        "tier": "scale",
        "rounds": rounds,
        "scale": scale,
        "smoke": args.smoke,
        "config": {
            "ranks": config.ranks,
            "islands": config.islands,
            "rounds": config.rounds,
            "seed": config.seed,
        },
        "arms": arms,
        "digest": next(iter(digests)) if len(digests) == 1 else None,
        "median_seconds": medians,
        "min_seconds": mins,
        "speedup_vs_sequential": speedup_vs_sequential,
        "crossover": crossover,
        "baseline_reference_min_seconds": baseline.get("reference_min"),
        "tolerance": args.scale_tolerance,
        "regressions": regressions,
        "gate_failures": gate_failures,
        "ok": not regressions and not gate_failures,
    }
    args.scale_output.parent.mkdir(parents=True, exist_ok=True)
    with open(args.scale_output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    width = max(len(n) for n in mins)
    print(f"scale tier: {config.ranks} ranks x {config.islands} islands "
          f"x {config.rounds} rounds "
          f"({arms['sequential_fast_path']['events']} sequential events)")
    for name, cur in mins.items():
        line = f"{name:<{width}}  {cur * 1e3:10.3f} ms"
        if name != "sequential_fast_path":
            line += f"  ({speedup_vs_sequential[name]:7.2f}x vs sequential)"
        if name in regressions:
            line += f"  REGRESSED {regressions[name]['slowdown']:.2f}x"
        print(line)
    ranks = crossover["crossover_ranks"]
    print("crossover: "
          + (f"partitioned wins from {ranks} ranks" if ranks
             else "sequential fast path wins everywhere swept"))
    print(f"report written to {args.scale_output}")
    for failure in gate_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if regressions:
        print(f"FAIL: {len(regressions)} scale arm(s) regressed more than "
              f"{args.scale_tolerance:.0%}", file=sys.stderr)
    return 1 if (regressions or gate_failures) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier", choices=("kernel", "scale", "service",
                                           "all"),
                        default="kernel",
                        help="which benchmark tier(s) to run")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timing rounds per benchmark (median is kept)")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload size multiplier (default 1.0; "
                        "--smoke defaults it to 0.02 instead)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="kernel tier: allowed slowdown vs the reference "
                        "(0.25 = 25%%)")
    parser.add_argument("--scale-tolerance", type=float, default=1.0,
                        help="scale tier: allowed slowdown vs the reference. "
                        "Looser than the kernel gate by design: wall times "
                        "on this tier swing ~1.5x with host load, so the "
                        "absolute-time gate only catches order-of-magnitude "
                        "regressions (a cohort arm falling back to scalar is "
                        "~600x); the digest-equality and minimum-speedup "
                        "gates are noise-immune and stay strict")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument("--output", type=Path, default=OUTPUT_PATH)
    parser.add_argument("--scale-baseline", type=Path,
                        default=SCALE_BASELINE_PATH,
                        help="committed reference timings for the scale tier")
    parser.add_argument("--scale-output", type=Path, default=SCALE_OUTPUT_PATH,
                        help="scale-tier report path")
    parser.add_argument("--service-baseline", type=Path,
                        default=SERVICE_BASELINE_PATH,
                        help="committed reference latencies for the "
                        "service tier")
    parser.add_argument("--service-output", type=Path,
                        default=SERVICE_OUTPUT_PATH,
                        help="service-tier report path")
    parser.add_argument("--service-tolerance", type=float, default=1.5,
                        help="service tier: allowed p50/p99 slowdown vs the "
                        "reference.  Loose by design -- warm-path latencies "
                        "are sub-millisecond and swing with host load; the "
                        "hit-ratio and compute-exactly-once gates are "
                        "noise-immune and stay strict")
    parser.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="read the kernel baseline from (and record the report into) "
        "the content-addressed run store rooted here, seeding it from "
        "--baseline on first use (e.g. results/store)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads, 1 round, no pass/fail gate")
    args = parser.parse_args(argv)

    rounds, scale = args.rounds, args.scale
    if args.smoke:
        rounds = 1
        if scale is None:
            scale = 0.02
    elif scale is None:
        scale = 1.0

    rc = 0
    if args.tier in ("kernel", "all"):
        rc |= _kernel_main(args, rounds, scale)
    if args.tier in ("scale", "all"):
        rc |= _scale_main(args, rounds, scale)
    if args.tier in ("service", "all"):
        rc |= _service_main(args, rounds, scale)
    return rc


if __name__ == "__main__":
    sys.exit(main())
