"""service-warm and service-mixed: open-loop tenants against a fresh server.

Every run boots its own server (``serverboot.py`` -> ``repro-io serve``)
on a fresh store with one pool worker, lands the ``tiny`` scenario at the
benchmark seed during set-up, and then drives it from this one process
over at most ``nproc`` connections:

* a fixed-rate window: Poisson arrivals at :data:`FIXED_RATE`, each
  request timed from when it was due, not when it was sent;
* a rate ladder (doubling, then bisection) that finds the highest rate
  whose p99 latency stays within :data:`LATENCY_LIMIT_S` -- a backlog
  that grows shows up there, because latency counts from the due time.

``service-warm`` submits only the pre-landed scenario (warm hits).
``service-mixed`` makes every tenth request a seed nobody has computed.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import layers
from common import (
    OUT,
    ROOT,
    Checks,
    bench_env,
    children,
    cpu_seconds,
    peak_rss_mb,
    quantile,
    segment_tails,
)

FIXED_RATE = {"service-warm": 400.0, "service-mixed": 200.0}
#: Ladder pass rule: p99 latency (from due time) within this limit.
LATENCY_LIMIT_S = 0.1
#: Share of the measurement window spent at the fixed rate.
FIXED_SHARE = 0.5
LADDER_STEP_S = 1.0
FRESH_EVERY = 10
SCENARIO = "tiny"
#: Landed results re-simulated in process after the load (mixed).
VERIFY_SAMPLE = 8
BOOT_TIMEOUT_S = 60.0


def _connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


class Server:
    """One fresh ``repro-io serve`` process on its own store."""

    def __init__(self, root: Path, trace_dir: Optional[Path] = None):
        self.root = root
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve().parent
                                   / "serverboot.py")]
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["--", "serve", "--host", "127.0.0.1", "--port", "0",
                "--workers", "1", "--store-dir", str(root / "store")]
        start = time.perf_counter()
        self.log = open(root / "server.log", "w")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=bench_env(),
                                     stdout=self.log, stderr=subprocess.STDOUT)
        discovery = root / "service.json"
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited ({self.proc.returncode}); see "
                    f"{root / 'server.log'}")
            if time.perf_counter() - start > BOOT_TIMEOUT_S:
                self.kill()
                raise RuntimeError("server did not start")
            try:
                doc = json.loads(discovery.read_text())
                if doc.get("pid") == self.proc.pid:
                    break
            except (OSError, ValueError):
                pass
            time.sleep(0.01)
        self.host, self.port = doc["host"], doc["port"]
        self.stats()  # answers requests
        self.boot_s = time.perf_counter() - start

    def request(self, op: str, **params) -> Dict[str, Any]:
        from repro.service import ServiceClient

        async def go():
            client = await ServiceClient.connect(self.host, self.port)
            try:
                return await client.request(op, **params)
            finally:
                await client.close()
        return asyncio.run(go())

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def rss_mb(self) -> float:
        pids = [self.proc.pid] + children(self.proc.pid)
        return sum(peak_rss_mb(pid) for pid in pids)

    def cpu_s(self) -> float:
        return sum(cpu_seconds(pid)
                   for pid in [self.proc.pid] + children(self.proc.pid))

    def shutdown(self) -> None:
        if self.proc.poll() is None:
            try:
                self.request("shutdown")
                self.proc.wait(timeout=30)
            except (OSError, ConnectionError, subprocess.TimeoutExpired):
                self.kill()
        self.log.close()

    def kill(self) -> None:
        kids = children(self.proc.pid) if self.proc.poll() is None else []
        self.proc.kill()
        self.proc.wait(timeout=30)
        for pid in kids:
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass


class Ctx:
    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.rate = FIXED_RATE[workload] / (4.0 if smoke else 1.0)
        self.mixed = workload == "service-mixed"
        self.rng = random.Random(seed)
        self.next_fresh = 0
        #: Requests sent so far; every request is its own tenant.
        self.sent = 0
        self.servers: List[Server] = []
        self.first_compute_s = 0.0

    def fresh_seed(self) -> int:
        """A seed no earlier request (or the set-up) has used."""
        self.next_fresh += 1
        return 1_000_000 + self.seed * 100_000 + self.next_fresh

    def boot(self, trace_dir: Optional[Path] = None) -> Server:
        root = OUT / f"svc-{os.getpid()}-{len(self.servers)}"
        server = Server(root, trace_dir)
        self.servers.append(server)
        start = time.perf_counter()
        doc = server.request("submit", scenario=SCENARIO, seed=self.seed,
                             tenant="setup", wait=True)
        self.first_compute_s = time.perf_counter() - start
        if not doc.get("ok"):
            raise RuntimeError(f"set-up submission failed: {doc}")
        # Let the set-up job's journal records reach disk (group commit)
        # so the measured window starts from a quiet journal.
        last = None
        for _ in range(100):
            journal = server.stats().get("journal")
            if journal == last:
                break
            last = journal
            time.sleep(0.1)
        return server


def prepare(workload: str, seed: int, smoke: bool) -> Ctx:
    from repro.service import ServiceClient  # noqa: F401  (client import is set-up)

    ctx = Ctx(workload, seed, smoke)
    ctx.server = ctx.boot()
    return ctx


def close(ctx: Ctx) -> None:
    for server in ctx.servers:
        server.shutdown()
        shutil.rmtree(server.root, ignore_errors=True)


# -- open loop -------------------------------------------------------------------

def schedule(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """Poisson arrival offsets (s) within ``seconds``."""
    out, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return out
        out.append(t)


def open_loop(ctx: Ctx, server: Server, offsets: List[float]) -> Dict[str, Any]:
    """Send one request per offset, on time, whatever is outstanding."""
    from repro.service import ServiceClient

    requests = []
    for i in range(len(offsets)):
        fresh = ctx.mixed and i % FRESH_EVERY == FRESH_EVERY - 1
        tenant = f"t{ctx.seed}-{ctx.sent}"
        ctx.sent += 1
        requests.append((ctx.fresh_seed() if fresh else ctx.seed, fresh,
                         tenant))

    async def go():
        clients = [await ServiceClient.connect(server.host, server.port)
                   for _ in range(_connections())]
        results: List[Optional[tuple]] = [None] * len(offsets)
        state = {"outstanding": 0, "backlog_max": 0}
        perf = time.perf_counter

        async def one(i: int, due: float) -> None:
            seed, fresh, tenant = requests[i]
            sent = perf()
            try:
                doc = await clients[i % len(clients)].submit(
                    SCENARIO, seed=seed, tenant=tenant, wait=True)
            except ConnectionError as exc:
                doc = {"ok": False, "error": str(exc)}
            results[i] = (due, sent, perf(), doc, seed, fresh)
            state["outstanding"] -= 1

        tasks = []
        start = perf() + 0.01
        for i, offset in enumerate(offsets):
            due = start + offset
            delay = due - perf()
            await asyncio.sleep(delay if delay > 0 else 0)
            state["outstanding"] += 1
            state["backlog_max"] = max(state["backlog_max"],
                                       state["outstanding"])
            tasks.append(asyncio.create_task(one(i, due)))
        await asyncio.gather(*tasks)
        for client in clients:
            await client.close()
        return results, state["backlog_max"], perf() - start

    results, backlog_max, wall = asyncio.run(go())
    return {"results": results, "backlog_max": backlog_max, "wall": wall}


def _ok(doc: Dict[str, Any], fresh: bool) -> bool:
    if not doc.get("ok") or doc.get("total") != 1:
        return False
    return doc.get("warm") == (0 if fresh else 1)


def latencies(run: Dict[str, Any]) -> List[float]:
    return [done - due for due, _s, done, _d, _seed, _f in run["results"]]


def window_stats(run: Dict[str, Any]) -> Dict[str, Any]:
    res = run["results"]
    lat = latencies(run)
    late = [sent - due for due, sent, *_ in res]
    third = max(1, len(lat) // 3)
    fresh = [done - due for due, _s, done, _d, _seed, f in res if f]
    return {
        "n": len(lat),
        "p50_s": statistics.median(lat),
        "segment_tails_ms": [t * 1000.0 for t in segment_tails(lat)],
        "late_p99_ms": quantile(late, 0.99) * 1000.0,
        "late_max_ms": max(late) * 1000.0,
        "backlog_max": run["backlog_max"],
        "p50_drift": statistics.median(lat[-third:])
        / statistics.median(lat[:third]),
        "fresh_p50_ms": statistics.median(fresh) * 1000.0 if fresh else 0.0,
        "achieved_per_s": len(lat) / run["wall"],
    }


def ladder(ctx: Ctx, server: Server, seconds: float) -> Dict:
    """Doubling then bisection over offered rates within ``seconds``.

    A failed step is tried once more before its rate counts as failed, so
    one stall on a shared host does not end the climb."""
    steps = []
    lo, hi, rate = 0.0, None, ctx.rate
    retry = False
    budget_end = time.perf_counter() + seconds
    while time.perf_counter() + LADDER_STEP_S <= budget_end or not steps:
        run = open_loop(ctx, server, schedule(ctx.rng, rate, LADDER_STEP_S))
        ctx.ladder_runs.append(run)
        bad = sum(1 for *_, doc, _seed, fresh in run["results"]
                  if not _ok(doc, fresh))
        p99 = quantile(latencies(run), 0.99)
        passed = bad == 0 and p99 <= LATENCY_LIMIT_S
        steps.append({"rate": rate, "n": len(run["results"]),
                      "p99_ms": p99 * 1000.0, "failed": bad,
                      "passed": passed})
        if not passed and not retry:
            retry = True
            continue
        retry = False
        if passed:
            lo = rate
            rate = rate * 2.0 if hi is None else (lo + hi) / 2.0
        else:
            hi = rate
            rate = (lo + hi) / 2.0
    return {"capacity_per_s": interpolate_capacity(steps), "steps": steps}


def interpolate_capacity(steps: List[Dict[str, Any]]) -> float:
    """The rate at which p99 crosses the limit, interpolated (log latency,
    log rate) between the highest passing rate and the lowest failing rate
    above it; the highest passing rate when none failed above it."""
    best: Dict[float, Dict[str, Any]] = {}
    for step in steps:  # a retried rate keeps its better attempt
        if step["rate"] not in best or step["p99_ms"] < best[step["rate"]]["p99_ms"]:
            best[step["rate"]] = step
    passed = [s for s in best.values() if s["passed"]]
    if not passed:
        return min(best) / 2.0
    lo = max(passed, key=lambda s: s["rate"])
    above = [s for s in best.values() if not s["passed"] and s["rate"] > lo["rate"]]
    if not above:
        return lo["rate"]
    hi = min(above, key=lambda s: s["rate"])
    limit = LATENCY_LIMIT_S * 1000.0
    if hi["p99_ms"] <= limit or lo["p99_ms"] <= 0:
        return lo["rate"]  # failed on errors, not latency
    frac = math.log(limit / lo["p99_ms"]) / math.log(hi["p99_ms"] / lo["p99_ms"])
    return lo["rate"] * (hi["rate"] / lo["rate"]) ** frac


# -- measurement ---------------------------------------------------------------------

def _window(ctx: Ctx, server: Server, seconds: float) -> Dict[str, Any]:
    before = server.stats()
    cpu0 = server.cpu_s()
    run = open_loop(ctx, server, schedule(ctx.rng, ctx.rate, seconds))
    after = server.stats()
    run["cpu_s"] = server.cpu_s() - cpu0
    run["before"], run["after"] = before, after
    return run


def _delta(run, key: str) -> int:
    return run["after"]["stats"][key] - run["before"]["stats"][key]


def _journal_delta(run, key: str) -> int:
    a = (run["after"].get("journal") or {}).get(key, 0)
    b = (run["before"].get("journal") or {}).get(key, 0)
    return a - b


def check_window(ctx: Ctx, run: Dict[str, Any], checks: Checks) -> int:
    failed = 0
    fresh_n = 0
    for due, sent, done, doc, seed, fresh in run["results"]:
        fresh_n += fresh
        if not checks.check("responses_ok", _ok(doc, fresh),
                            json.dumps(doc)[:300]):
            failed += 1
    warm_n = len(run["results"]) - fresh_n
    if not checks.check("warm_hits_equal_requests",
                        _delta(run, "warm_hits") == warm_n,
                        f"{_delta(run, 'warm_hits')} != {warm_n}"):
        failed += 1
    if ctx.mixed:
        if not checks.check("fresh_computed_once",
                            _delta(run, "computed") == fresh_n,
                            f"{_delta(run, 'computed')} != {fresh_n}"):
            failed += 1
    elif not checks.check("warm_window_no_journal_records",
                          _journal_delta(run, "records") == 0,
                          f"{_journal_delta(run, 'records')} records"):
        failed += 1
    return failed


def verify_store(ctx: Ctx, server: Server, runs, checks: Checks,
                 counting: Optional[layers.Tracer] = None) -> int:
    """Untimed: store integrity, and landed results equal to in-process
    re-simulation of a sample of fresh specs."""
    from repro.scenario import get_scenario
    from repro.scenario.sweep import point_ref_name
    from repro.store import RunStore

    failed = 0
    store = RunStore(server.root / "store")
    problems = store.verify()
    ctx.verify_problems = len(problems)
    if not checks.check("store_verify_clean", not problems,
                        json.dumps(problems)[:300]):
        failed += 1
    source = server.stats()["source_digest"]
    seeds = [seed for run in runs for *_x, seed, fresh in run["results"]
             if fresh]
    sample = seeds if counting is not None else \
        ctx.rng.sample(seeds, min(VERIFY_SAMPLE, len(seeds)))
    if counting is not None:
        layers.install(counting, experiments=False)
    try:
        for seed in [ctx.seed] + sample:
            spec = get_scenario(SCENARIO, seed=seed)
            # Looked up per call: tracing rebinds the module's names.
            build = importlib.import_module("repro.scenario.build")
            want = json.dumps(build.run_scenario(spec).to_dict(),
                              sort_keys=True)
            ref = store.get_ref(point_ref_name(spec.digest(), source))
            got = None if ref is None else json.dumps(
                store.get(ref["digest"]).payload, sort_keys=True)
            if not checks.check("landed_equals_in_process", got == want,
                                f"seed {seed}"):
                failed += 1
    finally:
        if counting is not None:
            counting.uninstall()
    return failed


def measure(ctx: Ctx, seconds: float, trace: bool) -> Dict[str, Any]:
    names = ["responses_ok", "warm_hits_equal_requests",
             "fresh_computed_once" if ctx.mixed
             else "warm_window_no_journal_records"]
    if ctx.mixed or trace:
        names += ["store_verify_clean", "landed_equals_in_process"]
    checks = Checks(*names)
    ctx.ladder_runs = []
    server = ctx.server
    out: Dict[str, Any] = {"checks": checks}
    fixed_s = seconds * FIXED_SHARE

    run = _window(ctx, server, fixed_s)
    failed = check_window(ctx, run, checks)
    attempted = len(run["results"])
    stats = window_stats(run)
    extra: Dict[str, Any] = {
        "fixed_rate_per_s": ctx.rate,
        "connections": _connections(),
        "latency_limit_ms": LATENCY_LIMIT_S * 1000.0,
        "window": stats,
        "server_boot_s": server.boot_s,
        "first_compute_s": ctx.first_compute_s,
        "jobs_retained": run["after"]["jobs"],
        "service_cpu_s": run["cpu_s"],
    }
    if not trace:
        lad = ladder(ctx, server, seconds - fixed_s)
        extra["ladder"] = lad["steps"]
        capacity = lad["capacity_per_s"]
        for lrun in ctx.ladder_runs:
            attempted += len(lrun["results"])
            failed += sum(1 for *_, doc, _seed, fresh in lrun["results"]
                          if not _ok(doc, fresh))
        out["other_rss_mb"] = server.rss_mb()
        if ctx.mixed:
            failed += verify_store(ctx, server, [run] + ctx.ladder_runs,
                                   checks)
    else:
        # Same schedule again on a traced server; the ratio of medians is
        # the tracing overhead.
        trace_dir = OUT / f"svc-trace-{os.getpid()}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        ctx.rng = random.Random(ctx.seed)
        ctx.next_fresh = ctx.sent = 0
        traced_server = ctx.boot(trace_dir)
        boot_s, first_s = traced_server.boot_s, ctx.first_compute_s
        trun = _window(ctx, traced_server, fixed_s)
        failed += check_window(ctx, trun, checks)
        attempted += len(trun["results"])
        tstats = window_stats(trun)
        out["other_rss_mb"] = traced_server.rss_mb()
        counting = layers.Tracer(timing=False) if ctx.mixed else None
        failed += verify_store(ctx, traced_server, [trun], checks, counting)
        traced_server.shutdown()
        snaps = [json.loads(p.read_text())
                 for p in sorted(trace_dir.glob("*.json"))]
        shutil.rmtree(trace_dir, ignore_errors=True)
        out["snapshots"] = snaps
        out["labels"] = {
            s["pid"]: ("server" if s["pid"] == traced_server.proc.pid
                       else "pool worker") for s in snaps}
        if counting is not None:
            out["count_snapshots"] = [counting.snapshot()]
        out["trace_overhead_ratio"] = tstats["p50_s"] / stats["p50_s"]
        out["per_layer"] = {
            "service.cpu_s": trun["cpu_s"],
            "service.warm_hits": _delta(trun, "warm_hits"),
            "service.coalesced": _delta(trun, "coalesced"),
            "service.computed": _delta(trun, "computed"),
            "service.rejected": sum(_delta(trun, k) for k in (
                "rejected_backpressure", "rejected_quota",
                "rejected_draining")),
            "service.jobs_retained": trun["after"]["jobs"],
            "service.p50_drift": tstats["p50_drift"],
            "service.fresh_p50_ms": tstats["fresh_p50_ms"],
            "journal.records": _journal_delta(trun, "records"),
            "journal.fsync_batches": _journal_delta(trun, "fsync_batches"),
            "store.verify_problems": ctx.verify_problems,
            "setup.server_boot_s": boot_s,
            "setup.first_compute_s": first_s,
            "loadgen.late_p99_ms": tstats["late_p99_ms"],
            "loadgen.sent": tstats["n"],
            "loadgen.backlog_max": tstats["backlog_max"],
            "loadgen.p99_ms": statistics.median(tstats["segment_tails_ms"]),
        }
        extra["traced_window"] = tstats
    out.update({
        "op_seconds": latencies(run),
        "attempted": attempted,
        "failed": failed,
        "ops_label": f"request at {ctx.rate:g}/s offered",
        "extra": extra,
    })
    prefix = "mixed" if ctx.mixed else "warm"
    out["named_metrics"] = {
        f"{prefix}_p50_ms": (stats["p50_s"] * 1000.0, "ms"),
        f"{prefix}_p99_ms": (statistics.median(stats["segment_tails_ms"]),
                             "ms"),
        "p50_drift": (stats["p50_drift"], "ratio"),
        "jobs_retained": (run["after"]["jobs"], "count"),
        "late_p99_ms": (stats["late_p99_ms"], "ms"),
    }
    if ctx.mixed:
        out["named_metrics"]["fresh_p50_ms"] = (stats["fresh_p50_ms"], "ms")
    if not trace:
        out["named_metrics"][f"{prefix}_capacity_rps"] = (capacity, "1/s")
    return out
