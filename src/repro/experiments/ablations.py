"""Ablations A1-A3: design-choice validations."""

from __future__ import annotations

from repro.core.experiment import ExperimentRecord
from repro.des.partition import PartitionedExecutor
from repro.des.ross import LogicalProcess, RossKernel, SequentialExecutor
from repro.monitoring import DarshanProfiler
from repro.scenario.build import build, instantiate_workloads, run_scenario
from repro.scenario.presets import get_scenario
from repro.scenario.sweep import expand_grid
from repro.wgen import synthesize_from_profile

MiB = 1024 * 1024
KiB = 1024


class _ClientLP(LogicalProcess):
    """A toy PFS client LP issuing requests to server LPs."""

    def __init__(self, lp_id, servers, n_requests):
        super().__init__(lp_id)
        self.servers = servers
        self.remaining = n_requests

    def handle(self, kernel, event):
        if event.kind in ("start", "reply") and self.remaining > 0:
            # Spread requests: different clients hit different servers in
            # each round (round-robin offset by client id).
            target = self.servers[(self.lp_id + self.remaining) % len(self.servers)]
            kernel.send(target, 1.0, "request", payload=self.lp_id)
            self.remaining -= 1

    def state_digest(self):
        return (self.lp_id, self.events_handled, self.remaining)


class _ServerLP(LogicalProcess):
    """A toy OSS LP replying to requests after a service delay."""

    def __init__(self, lp_id):
        super().__init__(lp_id)
        self.served = 0

    def handle(self, kernel, event):
        if event.kind == "request":
            self.served += 1
            kernel.send(event.payload, 2.0, "reply")

    def state_digest(self):
        return (self.lp_id, self.served)


def _build_storage_model(n_clients=24, n_servers=8, n_requests=20):
    kernel = RossKernel(lookahead=1.0)
    servers = list(range(n_clients, n_clients + n_servers))
    for cid in range(n_clients):
        kernel.add_lp(_ClientLP(cid, servers, n_requests))
    for sid in servers:
        kernel.add_lp(_ServerLP(sid))
    for cid in range(n_clients):
        kernel.inject(0.0, cid, "start")
    return kernel


def run_a1(seed: int = 0) -> ExperimentRecord:
    """A1: the conservative parallel executor is deterministic w.r.t. the
    sequential one, and the workload exposes real parallelism.

    A client/server storage model runs under both executors; final LP
    states and per-LP event traces must be identical, and the YAWNS
    windows' parallelism bound must exceed 1 (the PDES payoff CODES/ROSS
    [59], [60] exist for).
    """
    rec = ExperimentRecord(
        "A1", "conservative PDES matches sequential execution deterministically"
    )
    k_seq = _build_storage_model()
    seq_stats = SequentialExecutor(k_seq).run()
    k_par = _build_storage_model()
    par_stats = PartitionedExecutor(k_par).run()

    digests_match = k_seq.state_digests() == k_par.state_digests()
    traces_match = all(
        k_seq.lps[i].trace == k_par.lps[i].trace for i in k_seq.lps
    )
    rec.measure(
        events=seq_stats.events,
        events_parallel=par_stats.events,
        windows=par_stats.windows,
        parallelism_bound=par_stats.parallelism_bound,
        digests_match=digests_match,
        traces_match=traces_match,
    )
    rec.verdict(
        digests_match
        and traces_match
        and seq_stats.events == par_stats.events
        and par_stats.parallelism_bound > 2.0,
        "bit-identical results with >2x exploitable parallelism",
    )
    return rec


def run_a2(seed: int = 0) -> ExperimentRecord:
    """A2: profile-synthesized workloads approximate the original
    (the IOWA [20] Darshan-synthesis technique).

    An IOR run (scenario ``a2-ior``) is profiled; the synthesized workload
    must reproduce the byte volumes exactly and the runtime within a
    factor, despite seeing only counters (no trace).
    """
    rec = ExperimentRecord(
        "A2", "workloads synthesized from profiles approximate the original"
    )
    spec = get_scenario("a2-ior", seed)
    harness = build(spec)
    profiler = DarshanProfiler(job_name="a2")
    (_, w), = instantiate_workloads(spec)
    original = harness.run(w, observers=[profiler])
    profile = profiler.profile(n_ranks=4)

    synth = synthesize_from_profile(profile, seed=seed, include_think_time=False)
    replayed = build(spec).run(synth)

    duration_ratio = replayed.duration / original.duration
    rec.measure(
        original_seconds=original.duration,
        synthesized_seconds=replayed.duration,
        duration_ratio=duration_ratio,
        bytes_written_match=replayed.bytes_written == original.bytes_written,
        bytes_read_match=replayed.bytes_read == original.bytes_read,
    )
    rec.verdict(
        replayed.bytes_written == original.bytes_written
        and replayed.bytes_read == original.bytes_read
        and 1 / 3 < duration_ratio < 3,
        "volumes exact; runtime within 3x from counters alone",
    )
    return rec


def run_a4(seed: int = 0) -> ExperimentRecord:
    """A4: the Time Warp optimistic executor commits exactly the sequential
    schedule, with measurable speculation overheads.

    ROSS [60] is a Time Warp system; this ablation validates our optimistic
    executor against the sequential reference on the client/server storage
    model and reports the classic health metrics (rollbacks, anti-messages,
    efficiency) that optimistic PDES tuning revolves around.
    """
    from repro.des.optimistic import OptimisticExecutor

    rec = ExperimentRecord(
        "A4", "optimistic (Time Warp) execution matches sequential results"
    )

    class _CyclicLP(LogicalProcess):
        """A ring model with staggered phases: guaranteed stragglers."""

        def __init__(self, lp_id, n, rounds):
            super().__init__(lp_id)
            self.n = n
            self.rounds = rounds
            self.total = 0

        def handle(self, kernel, event):
            self.total += event.payload or 0
            if event.kind == "tick" and self.rounds > 0:
                self.rounds -= 1
                kernel.send((self.lp_id + 1) % self.n, 1.0, "add",
                            payload=self.lp_id + 1)
                kernel.send((self.lp_id + 2) % self.n, 1.1, "add",
                            payload=self.lp_id + 1)
                kernel.send(self.lp_id, 3.0, "tick", payload=0)

        def state_digest(self):
            return (self.lp_id, self.events_handled, self.total, self.rounds)

    def build_cyclic(n=8, rounds=8):
        k = RossKernel(lookahead=0.0)
        for i in range(n):
            k.add_lp(_CyclicLP(i, n, rounds))
        for i in range(n):
            k.inject(0.1 * i, i, "tick", payload=0)
        return k

    k_seq = build_cyclic()
    seq_stats = SequentialExecutor(k_seq).run()
    k_opt = build_cyclic()
    opt_stats = OptimisticExecutor(k_opt, batch=16).run()

    digests_match = k_seq.state_digests() == k_opt.state_digests()
    traces_match = all(
        k_seq.lps[i].trace == k_opt.lps[i].trace for i in k_seq.lps
    )
    rec.measure(
        committed=opt_stats.events_committed,
        sequential_events=seq_stats.events,
        rollbacks=opt_stats.rollbacks,
        anti_messages=opt_stats.anti_messages,
        efficiency=opt_stats.efficiency,
        digests_match=digests_match,
        traces_match=traces_match,
    )
    rec.verdict(
        digests_match
        and traces_match
        and opt_stats.events_committed == seq_stats.events
        and opt_stats.rollbacks > 0
        and 0.0 < opt_stats.efficiency <= 1.0,
        "speculation happened (rollbacks observed) yet the committed "
        "schedule is identical to sequential execution",
    )
    return rec


def run_a5(seed: int = 0) -> ExperimentRecord:
    """A5: the client write-back cache coalesces small writes.

    Many small strided writes followed by a close are issued twice: with
    write-through (every 64 KiB write pays the full RPC + device path) and
    with a write-back cache (writes absorb at memory speed; close flushes
    one coalesced streaming write) on the platform-only scenario
    ``a5-client``.  The cached run must be substantially faster with
    identical durable bytes -- the client-side analogue of the
    two-phase-I/O coalescing claim.
    """
    rec = ExperimentRecord(
        "A5", "client write-back caching coalesces small writes"
    )
    KiB = 1024
    # Tiny log-style appends: the per-RPC overhead (fabric latency, server
    # service time) dominates write-through; coalescing eliminates it.
    n_writes = 256
    piece = 4 * KiB

    def run_mode(write_cache):
        harness = build(get_scenario("a5-client", seed))
        platform, pfs = harness.platform, harness.pfs
        client = pfs.client("c0", write_cache_bytes=write_cache)
        done = {}

        def app(env):
            yield from client.create("/small", stripe_count=1)
            for i in range(n_writes):
                yield from client.write("/small", i * piece, piece)
            yield from client.close("/small")
            done["t"] = env.now

        platform.env.process(app(platform.env))
        platform.env.run()
        return done["t"], pfs.total_bytes_written(), client.stats

    t_through, bytes_through, _ = run_mode(0)
    t_cached, bytes_cached, stats = run_mode(32 * MiB)
    speedup = t_through / t_cached
    rec.measure(
        write_through_seconds=t_through,
        write_back_seconds=t_cached,
        speedup=speedup,
        buffered_writes=stats.buffered_writes,
        flushes=stats.flushes,
        bytes_match=bytes_through == bytes_cached == n_writes * piece,
    )
    rec.verdict(
        speedup > 1.5 and bytes_through == bytes_cached,
        "small writes absorbed at memory speed, flushed as one stream",
    )
    return rec


def run_a3(seed: int = 0) -> ExperimentRecord:
    """A3: the classic striping / transfer-size response surface.

    IOR bandwidth must increase with stripe width (parallelism across
    OSTs) and with transfer size (seek amortisation) -- the sanity surface
    every parallel file system paper sweeps, here declared as a grid over
    the ``a3-ior`` base scenario.
    """
    rec = ExperimentRecord(
        "A3", "bandwidth grows with stripe width and transfer size"
    )
    grid = {"stripe_count": (1, 2, 4), "transfer_size": (128 * KiB, MiB)}
    results = {}
    for point in expand_grid(get_scenario("a3-ior", seed), grid):
        r = run_scenario(point.scenario).results[0]
        key = (point.overrides["stripe_count"], point.overrides["transfer_size"])
        results[key] = r.write_bandwidth

    stripes_help = all(
        results[(2, t)] > results[(1, t)] and results[(4, t)] >= results[(2, t)] * 0.9
        for t in (128 * KiB, MiB)
    )
    transfer_helps = all(
        results[(s, MiB)] > results[(s, 128 * KiB)] for s in (1, 2, 4)
    )
    rec.measure(
        bw_s1_t128k_mb=results[(1, 128 * KiB)] / 1e6,
        bw_s4_t128k_mb=results[(4, 128 * KiB)] / 1e6,
        bw_s1_t1m_mb=results[(1, MiB)] / 1e6,
        bw_s4_t1m_mb=results[(4, MiB)] / 1e6,
        stripes_help=stripes_help,
        transfer_helps=transfer_helps,
    )
    rec.verdict(stripes_help and transfer_helps)
    return rec
