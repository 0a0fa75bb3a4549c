"""Conservative (YAWNS) windowed execution of the ROSS-style LP kernel.

Each round computes the lower bound on timestamps (LBTS) of all pending
events, and every LP processes its pending events below ``LBTS +
lookahead``; messages carry at least ``lookahead`` of delay, so none can
land inside the window that generated it.  The LP population is split
into *partitions* (ideally along fabric islands -- racks / OSS groups --
so that most traffic stays inside a partition), every partition owns its
LPs' event queues, and each window is processed by all partitions
concurrently.  Only cross-partition messages are synchronization traffic:
they are gathered at the window barrier, sorted into their canonical
content-based order (so thread/process completion order cannot leak into
results) and routed to the destination partition before the next LBTS
reduction.  One partition on the serial backend is the plain single-core
conservative executor (ablation A1, the ``"conservative"`` scale engine);
windows, window sizes and the critical path do not depend on the
partition count.

Determinism: an LP processes exactly the same events in exactly the same
local order as under the sequential executor -- the partition an LP lives
in only changes *where* that happens, never *what* -- so final LP states
and per-LP traces are bit-identical across all executors and backends
(the engine-equivalence property tests pin this).

Backends
--------
``serial``
    One partition at a time, in index order.  The reference
    implementation; also the cheapest when windows are narrow.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor` processes
    partitions concurrently within each window.  Wins when LP handlers
    release the GIL (numpy cohort handlers); loses little otherwise.
``process``
    Persistent worker processes, one per partition, each owning its
    partition's LP state for the whole run.  Only window horizons and
    cross-partition events cross the IPC boundary.  Requires a picklable
    ``kernel_factory`` so every worker can build its shard of the model.
"""

from __future__ import annotations

import heapq
import logging
import multiprocessing
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.des.cohort import canonical_event_sort
from repro.des.engine import SimulationError
from repro.des.ross import (
    ExecutionStats,
    LogicalProcess,
    RossEvent,
    RossKernel,
)
from repro.telemetry import TELEMETRY
from repro.telemetry.collect import (
    init_worker,
    merge_snapshot,
    snapshot as telemetry_snapshot,
    worker_init_args,
)

_INF = float("inf")

BACKENDS = ("serial", "thread", "process")


def _degenerate_window_error(lbts: float, lookahead: float) -> SimulationError:
    """A window that admits no events would loop forever; fail loudly.

    This happens when the lookahead vanishes against the magnitude of the
    clock (``lbts + lookahead == lbts`` in float64) -- an effectively
    zero-lookahead configuration.  Raising is the difference between a
    clear diagnostic and a silent spin.
    """
    return SimulationError(
        f"degenerate conservative window at t={lbts!r}: lookahead "
        f"{lookahead!r} vanishes against the clock (lbts + lookahead == "
        f"lbts in float64), so the window can never admit an event. "
        f"Increase the lookahead or rescale the model's time units."
    )


# ---------------------------------------------------------------------------
# Partition plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of LP ids to partitions.

    ``assignment`` maps every LP id to a partition index in
    ``[0, n_partitions)``.  Build one with :meth:`round_robin`,
    :meth:`contiguous` or :meth:`from_islands`.
    """

    n_partitions: int
    assignment: Dict[int, int]

    def __post_init__(self):
        if self.n_partitions < 1:
            raise ValueError("need at least one partition")
        bad = {lp: p for lp, p in self.assignment.items()
               if not 0 <= p < self.n_partitions}
        if bad:
            raise ValueError(f"LP(s) assigned outside partition range: {bad}")

    @classmethod
    def round_robin(cls, lp_ids: Sequence[int], n_partitions: int) -> "PartitionPlan":
        ids = sorted(lp_ids)
        n = max(1, min(n_partitions, len(ids)))
        return cls(n, {lp: i % n for i, lp in enumerate(ids)})

    @classmethod
    def contiguous(cls, lp_ids: Sequence[int], n_partitions: int) -> "PartitionPlan":
        """Equal contiguous slices of the sorted id space.

        The right default for island-numbered models: neighbouring islands
        (which exchange halo traffic) land in the same partition.
        """
        ids = sorted(lp_ids)
        n = max(1, min(n_partitions, len(ids)))
        per = -(-len(ids) // n)  # ceil division
        return cls(n, {lp: min(i // per, n - 1) for i, lp in enumerate(ids)})

    @classmethod
    def from_islands(
        cls, islands: Sequence[Sequence[int]], n_partitions: Optional[int] = None
    ) -> "PartitionPlan":
        """Partition along pre-grouped islands (e.g. fabric islands).

        Whole islands are assigned contiguously so intra-island traffic
        never crosses a partition boundary; ``n_partitions`` defaults to
        one partition per island.
        """
        if not islands:
            raise ValueError("need at least one island")
        n = len(islands) if n_partitions is None else min(n_partitions, len(islands))
        n = max(1, n)
        per = -(-len(islands) // n)
        assignment: Dict[int, int] = {}
        for i, members in enumerate(islands):
            part = min(i // per, n - 1)
            for lp in members:
                if lp in assignment:
                    raise ValueError(f"LP {lp} appears in multiple islands")
                assignment[lp] = part
        return cls(n, assignment)

    def members(self, partition: int) -> List[int]:
        return sorted(lp for lp, p in self.assignment.items() if p == partition)

    def describe(self) -> str:
        sizes = [0] * self.n_partitions
        for p in self.assignment.values():
            sizes[p] += 1
        return (f"{self.n_partitions} partition(s) over "
                f"{len(self.assignment)} LP(s), sizes {sizes}")


def fabric_islands(spec) -> List[Dict[str, Any]]:
    """Group a :class:`~repro.cluster.platform.PlatformSpec` into islands.

    Each OSS (with its OSTs) anchors one island -- the storage-side
    "rack" -- and the compute nodes are dealt out contiguously across
    islands, mirroring how rack-local traffic dominates on real fabrics.
    Returns one dict per island: ``{"oss": name, "osts": [ids],
    "compute": [names]}``.  The scenario layer and the scale model use
    this to size LP populations and partition plans from the platform.
    """
    n_islands = max(1, spec.n_oss)
    islands: List[Dict[str, Any]] = []
    per_compute = -(-spec.n_compute // n_islands)
    for i in range(n_islands):
        lo = i * per_compute
        hi = min(spec.n_compute, lo + per_compute)
        islands.append({
            "oss": f"oss{i}",
            "osts": list(range(i * spec.osts_per_oss,
                               (i + 1) * spec.osts_per_oss)),
            "compute": [f"c{j}" for j in range(lo, hi)],
        })
    return islands


# ---------------------------------------------------------------------------
# Per-partition runtime
# ---------------------------------------------------------------------------

class _Shard:
    """One partition's private runtime: LPs, queues, clock and outbox.

    Mirrors the mediation :class:`~repro.des.ross.RossKernel` performs for
    the whole LP population, but over a disjoint subset, so partitions can
    execute a window concurrently without sharing any mutable state.  LP
    handlers receive the shard as their ``kernel`` argument; the send
    contract (per-source sequence numbers, lookahead enforcement, known
    destinations) is identical.
    """

    __slots__ = (
        "partition", "lookahead", "known", "lps", "queues",
        "_now", "_current_lp", "_outbox", "_send_counters", "events_handled",
    )

    def __init__(
        self,
        partition: int,
        lookahead: float,
        known: frozenset,
        lps: Dict[int, LogicalProcess],
        send_counters: Optional[Dict[int, int]] = None,
    ):
        self.partition = partition
        self.lookahead = lookahead
        self.known = known
        self.lps = lps
        self.queues: Dict[int, List[RossEvent]] = {lp_id: [] for lp_id in lps}
        self._now = 0.0
        self._current_lp: Optional[int] = None
        self._outbox: List[RossEvent] = []
        self._send_counters = {
            lp_id: (send_counters or {}).get(lp_id, 0) for lp_id in lps
        }
        self.events_handled = 0

    # -- the kernel interface LP handlers see -------------------------------
    @property
    def now(self) -> float:
        return self._now

    def send(self, dest: int, delay: float, kind: str, payload: Any = None) -> RossEvent:
        if self._current_lp is None:
            raise RuntimeError("send() may only be called from inside handle()")
        if dest not in self.known:
            raise KeyError(f"unknown destination LP {dest}")
        if delay < self.lookahead:
            raise ValueError(
                f"message delay {delay} violates lookahead {self.lookahead}"
            )
        src = self._current_lp
        seq = self._send_counters[src]
        self._send_counters[src] = seq + 1
        ev = RossEvent(self._now + delay, dest, kind, payload,
                       source=src, source_seq=seq)
        self._outbox.append(ev)
        return ev

    # -- executor side -------------------------------------------------------
    def enqueue(self, ev: RossEvent) -> None:
        heapq.heappush(self.queues[ev.dest], ev)

    def min_pending(self) -> float:
        heads = [q[0].time for q in self.queues.values() if q]
        return min(heads) if heads else _INF

    def run_window(
        self, horizon: float, until: float
    ) -> Tuple[List[RossEvent], int, int]:
        """Process every pending event below ``horizon`` (and ``until``).

        Returns ``(cross_partition_events, events_processed,
        max_events_one_lp)``.  Intra-partition messages are enqueued
        locally (their timestamps are beyond the horizon, so they cannot
        join the current window); everything else is handed back for the
        coordinator to route after the barrier.
        """
        remote: List[RossEvent] = []
        window_events = 0
        max_per_lp = 0
        for lp_id in sorted(self.queues):
            q = self.queues[lp_id]
            if not q:
                continue
            lp = self.lps[lp_id]
            handled_here = 0
            while q and q[0].time < horizon and q[0].time <= until:
                ev = heapq.heappop(q)
                self._now = ev.time
                self._current_lp = lp_id
                try:
                    lp._dispatch(self, ev)
                finally:
                    self._current_lp = None
                handled_here += 1
                for new in self._drain_outbox():
                    if new.time < horizon:
                        raise RuntimeError(
                            "causality violation: generated event inside "
                            "the current window (lookahead contract broken)"
                        )
                    if new.dest in self.lps:
                        heapq.heappush(self.queues[new.dest], new)
                    else:
                        remote.append(new)
            window_events += handled_here
            if handled_here > max_per_lp:
                max_per_lp = handled_here
        self.events_handled += window_events
        return remote, window_events, max_per_lp

    def _drain_outbox(self) -> List[RossEvent]:
        out, self._outbox = self._outbox, []
        return out

    def state_digests(self) -> Dict[int, Any]:
        return {lp_id: lp.state_digest() for lp_id, lp in self.lps.items()}

    def collect(self, method: str) -> Dict[int, Any]:
        return {
            lp_id: getattr(lp, method)()
            for lp_id, lp in self.lps.items()
            if hasattr(lp, method)
        }


def _build_shards(
    kernel: RossKernel, plan: PartitionPlan
) -> List[_Shard]:
    """Split a populated kernel into per-partition shards.

    The kernel's injected initial events (its outbox) are routed into the
    owning shards; its per-LP send counters carry over so a partitioned
    run started mid-stream numbers messages identically.
    """
    missing = sorted(set(kernel.lps) - set(plan.assignment))
    if missing:
        raise ValueError(f"partition plan does not cover LP(s): {missing}")
    known = frozenset(kernel.lps)
    shards = [
        _Shard(
            p,
            kernel.lookahead,
            known,
            {lp_id: kernel.lps[lp_id] for lp_id in plan.members(p)},
            kernel._send_counters,
        )
        for p in range(plan.n_partitions)
    ]
    by_partition = plan.assignment
    for ev in kernel._drain_outbox():
        shards[by_partition[ev.dest]].enqueue(ev)
    return shards


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

@dataclass
class PartitionStats(ExecutionStats):
    """Execution stats plus partition-level occupancy accounting."""

    backend: str = "serial"
    partitions: int = 1
    #: Total events each partition processed over the whole run.
    partition_events: List[int] = field(default_factory=list)
    #: Per window: how many partitions processed at least one event.  The
    #: realized-parallelism signal -- a window occupying one partition ran
    #: as fast as the serial executor would have.
    occupied_partitions: List[int] = field(default_factory=list)
    #: Events that crossed a partition boundary (synchronization traffic).
    exchanged: int = 0

    @property
    def mean_occupancy(self) -> float:
        """Average number of partitions active per window."""
        if not self.occupied_partitions:
            return 0.0
        return sum(self.occupied_partitions) / len(self.occupied_partitions)

    @property
    def exchange_fraction(self) -> float:
        """Share of all events that crossed partitions."""
        return self.exchanged / self.events if self.events else 0.0


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

class PartitionedExecutor:
    """Conservative windowed execution with concurrent partitions.

    Parameters
    ----------
    kernel:
        A populated :class:`RossKernel` (serial/thread backends; optional
        for ``process``, where each worker builds its own via the factory).
    plan:
        LP-to-partition assignment.  Defaults to one round-robin partition
        per worker.
    backend:
        ``"serial"``, ``"thread"`` or ``"process"`` (see module docs).
    max_workers:
        Concurrency cap for the thread backend (the process backend runs
        one worker per partition by construction).
    kernel_factory / factory_args:
        Module-level callable (plus positional args) that rebuilds the
        populated kernel; required by the process backend, which cannot
        ship live LP object graphs across the IPC boundary.
    """

    def __init__(
        self,
        kernel: Optional[RossKernel] = None,
        plan: Optional[PartitionPlan] = None,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        kernel_factory: Optional[Callable[..., RossKernel]] = None,
        factory_args: Tuple = (),
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        if kernel is None:
            if kernel_factory is None:
                raise ValueError("need a kernel or a kernel_factory")
            if backend != "process":
                kernel = kernel_factory(*factory_args)
        if backend == "process" and kernel_factory is None:
            raise ValueError(
                "the process backend needs a picklable kernel_factory: live "
                "LP graphs do not cross the IPC boundary"
            )
        probe = kernel if kernel is not None else kernel_factory(*factory_args)
        if probe.lookahead <= 0:
            raise ValueError("partitioned execution requires positive lookahead")
        self.lookahead = probe.lookahead
        if plan is None:
            workers = max_workers or multiprocessing.cpu_count()
            plan = PartitionPlan.round_robin(sorted(probe.lps), workers)
        self.kernel = kernel
        self.plan = plan
        self.backend = backend
        self.max_workers = max_workers
        self.kernel_factory = kernel_factory
        self.factory_args = factory_args
        self.stats = PartitionStats(backend=backend, partitions=plan.n_partitions)
        self._shards: Optional[List[_Shard]] = None
        self._finalized: Dict[int, Any] = {}
        self._collected: Dict[str, Dict[int, Any]] = {}
        self._traces: Dict[int, list] = {}

    # -- shared window loop --------------------------------------------------
    def run(self, until: float = _INF) -> PartitionStats:
        if self.backend == "process":
            return self._run_process(until)
        return self._run_local(until)

    def _record_window(
        self,
        per_partition: List[Tuple[List[RossEvent], int, int]],
        now: Optional[float] = None,
    ) -> List[RossEvent]:
        """Fold one window's per-partition results into the stats; return
        the canonically-sorted cross-partition traffic.

        ``now`` is the window's LBTS (simulated seconds); when telemetry
        is on it timestamps the occupancy/exchange time series.
        """
        stats = self.stats
        window_events = sum(n for _, n, _ in per_partition)
        stats.events += window_events
        stats.windows += 1
        stats.window_sizes.append(window_events)
        stats.critical_path += max((m for _, _, m in per_partition), default=0)
        occupied = sum(1 for _, n, _ in per_partition if n)
        stats.occupied_partitions.append(occupied)
        remote: List[RossEvent] = []
        for out, _, _ in per_partition:
            remote.extend(out)
        stats.exchanged += len(remote)
        if TELEMETRY.active and now is not None:
            series = TELEMETRY.series
            series.record("des.partition.occupancy", now, occupied, "partitions")
            series.record("des.partition.window_events", now, window_events, "events")
            series.record("des.partition.exchanged", now, len(remote), "events")
        return canonical_event_sort(remote)

    def _publish_telemetry(self) -> None:
        if not TELEMETRY.active:
            return
        m = TELEMETRY.metrics
        s = self.stats
        m.counter("des.partition.windows").inc(s.windows)
        m.counter("des.partition.events").inc(s.events)
        m.counter("des.partition.exchanged").inc(s.exchanged)
        for occupied in s.occupied_partitions:
            m.histogram("des.partition.window_occupancy").observe(occupied)
        for p, n in enumerate(s.partition_events):
            m.counter(f"des.partition.p{p}.events").inc(n)

    # -- serial / thread -----------------------------------------------------
    def _run_local(self, until: float) -> PartitionStats:
        shards = _build_shards(self.kernel, self.plan)
        self._shards = shards
        pool = (
            ThreadPoolExecutor(
                max_workers=min(
                    self.plan.n_partitions,
                    self.max_workers or multiprocessing.cpu_count(),
                )
            )
            if self.backend == "thread"
            else None
        )
        try:
            while True:
                lbts = min(shard.min_pending() for shard in shards)
                if lbts == _INF or lbts > until:
                    break
                horizon = lbts + self.lookahead
                if not horizon > lbts:
                    raise _degenerate_window_error(lbts, self.lookahead)
                if pool is not None:
                    results = list(
                        pool.map(lambda s: s.run_window(horizon, until), shards)
                    )
                else:
                    results = [s.run_window(horizon, until) for s in shards]
                for ev in self._record_window(results, now=lbts):
                    shards[self.plan.assignment[ev.dest]].enqueue(ev)
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        self.stats.partition_events = [s.events_handled for s in shards]
        self._publish_telemetry()
        return self.stats

    # -- process backend -----------------------------------------------------
    def _run_process(self, until: float) -> PartitionStats:
        ctx = _mp_context()
        conns = []
        procs = []
        try:
            telemetry_active, log_level = worker_init_args()
            for p in range(self.plan.n_partitions):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_partition_worker,
                    args=(child, self.kernel_factory, self.factory_args,
                          self.plan.n_partitions, self.plan.assignment, p,
                          telemetry_active, log_level),
                    daemon=False,
                )
                proc.start()
                child.close()
                conns.append(parent)
                procs.append(proc)

            mins = [self._recv(conn) for conn in conns]
            while True:
                lbts = min(mins)
                if lbts == _INF or lbts > until:
                    break
                horizon = lbts + self.lookahead
                if not horizon > lbts:
                    raise _degenerate_window_error(lbts, self.lookahead)
                for conn in conns:
                    conn.send(("window", horizon, until))
                results = [self._recv(conn) for conn in conns]
                remote = self._record_window(results, now=lbts)
                groups: List[List[RossEvent]] = [
                    [] for _ in range(self.plan.n_partitions)
                ]
                for ev in remote:
                    groups[self.plan.assignment[ev.dest]].append(ev)
                for conn, group in zip(conns, groups):
                    conn.send(("route", group))
                mins = [self._recv(conn) for conn in conns]

            for conn in conns:
                conn.send(("finish",))
            finals = [self._recv(conn) for conn in conns]
            self.stats.partition_events = [f["events"] for f in finals]
            for f in finals:
                self._finalized.update(f["digests"])
                self._traces.update(f["traces"])
                for method, payload in f["collected"].items():
                    self._collected.setdefault(method, {}).update(payload)
                merge_snapshot(f.get("telemetry"))
        finally:
            for conn in conns:
                conn.close()
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join()
        self._publish_telemetry()
        return self.stats

    @staticmethod
    def _recv(conn):
        msg = conn.recv()
        if isinstance(msg, tuple) and msg and msg[0] == "error":
            raise SimulationError(
                f"partition worker failed:\n{msg[1]}"
            )
        return msg

    # -- result access -------------------------------------------------------
    def state_digests(self) -> Dict[int, Any]:
        """Final ``state_digest()`` of every LP, merged across partitions."""
        if self.backend == "process":
            return dict(self._finalized)
        out: Dict[int, Any] = {}
        for shard in self._shards or []:
            out.update(shard.state_digests())
        return out

    def traces(self) -> Dict[int, list]:
        """Per-LP handled-event traces (determinism checks)."""
        if self.backend == "process":
            return dict(self._traces)
        return {
            lp_id: lp.trace
            for shard in self._shards or []
            for lp_id, lp in shard.lps.items()
        }

    def collect(self, method: str) -> Dict[int, Any]:
        """Call ``method()`` on every LP that defines it; merge the results.

        How partitioned runs return model-level outcomes (the process
        backend fetches them over IPC at shutdown).
        """
        if self.backend == "process":
            return dict(self._collected.get(method, {}))
        out: Dict[int, Any] = {}
        for shard in self._shards or []:
            out.update(shard.collect(method))
        return out


def _mp_context():
    """Prefer fork (cheap, no pickling of the factory's globals); fall back
    to the platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _partition_worker(
    conn, factory, factory_args, n_partitions, assignment, partition,
    telemetry_active=False, log_level=logging.WARNING,
):
    """Worker entry point: build the model, keep one partition, serve windows.

    ``telemetry_active``/``log_level`` mirror the parent's observability
    state (a ``spawn``-context worker starts from library defaults); the
    worker's spans/metrics/series ride back on the ``finish`` reply.
    """
    try:
        init_worker(telemetry_active, log_level)
        kernel = factory(*factory_args)
        known = frozenset(kernel.lps)
        members = {lp_id for lp_id, p in assignment.items() if p == partition}
        shard = _Shard(
            partition,
            kernel.lookahead,
            known,
            {lp_id: kernel.lps[lp_id] for lp_id in sorted(members)},
            kernel._send_counters,
        )
        for ev in kernel._drain_outbox():
            if ev.dest in members:
                shard.enqueue(ev)
        conn.send(shard.min_pending())
        while True:
            msg = conn.recv()
            if msg[0] == "window":
                _, horizon, until = msg
                if TELEMETRY.active:
                    with TELEMETRY.tracer.span(
                        "partition.window", cat="des.partition",
                        partition=partition,
                    ):
                        out, n_events, max_per_lp = shard.run_window(
                            horizon, until
                        )
                else:
                    out, n_events, max_per_lp = shard.run_window(horizon, until)
                conn.send((out, n_events, max_per_lp))
            elif msg[0] == "route":
                for ev in msg[1]:
                    shard.enqueue(ev)
                conn.send(shard.min_pending())
            elif msg[0] == "finish":
                collected = {}
                for method in ("collect_result",):
                    payload = shard.collect(method)
                    if payload:
                        collected[method] = payload
                conn.send({
                    "events": shard.events_handled,
                    "digests": shard.state_digests(),
                    "traces": {lp_id: lp.trace
                               for lp_id, lp in shard.lps.items()},
                    "collected": collected,
                    "telemetry": telemetry_snapshot(),
                })
                return
            else:  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unknown message {msg[0]!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass


__all__ = [
    "BACKENDS",
    "PartitionPlan",
    "PartitionStats",
    "PartitionedExecutor",
    "fabric_islands",
]
