"""The asyncio run service: admission, fair share, coalescing, execution.

One process, one event loop, one process pool.  Clients speak a
JSON-lines protocol (one request object per line, one response per
request, matched by a client-chosen ``id`` so a single connection can
pipeline many concurrent requests -- the load generator multiplexes
hundreds of simulated tenants over a handful of sockets this way).

Request lifecycle::

    submit --> admission control --> per-digest resolution --> dispatch
               backpressure/quota     warm | coalesce | fresh    fair share

* **Admission** -- a submission is rejected (never queued) when the
  fresh work it would enqueue overflows the bounded admission queue
  (``reason: "backpressure"``) or the tenant's outstanding-task quota
  (``reason: "quota"``).  Rejections are cheap and explicit; clients
  retry with backoff.
* **Per-digest resolution** -- each task's scenario digest is checked
  against the store first (*warm*: answered without touching the pool),
  then against the in-flight table (*coalesce*: join the existing
  computation as another waiter), and only then becomes a *fresh*
  computation on the fair-share queue.  Identical submissions cost one
  execution no matter how many tenants ask.
* **Dispatch** -- :class:`repro.service.scheduler.FairShareQueue`
  (start-time fair queueing, the ``des/sharing`` algorithm at the
  control plane) picks the next computation whenever a pool slot frees.
* **Execution** -- the same module-level task function the sweep path
  pools (:func:`repro.scenario.sweep._execute_point_timed` via
  :func:`_run_computation_task`), so a service-computed artifact has
  the same content address a ``repro-io scenario sweep`` would produce.
  Results are cached under the same ``sweep/<digest>`` refs.
* **Worker death** -- ``BrokenProcessPool`` never fails a job outright:
  the pool is rebuilt (once per generation, whoever notices first) and
  the computation is re-queued with its waiters intact, up to
  :data:`CRASH_RETRIES` times.  Failures -- crash or in-task exception --
  are **never cached**; ``store verify`` stays clean because nothing
  partial is ever put.

Completed jobs that computed fresh work land a ``service_job`` artifact
plus a run document (``repro-io store ls``); warm-only jobs write
nothing (pure store reads).  A debounced job ledger
(``service-jobs.json``) next to the store feeds ``repro-io watch``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import os
import secrets
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ioutil import atomic_write_json
from repro.jobs import ProgressLedger, source_digest, store_ref_artifact
from repro.scenario.presets import get_scenario
from repro.scenario.spec import ScenarioError, ScenarioSpec
from repro.scenario.sweep import (
    _execute_point_timed,
    expand_grid,
    point_ref,
    point_ref_name,
)
from repro.service.jobs import (
    JOB_STATES,
    SERVICE_LEDGER_NAME,
    SERVICE_LEDGER_SCHEMA,
    Computation,
    Job,
)
from repro.service.journal import JOURNAL_DIR_NAME, JobJournal
from repro.service.scheduler import FairShareQueue
from repro.service.state import ServiceState
from repro.store import RunArtifact, RunStore, StoreError
from repro.store.store import DEFAULT_STORE_DIR
from repro.telemetry import TELEMETRY
from repro.telemetry.collect import init_worker, merge_snapshot, worker_init_args

log = logging.getLogger(__name__)

__all__ = ["ServiceConfig", "RunService", "DISCOVERY_NAME"]

#: Service discovery file, written next to the job ledger.
DISCOVERY_NAME = "service.json"
DISCOVERY_SCHEMA = "repro.service.discovery/1"

#: Most recent jobs retained in the ledger document (counters in the
#: ledger's ``stats`` block stay cumulative beyond this window).
LEDGER_MAX_JOBS = 500

#: Seconds between debounced ledger flushes.
LEDGER_INTERVAL = 0.5

#: Maximum protocol line length (sweep submissions carry full specs).
_STREAM_LIMIT = 16 * 1024 * 1024

#: Re-queues per computation after a worker-process death.
CRASH_RETRIES = 2


def _run_computation_task(scenario_json: str):
    """Pool-side task: exactly the sweep path's timed point execution.

    Module-level so it pickles by reference; running the *same* function
    as ``repro-io scenario sweep`` is what makes service artifacts land
    at identical content addresses.
    """
    return _execute_point_timed(scenario_json)


def _chaos_exit() -> None:  # pragma: no cover - dies by design
    """Chaos hook: kill the worker that runs this (``--enable-chaos``)."""
    os._exit(42)


def _watch_parent(parent_pid: int, interval: float) -> None:
    """Exit this worker once ``parent_pid`` is no longer our parent.

    A server killed with ``kill -9`` cannot shut its pool down, and a
    fork-started worker blocked on the call queue never sees EOF (it
    holds a dup of the queue's write end itself), so without this it
    would linger as an orphan forever.
    """
    while os.getppid() == parent_pid:
        time.sleep(interval)
    os._exit(3)  # pragma: no cover - only reached when orphaned


def _service_worker_init(parent_pid, watch_interval, *telemetry_args):
    """Pool initializer: telemetry plumbing + a parent-death watchdog."""
    init_worker(*telemetry_args)
    threading.Thread(
        target=_watch_parent, args=(parent_pid, watch_interval), daemon=True,
    ).start()


@dataclass
class ServiceConfig:
    """Tunables of one :class:`RunService` instance.

    A service always keeps its write-ahead journal under
    ``<state_dir>/service-journal``, always lands computed results in
    the store (``sweep/`` refs and run documents) and answers repeats
    from it; store integrity is checked by ``repro-io store scrub``.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, resolved at start
    store_dir: Path = Path(DEFAULT_STORE_DIR)
    #: Pool worker processes (concurrent computations).
    workers: int = 2
    #: Admission-queue capacity in *fresh computations*; submissions
    #: that would overflow it are rejected (backpressure).
    queue_limit: int = 256
    #: Per-tenant cap on outstanding (queued + running + waited-on) tasks.
    tenant_quota: int = 64
    #: Job ledger + discovery file directory (default: store parent).
    state_dir: Optional[Path] = None
    #: Allow the ``chaos-kill`` op (tests, CI smoke).
    enable_chaos: bool = False
    #: Precomputed source digest (recomputed at start when ``None``).
    source_digest: Optional[str] = None
    #: Group-commit window: max seconds an appended record waits for
    #: its fsync batch.
    fsync_interval: float = 0.05

    def resolved_state_dir(self) -> Path:
        return Path(
            self.state_dir if self.state_dir is not None
            else Path(self.store_dir).parent
        )

    def resolved_journal_dir(self) -> Path:
        return self.resolved_state_dir() / JOURNAL_DIR_NAME


class RunService:
    """One service instance; see the module docstring for the design."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.store = RunStore(self.config.store_dir)
        self.started = time.time()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue = FairShareQueue()
        #: Jobs, computations and counters; replaced by the journal's
        #: replay at :meth:`start`.
        self._state = ServiceState()
        self._running_count = 0
        self._stopping = False
        self._draining = False
        #: Identifies this server *life*; lets clients detect a stale
        #: discovery file that names a dead (or replaced) server.
        self.nonce = secrets.token_hex(8)
        self._journal: Optional[JobJournal] = None
        #: The journal's counters as they stood when :meth:`stop` closed it.
        self._journal_final_stats: Optional[Dict[str, int]] = None
        self._stopped = asyncio.Event()
        self._wake = asyncio.Event()
        self._tasks: set = set()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_generation = 0
        self._pool_lock = asyncio.Lock()
        self._source_digest = self.config.source_digest
        state_dir = self.config.resolved_state_dir()
        self.ledger_path = state_dir / SERVICE_LEDGER_NAME
        self.discovery_path = state_dir / DISCOVERY_NAME
        self._ledger = ProgressLedger(
            self.ledger_path,
            SERVICE_LEDGER_SCHEMA,
            (),
            statuses=JOB_STATES,
            item_key="jobs",
            extra=self._ledger_extra,
        )
        self._ledger_dirty = False

    @property
    def stats(self) -> Dict[str, int]:
        return self._state.stats

    @property
    def _jobs(self) -> Dict[str, Job]:
        return self._state.jobs

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind, start the dispatcher/ledger tasks, write discovery.

        Journal replay happens *before* the socket is bound: recovered
        jobs are re-queued (waiter lists intact) and the journal is
        compacted to the live snapshot, so a client connecting right
        after boot already sees the recovered state.
        """
        if self._source_digest is None:
            self._source_digest = await asyncio.get_running_loop()\
                .run_in_executor(None, source_digest)
        journal_dir = self.config.resolved_journal_dir()
        self._state = JobJournal.replay(journal_dir)
        self._journal = JobJournal(
            journal_dir, fsync_interval=self.config.fsync_interval
        )
        self._journal.open()
        self._boot()
        self._journal.compact(self._state.snapshot())
        self._new_pool()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=_STREAM_LIMIT,
        )
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self._spawn(self._dispatch_loop(), name="dispatch")
        self._spawn(self._ledger_loop(), name="ledger")
        self._spawn(
            self._journal.run_flusher(self._state.snapshot), name="journal",
        )
        atomic_write_json(
            {
                "schema": DISCOVERY_SCHEMA,
                "host": self.host,
                "port": self.port,
                "pid": os.getpid(),
                "nonce": self.nonce,
                "started": self.started,
                "store": str(self.store.root),
                "ledger": str(self.ledger_path),
            },
            self.discovery_path,
        )
        self._write_ledger()
        log.info(
            "run service listening on %s:%d (workers=%d, store=%s)",
            self.host, self.port, self.config.workers, self.store.root,
        )
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting, cancel queued work, drain tasks, final ledger.

        Idempotent: a second concurrent caller waits for the first to
        finish (so e.g. ``serve_forever``'s cleanup path cannot let the
        loop die while a ``shutdown`` op's stop() is still writing the
        final ledger)."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        self._wake.set()
        try:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            # Cancel everything still queued; running computations are
            # abandoned (their pool futures are orphaned by the shutdown).
            for comp in self._queue.drop(lambda c: True):
                self._resolve(comp, "cancelled", error="service shutting down")
            pending = list(self._tasks)
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
            if self._journal is not None:
                # The cancellations above were journaled; a clean-close
                # record on top lets the next boot skip recovery work.
                self._journal.close(clean=True)
                self._journal_final_stats = dict(self._journal.stats)
                self._journal = None
            self._state.apply({"t": "clean_close"})
            self._write_ledger(finished=True)
            try:
                self.discovery_path.unlink()
            except OSError:
                pass
        finally:
            self._stopped.set()

    async def abort(self) -> None:
        """Tear down as if the process died (crash-recovery tests).

        Unlike :meth:`stop`, nothing is journaled -- no cancellation
        records, no clean close -- the ledger is not finalized, and the
        discovery file is left behind stale, which is exactly the state
        a kill -9 leaves on disk.
        """
        self._stopping = True
        self._wake.set()
        # Kill the journal first: the task cancellations below must not
        # write anything (a dead process would not have either).
        journal, self._journal = self._journal, None
        if journal is not None:
            journal.abort()
        try:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            pending = list(self._tasks)
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
        finally:
            self._stopped.set()

    async def drain(self) -> None:
        """Stop admission, let queued and running work finish, then stop."""
        self._draining = True
        while self._state.inflight or self._running_count:
            if self._stopping:
                return
            await asyncio.sleep(0.05)
        await self.stop()

    async def serve_forever(self) -> None:
        """Start (if needed) and run until cancelled."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - signal path
            pass

    def _spawn(self, coro, name: str) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro, name=name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- process pool --------------------------------------------------------

    def _new_pool(self) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=self.config.workers,
            initializer=_service_worker_init,
            initargs=(os.getpid(), 1.0, *worker_init_args()),
        )
        self._pool_generation += 1

    async def _rebuild_pool(self, seen_generation: int) -> None:
        """Replace a broken pool exactly once per generation.

        Every in-flight computation whose future died calls this with
        the generation it submitted against; the first caller rebuilds,
        the rest see the bumped generation and return.
        """
        async with self._pool_lock:
            if self._pool_generation != seen_generation:
                return
            old = self._pool
            log.warning(
                "process pool (generation %d) broke; rebuilding",
                seen_generation,
            )
            self._new_pool()
            if old is not None:
                old.shutdown(wait=False)

    # -- dispatch and execution ----------------------------------------------

    async def _dispatch_loop(self) -> None:
        while not self._stopping:
            self._wake.clear()
            while self._queue and self._running_count < self.config.workers:
                comp = self._queue.pop()
                if comp.terminal:
                    continue  # cancelled while queued
                self._running_count += 1
                self._transition("start", digest=comp.digest)
                self._spawn(
                    self._run_computation(comp), name=f"comp:{comp.digest[:8]}"
                )
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=0.5)
            except asyncio.TimeoutError:
                pass

    async def _run_computation(self, comp: Computation) -> None:
        loop = asyncio.get_running_loop()
        generation = self._pool_generation
        try:
            value = await loop.run_in_executor(
                self._pool, _run_computation_task, comp.scenario_json
            )
        except BrokenProcessPool as exc:
            await self._rebuild_pool(generation)
            comp.attempts += 1
            if self._stopping:
                self._resolve(comp, "cancelled", error="service shutting down")
            elif comp.attempts <= CRASH_RETRIES:
                # Re-queue with waiters intact: a transient kill must not
                # fail N tenants' jobs.  Nothing was cached (the worker
                # died before any put), so the retry recomputes cleanly.
                # The computation stays started (a cancel meanwhile leaves
                # it be, as replay of its start record would); dispatching
                # it again journals the retry's start.
                log.warning(
                    "computation %s lost its worker (attempt %d/%d); "
                    "re-queueing with %d waiter(s)",
                    comp.name, comp.attempts, CRASH_RETRIES,
                    len(comp.jobs),
                )
                self._queue.push(comp.jobs[0].tenant, comp)
            else:
                self._resolve(
                    comp, "failed",
                    error=f"worker process crashed repeatedly "
                          f"({type(exc).__name__}: {exc})",
                )
        except asyncio.CancelledError:
            self._resolve(comp, "cancelled", error="service shutting down")
            raise
        except Exception as exc:
            # Deterministic in-task failure: contained, never cached.
            self._resolve(
                comp, "failed", error=f"{type(exc).__name__}: {exc}"
            )
        else:
            outcome, seconds, snap = value
            merge_snapshot(snap)
            artifact = RunArtifact.from_sweep_point(outcome)
            name, meta = point_ref(comp.digest, self._source_digest)
            digest = store_ref_artifact(self.store, name, artifact, meta)
            self._resolve(comp, "done", seconds=seconds, artifact=digest)
        finally:
            self._running_count -= 1
            self._wake.set()

    def _transition(
        self, record_type: str, journal: bool = True, **fields: Any
    ) -> None:
        """Journal one record (write-ahead) and apply it to the state;
        finished jobs then land their run documents."""
        if journal and self._journal is not None:
            self._journal.append(record_type, **fields)
        for job in self._state.apply({"t": record_type, **fields}):
            self._finish_job(job)
        self._ledger_dirty = True

    def _resolve(self, comp: Computation, state: str, **kwargs: Any) -> None:
        """Terminal transition of one computation.

        Journaled *after* the artifact landed in the store: a crash in
        between replays the computation, whose re-put is idempotent
        (same content address), so nothing is poisoned.
        """
        outcome = {"artifact": None, "error": None, "seconds": 0.0,
                   "cached": False, **kwargs}
        self._transition("complete", digest=comp.digest, state=state, **outcome)

    def _finish_job(self, job: Job) -> None:
        """Land a finished job's run document (fresh-compute jobs only)."""
        if not any(c.state == "done" and not c.cached
                   for c in job.computations):
            return
        try:
            doc = job.document()
            manifest_digest = self.store.put(RunArtifact.from_service_job(doc))
            artifacts = {
                c.name: c.artifact
                for c in job.computations
                if c.state == "done" and c.artifact is not None
            }
            run_id = self.store.add_run(
                "service", manifest_digest, artifacts, created=job.finished
            )
        except OSError as exc:  # pragma: no cover - store on a bad disk
            log.warning("could not land run document for %s: %s",
                        job.job_id, exc)
            return
        self._transition("land", job=job.job_id, run_id=run_id)

    # -- admission -----------------------------------------------------------

    def _resolve_specs(
        self, req: Dict[str, Any]
    ) -> Tuple[str, List[Tuple[str, ScenarioSpec]]]:
        """Turn a submit request into named, validated scenario specs."""
        scenario = req.get("scenario")
        seed = req.get("seed")
        # A preset is rebuilt at the seed, as ``scenario run --seed`` does
        # (some presets derive more than ``ScenarioSpec.seed`` from it);
        # an inline spec can only have its seed field replaced.
        if isinstance(scenario, str):
            base = get_scenario(scenario, 0 if seed is None else int(seed))
        elif isinstance(scenario, dict):
            base = ScenarioSpec.from_dict(scenario)
            if seed is not None:
                base = base.with_seed(int(seed))
        else:
            raise ScenarioError(
                "submit needs 'scenario': a preset name or a spec object"
            )
        grid = req.get("grid") or {}
        if grid:
            points = expand_grid(base, grid)
            return "sweep", [(p.name, p.scenario) for p in points]
        return "scenario", [(base.name, base.validate())]

    def _reject(self, reason: str, error: str, retry: bool = True) -> Dict[str, Any]:
        self.stats[f"rejected_{reason}"] += 1
        return {"ok": False, "reason": reason, "retry": retry, "error": error}

    def _admit(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Admission control + per-digest resolution; returns the response
        skeleton (the job is registered on success)."""
        tenant = str(req.get("tenant") or "anonymous")
        if self._draining or self._stopping:
            return self._reject(
                "draining", "service is draining (shutdown in progress)",
                retry=False,
            )
        key = req.get("idempotency_key")
        if key is not None:
            key = str(key)
            # Exactly-once submission: a resubmit after a reconnect (or a
            # server restart replaying the journal) lands on the original
            # job instead of queueing duplicate work.
            existing = self._state.deduplicate(key)
            if existing is not None:
                return {"ok": True, "job": existing, "deduplicated": True}
        try:
            kind, specs = self._resolve_specs(req)
        except (ScenarioError, KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "reason": "bad-request", "error": str(exc)}

        points = [
            (name, spec.digest(), spec.canonical_json()) for name, spec in specs
        ]
        # Build the record before changing anything, so rejections are
        # side-effect free: each point is warm (store hit), coalesces
        # (in flight, or repeated here), or is fresh work.
        inflight = self._state.inflight
        hits: Dict[str, str] = {}  # digest -> artifact digest
        for digest in dict.fromkeys(d for _n, d, _p in points):
            if digest not in inflight:
                hit = self._warm_lookup(digest)
                if hit is not None:
                    hits[digest] = hit
        record = self._state.admit_record(tenant, kind, points, hits, key)
        fresh = [d for d in record["payloads"] if d not in inflight]
        if len(self._queue) + len(fresh) > self.config.queue_limit:
            return self._reject(
                "backpressure",
                f"admission queue full "
                f"({len(self._queue)}/{self.config.queue_limit})",
            )
        outstanding = self._state.outstanding.get(tenant, 0)
        n_new = sum(1 for slot in record["tasks"] if "state" not in slot)
        if outstanding + n_new > self.config.tenant_quota:
            return self._reject(
                "quota",
                f"tenant {tenant!r} quota exceeded "
                f"({outstanding}+{n_new} > {self.config.tenant_quota})",
            )

        # Warm-only jobs are answered entirely from the store and need no
        # recovery; skipping them keeps the journal off the warm path
        # (zero fsyncs on a 100%-hit storm).
        journaled = n_new > 0
        self._transition("admit", journal=journaled, **record)
        if fresh:
            for digest in fresh:
                self._queue.push(tenant, inflight[digest])
            self._wake.set()  # only queued work needs the dispatcher
        return {
            "ok": True, "job": self._state.jobs[record["job"]],
            "journaled": journaled,
        }

    def _warm_lookup(self, digest: str) -> Optional[str]:
        """Store lookup for one scenario digest -> its artifact digest.

        A hit is a ``sweep/`` ref keyed on this source digest whose object
        is present; the artifact is neither read nor re-hashed.  Object
        integrity is ``repro-io store scrub``'s job: it quarantines a
        corrupt object, so the next submission of that scenario misses and
        recomputes it, and ``store verify`` reports one.  An unreadable
        ref is a logged miss.
        """
        name = point_ref_name(digest, self._source_digest)
        try:
            entry = self.store.get_ref(name)
        except StoreError as exc:
            log.warning("corrupt cache ref %s (%s); re-executing", name, exc)
            return None
        if entry is None:
            return None
        if entry.get("meta", {}).get("source_digest") != self._source_digest:
            log.warning("stale cache ref %s; re-executing", name)
            return None
        artifact = entry["digest"]
        return artifact if self.store.has(artifact) else None

    # -- crash recovery ------------------------------------------------------

    def _boot(self) -> None:
        """Serve the replayed state: each pending computation resolves
        from the store when its artifact landed just before the crash
        (its complete record still in the fsync buffer), and is
        re-queued, waiter list intact, otherwise."""
        for comp in self._state.boot():
            if not comp.scenario_json:
                self._resolve(comp, "failed",
                              error="journal replay: scenario payload missing")
                continue
            hit = self._warm_lookup(comp.digest)
            if hit is not None:
                self._resolve(comp, "done", artifact=hit, cached=True)
            else:
                self._queue.push(comp.jobs[0].tenant, comp)
        requeued = self.stats["replayed"] = len(self._queue)
        if TELEMETRY.active:
            TELEMETRY.metrics.counter("service.journal.replayed").inc(requeued)
        log.info(
            "journal replay: %d live job(s), %d computation(s) re-queued "
            "(%d record(s), %d corrupt line(s) skipped)",
            self.stats["replayed_jobs"], requeued, self._state.records,
            self._state.corrupt_lines,
        )

    # -- protocol ------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        send_lock = asyncio.Lock()
        conn_tasks: set = set()

        async def send(doc: Dict[str, Any]) -> None:
            async with send_lock:
                writer.write(json.dumps(doc).encode("utf-8") + b"\n")
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    req = json.loads(line)
                except json.JSONDecodeError as exc:
                    await send({"ok": False, "error": f"bad json: {exc}"})
                    continue
                task = self._spawn(
                    self._serve_request(req, send), name="request"
                )
                conn_tasks.add(task)
                task.add_done_callback(conn_tasks.discard)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop/server teardown while blocked on readline: exit the
            # handler cleanly (asyncio's stream glue logs the exception
            # of a cancelled handler task otherwise).
            pass
        finally:
            for task in list(conn_tasks):
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass
            log.debug("connection from %s closed", peer)

    async def _serve_request(
        self, req: Dict[str, Any], send: Callable
    ) -> None:
        op = req.get("op")
        handler = getattr(self, f"_op_{str(op).replace('-', '_')}", None)
        if handler is None:
            response = {"ok": False, "error": f"unknown op {op!r}"}
        else:
            try:
                response = await handler(req)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # pragma: no cover - defensive
                log.exception("op %s failed", op)
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if "id" in req:
            response["id"] = req["id"]
        try:
            await send(response)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; the work (if any) still completes

    # -- ops -----------------------------------------------------------------

    async def _op_ping(self, req: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "ok": True, "pong": time.time(), "pid": os.getpid(),
            "nonce": self.nonce,
        }

    async def _op_submit(self, req: Dict[str, Any]) -> Dict[str, Any]:
        admitted = self._admit(req)
        if not admitted["ok"]:
            return admitted
        job: Job = admitted["job"]
        if admitted.get("journaled") and self._journal is not None:
            # Write-ahead contract: the ack implies the admission is on
            # disk.  Group commit amortizes the fsync across every
            # submission in the same flush window.
            await self._journal.commit()
        if req.get("wait", True):
            response = await self._result(job)
        else:
            response = {
                "ok": True,
                "job_id": job.job_id,
                "state": job.state,
                "total": len(job.computations),
                "warm": job.warm,
                "coalesced": job.coalesced,
            }
        if admitted.get("deduplicated"):
            response["deduplicated"] = True
        return response

    @staticmethod
    async def _result(job: Job) -> Dict[str, Any]:
        """The finished job's document, once it is finished."""
        await job.wait()
        doc = job.document()
        doc["ok"] = job.state == "done"
        doc["latency"] = job.finished - job.submitted
        return doc

    async def _op_wait(self, req: Dict[str, Any]) -> Dict[str, Any]:
        job = self._jobs.get(req.get("job_id"))
        if job is None:
            return {"ok": False, "error": f"unknown job {req.get('job_id')!r}"}
        return await self._result(job)

    async def _op_status(self, req: Dict[str, Any]) -> Dict[str, Any]:
        job = self._jobs.get(req.get("job_id"))
        if job is None:
            return {"ok": False, "error": f"unknown job {req.get('job_id')!r}"}
        return dict(job.document(), ok=True)

    async def _op_jobs(self, req: Dict[str, Any]) -> Dict[str, Any]:
        tenant = req.get("tenant")
        rows = {
            job.job_id: job.summary()
            for job in self._jobs.values()
            if tenant is None or job.tenant == tenant
        }
        return {"ok": True, "jobs": rows}

    async def _op_cancel(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Cancel queued work for one job id or a whole tenant.

        Each cancelled job *abandons* the queued computations it waits
        on; a computation left with no waiters is dropped from the
        queue.  Sequential cancels therefore compose -- when the last
        tenant coalesced onto a computation cancels, the work is
        dropped, while a computation another tenant still wants keeps
        its place and keeps running.  Running computations always
        finish: their result is still cacheable.
        """
        job_id, tenant = req.get("job_id"), req.get("tenant")
        if job_id is not None:
            targets = [j for j in (self._jobs.get(job_id),) if j is not None]
            if not targets:
                return {"ok": False, "error": f"unknown job {job_id!r}"}
        elif tenant is not None:
            targets = [j for j in self._state.live_jobs() if j.tenant == tenant]
        else:
            return {"ok": False, "error": "cancel needs job_id or tenant"}

        live = [job for job in targets if job.finished is None]
        for job in live:
            self._transition("cancel", job=job.job_id)
        dropped = self._queue.drop(
            lambda comp: comp.state == "queued" and not comp.jobs
        )
        for comp in dropped:
            self._resolve(comp, "cancelled", error="cancelled by client")
        if (live or dropped) and self._journal is not None:
            # Same write-ahead contract as submit: the ack implies the
            # cancellation is on disk, so a crash cannot revive the work.
            await self._journal.commit()
        return {
            "ok": True,
            "cancelled": [j.job_id for j in targets],
            "dropped": len(dropped),
        }

    async def _op_stats(self, req: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "ok": True,
            **self._counters(),
            "inflight": len(self._state.inflight),
            "jobs": len(self._jobs),
            "uptime": time.time() - self.started,
            "workers": self.config.workers,
            "pool_generation": self._pool_generation,
            "store": str(self.store.root),
            "source_digest": self._source_digest,
            "nonce": self.nonce,
            "draining": self._draining,
        }

    async def _op_chaos_kill(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Kill one pool worker (chaos testing; gated by configuration)."""
        if not self.config.enable_chaos:
            return {"ok": False, "error": "chaos ops disabled (--enable-chaos)"}
        generation = self._pool_generation
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(self._pool, _chaos_exit)
        except BrokenProcessPool:
            await self._rebuild_pool(generation)
        except Exception:  # pragma: no cover - platform-dependent surface
            await self._rebuild_pool(generation)
        return {"ok": True, "killed": 1, "pool_generation": self._pool_generation}

    async def _op_shutdown(self, req: Dict[str, Any]) -> Dict[str, Any]:
        # Delay slightly so this response flushes before stop() cancels
        # the request task that is sending it.
        loop = asyncio.get_running_loop()
        if req.get("drain"):
            self._draining = True
            loop.call_later(0.05, lambda: loop.create_task(self.drain()))
            return {
                "ok": True, "stopping": True, "draining": True,
                "pending": len(self._state.inflight) + self._running_count,
            }
        loop.call_later(0.05, lambda: loop.create_task(self.stop()))
        return {"ok": True, "stopping": True}

    # -- ledger --------------------------------------------------------------

    def _counters(self) -> Dict[str, Any]:
        """Queue state and the stats/journal counters, as both the
        ``stats`` op and the job ledger report them."""
        return {
            "queue": len(self._queue),
            "running": self._running_count,
            "tenants": self._queue.queued_by_tenant(),
            "stats": dict(self.stats),
            "journal": (
                dict(self._journal.stats)
                if self._journal is not None
                else self._journal_final_stats
            ),
        }

    def _ledger_extra(self) -> Dict[str, Any]:
        return {
            "service": {
                "host": self.host,
                "port": self.port,
                "pid": os.getpid(),
                "workers": self.config.workers,
                "store": str(self.store.root),
            },
            **self._counters(),
        }

    def _write_ledger(self, finished: bool = False) -> None:
        # The newest LEDGER_MAX_JOBS, read from the end of the job table
        # rather than copying all of it every tick.
        newest = list(itertools.islice(reversed(self._jobs.values()),
                                       LEDGER_MAX_JOBS))
        self._ledger.items = {j.job_id: j.summary() for j in reversed(newest)}
        self._ledger.write(finished=finished)
        self._ledger_dirty = False

    async def _ledger_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(LEDGER_INTERVAL)
            if self._ledger_dirty:
                self._write_ledger()
