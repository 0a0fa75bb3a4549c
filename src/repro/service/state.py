"""The run service's state machine: one transition per journal record.

:class:`ServiceState` owns what the service must agree on after a crash
-- jobs, the in-flight table (digest -> live computation), per-tenant
outstanding counts, the idempotency map, the job-id counter and the
``stats`` counters -- and only :meth:`~ServiceState.apply` changes it.
It is synchronous and does no I/O.  The asyncio shell
(:mod:`repro.service.server`) builds a record, journals it and applies
it; boot replay (``JobJournal.replay``) applies the same records, in
log order, to a fresh state, so live and recovered state come out of
the same code.  The record kinds are listed in
:mod:`repro.service.journal`; two rules matter for agreement:

* ``complete`` settles the digest's computation that is live *at that
  point in the log*, never a later one for the same digest;
* ``cancel`` abandons only the job's *queued* computations, so
  ``start`` records count (a second ``start`` is a retry after a worker
  death).

Admission rejections and idempotent resubmissions journal nothing and
change nothing but a counter, so they are not transitions.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.service.jobs import Computation, Job

__all__ = ["ServiceState"]

#: The service's counters (``stats`` op, job ledger, benchmarks).
STAT_KEYS = (
    "jobs_submitted", "tasks_submitted", "computed", "warm_hits",
    "coalesced", "done", "failed", "cancelled", "requeued",
    "rejected_backpressure", "rejected_quota", "rejected_draining",
    "deduplicated", "replayed", "replayed_jobs",
)


def _admit_fields(job_id, tenant, kind, submitted, warm, coalesced, tasks,
                  payloads, key) -> Dict[str, Any]:
    """An ``admit`` record's fields (``key`` only when there is one)."""
    fields = dict(job=job_id, tenant=tenant, kind=kind, submitted=submitted,
                  warm=warm, coalesced=coalesced, tasks=tasks,
                  payloads=payloads)
    if key is not None:
        fields["key"] = key
    return fields


class ServiceState:
    """Jobs, computations and counters, changed only by :meth:`apply`."""

    def __init__(self) -> None:
        self.jobs: Dict[str, Job] = {}
        #: digest -> live (non-terminal) computation, for coalescing.
        self.inflight: Dict[str, Computation] = {}
        #: tenant -> non-terminal task slots of its live jobs (no zeros).
        self.outstanding: Dict[str, int] = {}
        #: idempotency key -> job id.
        self.idem: Dict[str, str] = {}
        self.next_id = 1
        self.stats: Dict[str, int] = dict.fromkeys(STAT_KEYS, 0)
        #: The newest job admitted; a snapshot carries it even when it
        #: is finished, so the job-id counter survives compaction.
        self._newest: Optional[Job] = None
        #: True when the last record applied was an orderly shutdown.
        self.clean_close = False
        #: Replay bookkeeping (set by ``JobJournal.replay``).
        self.records = self.corrupt_lines = self.segments = 0

    def live_jobs(self) -> List[Job]:
        """Jobs with work still outstanding."""
        return [job for job in self.jobs.values() if job.finished is None]

    def admit_record(
        self, tenant: str, kind: str, points: Sequence[Tuple[str, str, str]],
        hits: Dict[str, str], key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """The ``admit`` fields for ``points`` ``(name, digest, json)``.

        ``hits`` maps each warm digest to its artifact; those slots carry
        the outcome inline.  A point whose digest is in flight, or
        repeats an earlier point, coalesces.
        """
        tasks, payloads, seen, coalesced = [], {}, set(), 0
        for name, digest, payload in points:
            slot: Dict[str, Any] = {"name": name, "digest": digest}
            if digest in seen or digest in self.inflight:
                coalesced += 1
            seen.add(digest)
            if digest in hits:
                slot.update(state="done", cached=True, artifact=hits[digest])
            else:
                payloads[digest] = payload
            tasks.append(slot)
        return _admit_fields(f"job-{self.next_id:05d}", tenant, kind,
                             time.time(), len(hits), coalesced, tasks,
                             payloads, key)

    def deduplicate(self, key: str) -> Optional[Job]:
        """The job an idempotency key already names (counted), if any."""
        job = self.jobs.get(self.idem.get(key))
        if job is not None:
            self.stats["deduplicated"] += 1
        return job

    # -- transitions -------------------------------------------------------

    def apply(self, rec: Dict[str, Any]) -> List[Job]:
        """Fold one record in; returns the jobs it finished.

        Unknown kinds and records naming unknown jobs or digests change
        nothing: replay must never raise on what a crash left behind.
        """
        handler = getattr(self, f"_apply_{rec.get('t')}", None)
        return handler(rec) if handler is not None else []

    def _apply_admit(self, rec: Dict[str, Any]) -> List[Job]:
        job_id = rec.get("job")
        if not job_id or job_id in self.jobs:
            # A repeated id is a snapshot whose older segments a crash
            # mid-compaction left behind; they already rebuilt the job.
            return []
        number = job_id.rpartition("-")[2]
        if number.isdigit():
            self.next_id = max(self.next_id, int(number) + 1)
        payloads = rec.get("payloads") or {}
        comps: List[Computation] = []
        by_digest: Dict[str, Computation] = {}
        for slot in rec.get("tasks") or []:
            digest = slot.get("digest")
            if not digest:
                continue
            comp = by_digest.get(digest)
            if comp is None:
                name = slot.get("name") or digest[:16]
                if "state" in slot:  # born terminal
                    # Interned: every warm hit on one scenario then shares
                    # its digest and artifact strings.
                    artifact = slot.get("artifact")
                    comp = Computation(sys.intern(digest), "", name)
                    comp.resolve(
                        slot["state"],
                        artifact=None if artifact is None
                        else sys.intern(artifact),
                        error=slot.get("error"), cached=bool(slot.get("cached")),
                    )
                elif digest in self.inflight:
                    comp = self.inflight[digest]
                    self.stats["coalesced"] += 1
                else:
                    comp = Computation(digest, payloads.get(digest, ""), name)
                    self.inflight[digest] = comp
                by_digest[digest] = comp
            comps.append(comp)
        job = Job(
            job_id, rec.get("tenant") or "anonymous",
            rec.get("kind") or "scenario", comps,
            warm=rec.get("warm", 0), coalesced=rec.get("coalesced", 0),
            submitted=rec.get("submitted"),
        )
        self.jobs[job_id] = self._newest = job
        self._add(job.tenant, job.outstanding)
        key = rec.get("key")
        if key:
            job.idempotency_key = key
            self.idem[key] = job_id
        self.stats["jobs_submitted"] += 1
        self.stats["tasks_submitted"] += len(comps)
        self.stats["warm_hits"] += job.warm
        self.clean_close = False
        return self._finished([job])

    def _apply_start(self, rec: Dict[str, Any]) -> List[Job]:
        comp = self.inflight.get(rec.get("digest"))
        if comp is not None:
            if comp.state == "running":  # a retry after a worker death
                self.stats["requeued"] += 1
            comp.state = "running"
        return []

    def _apply_complete(self, rec: Dict[str, Any]) -> List[Job]:
        comp = self.inflight.pop(rec.get("digest"), None)
        if comp is None:
            return []
        waiters = list(comp.jobs)
        state, cached = rec.get("state") or "failed", bool(rec.get("cached"))
        comp.resolve(
            state, seconds=rec.get("seconds") or 0.0, error=rec.get("error"),
            artifact=rec.get("artifact"), cached=cached,
        )
        for job in waiters:
            self._add(job.tenant, -1)
        if state == "done":
            self.stats["warm_hits" if cached else "computed"] += 1
        return self._finished(waiters)

    def _apply_cancel(self, rec: Dict[str, Any]) -> List[Job]:
        job = self.jobs.get(rec.get("job"))
        if job is None or job.finished is not None:
            return []
        self._add(job.tenant, -sum(
            job.abandon(comp) for comp in job.computations
            if comp.state == "queued"
        ))
        return self._finished([job])

    def _apply_land(self, rec: Dict[str, Any]) -> List[Job]:
        job = self.jobs.get(rec.get("job"))
        if job is not None:
            job.run_id = rec.get("run_id")
        return []

    def _apply_clean_close(self, rec: Dict[str, Any]) -> List[Job]:
        # Everything before an orderly shutdown is settled, even work a
        # corrupt line left open.
        self.clean_close = True
        return [
            job for digest in list(self.inflight)
            for job in self._apply_complete({
                "digest": digest, "state": "cancelled",
                "error": "service shutting down",
            })
        ]

    def _add(self, tenant: str, n: int) -> None:
        left = self.outstanding.get(tenant, 0) + n
        if left:
            self.outstanding[tenant] = left
        else:
            self.outstanding.pop(tenant, None)

    def _finished(self, jobs: Iterable[Job]) -> List[Job]:
        """The (distinct) ``jobs`` that are now finished, counted."""
        done = [job for job in dict.fromkeys(jobs) if job.finished is not None]
        for job in done:
            self.stats[job.state] += 1
        return done

    # -- boot and compaction -----------------------------------------------

    def boot(self) -> List[Computation]:
        """Turn a replayed state into a serving one.

        Finished jobs and their idempotency keys are dropped (their
        history lives in the ledger and the store), started computations
        go back in line, work nobody waits on is dropped, and the
        counters restart for this server life.  Returns the computations
        still to run, in admission order.
        """
        self.jobs = {j: job for j, job in self.jobs.items()
                     if job.finished is None}
        self.idem = {k: j for k, j in self.idem.items() if j in self.jobs}
        for digest, comp in list(self.inflight.items()):
            if comp.jobs:
                comp.state = "queued"
            else:
                del self.inflight[digest]
        self.stats = dict.fromkeys(STAT_KEYS, 0)
        self.stats["replayed_jobs"] = len(self.jobs)
        return list(self.inflight.values())

    def snapshot(self) -> List[Dict[str, Any]]:
        """The live state as records (the compaction snapshot).

        An ``admit`` per live job with its settled slots inline -- a slot
        the job abandoned reads ``cancelled`` even while the computation
        runs on for another tenant -- then a ``start`` per started
        computation.  The newest job rides along even when finished, so
        the job-id counter survives; boot drops it again.
        """
        jobs = self.live_jobs()
        if self._newest is not None and self._newest.finished is not None:
            jobs.append(self._newest)
        return [self._job_record(job) for job in jobs] + [
            {"t": "start", "digest": digest}
            for digest, comp in self.inflight.items()
            if comp.state == "running"
        ]

    @staticmethod
    def _job_record(job: Job) -> Dict[str, Any]:
        tasks, payloads = [], {}
        for comp in job.computations:
            slot: Dict[str, Any] = {"name": comp.name, "digest": comp.digest}
            entry = job._slot_entry(comp)
            if entry["state"] in ("queued", "running"):
                payloads[comp.digest] = comp.scenario_json
            else:
                slot.update((k, entry[k]) for k in
                            ("state", "cached", "artifact", "error")
                            if k in entry)
            tasks.append(slot)
        return {"t": "admit", **_admit_fields(
            job.job_id, job.tenant, job.kind, job.submitted, job.warm,
            job.coalesced, tasks, payloads, job.idempotency_key,
        )}
