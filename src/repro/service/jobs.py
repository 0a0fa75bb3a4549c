"""Job and computation model of the run service.

The service separates *what a client asked for* from *what actually
runs*:

* a :class:`Computation` is one scenario execution, keyed by the
  scenario's content digest.  It is the unit of scheduling, caching and
  coalescing: however many clients submit the same spec, there is at
  most one live computation per digest, and its finished artifact is
  the same content address the one-shot sweep path would produce.
* a :class:`Job` is one client submission: a tenant, a kind
  (``scenario`` or ``sweep``), and an ordered list of task slots, each
  pointing at a computation.  Warm slots point at a computation that
  was born terminal (served straight from the store); coalesced slots
  share a computation created by an earlier submission.

A job finishes when every computation it references is terminal; its
:meth:`Job.document` is the client-facing result *and* (for jobs that
computed fresh work) the payload of the ``service_job`` artifact landed
in the store, so service runs are addressable like any other run.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "JOB_STATES",
    "SERVICE_JOB_SCHEMA",
    "SERVICE_LEDGER_NAME",
    "SERVICE_LEDGER_SCHEMA",
    "Computation",
    "Job",
]

#: Lifecycle of a computation and (derived) of a job.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

SERVICE_JOB_SCHEMA = "repro.service.job/1"
#: The service job ledger, written next to the store (``repro-io watch``).
SERVICE_LEDGER_NAME = "service-jobs.json"
SERVICE_LEDGER_SCHEMA = "repro.service.jobs/1"

_TERMINAL = ("done", "failed", "cancelled")

#: What a job that never cancelled has abandoned (one object, shared).
_NONE_ABANDONED: frozenset = frozenset()


class Computation:
    """One scenario execution, keyed by scenario digest."""

    __slots__ = (
        "digest", "scenario_json", "name", "state", "cached", "seconds",
        "error", "artifact", "attempts", "jobs",
    )

    def __init__(self, digest: str, scenario_json: str, name: str):
        self.digest = digest
        self.scenario_json = scenario_json
        self.name = name
        self.state = "queued"
        #: True when the result was served from the store (warm hit).
        self.cached = False
        self.seconds = 0.0
        self.error: Optional[str] = None
        #: Content address of the finished ``sweep_point`` artifact.
        self.artifact: Optional[str] = None
        #: Times this computation was re-queued after a worker death.
        self.attempts = 0
        #: Jobs waiting on this computation (N waiters, one execution).
        self.jobs: List["Job"] = []

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    def resolve(
        self,
        state: str,
        *,
        seconds: float = 0.0,
        error: Optional[str] = None,
        artifact: Optional[str] = None,
        cached: bool = False,
    ) -> None:
        """Move to a terminal state and notify every waiting job."""
        self.state = state
        self.seconds = seconds
        self.error = error
        self.artifact = artifact
        self.cached = cached
        for job in self.jobs:
            job._computation_terminal()

    def task_entry(self) -> Dict[str, Any]:
        """This computation as one task row of a job document."""
        entry: Dict[str, Any] = {
            "name": self.name,
            "digest": self.digest,
            "state": self.state,
            "cached": self.cached,
            "seconds": self.seconds,
        }
        if self.attempts:
            entry["attempts"] = self.attempts
        if self.error is not None:
            entry["error"] = self.error
        if self.artifact is not None:
            entry["artifact"] = self.artifact
        return entry


class Job:
    """One client submission: an ordered list of computation slots."""

    __slots__ = (
        "job_id", "tenant", "kind", "submitted", "finished",
        "computations", "warm", "coalesced", "_done", "_pending",
        "_abandoned", "run_id", "idempotency_key",
    )

    def __init__(
        self,
        job_id: str,
        tenant: str,
        kind: str,
        computations: List[Computation],
        *,
        warm: int = 0,
        coalesced: int = 0,
        submitted: Optional[float] = None,
    ):
        self.job_id = job_id
        self.tenant = tenant
        self.kind = kind
        self.submitted = time.time() if submitted is None else submitted
        self.finished: Optional[float] = None
        self.computations = computations
        self.warm = warm
        self.coalesced = coalesced
        #: Client-chosen exactly-once submission key (``submit``).
        self.idempotency_key: Optional[str] = None
        #: Run-document id landed in the store (fresh-compute jobs only).
        self.run_id: Optional[str] = None
        #: Set when the job finishes; created only for a waiter that
        #: arrives before then (see wait()), so a job born finished -- every
        #: warm hit -- never allocates one.
        self._done: Optional[asyncio.Event] = None
        #: Ids of computations this job cancelled out of (see abandon()).
        self._abandoned = _NONE_ABANDONED
        self._pending = sum(1 for c in computations if not c.terminal)
        for comp in computations:
            if not comp.terminal:
                comp.jobs.append(self)
        if self._pending == 0:
            self._finish()

    # -- state ---------------------------------------------------------------

    def _computation_terminal(self) -> None:
        self._pending -= 1
        if self._pending <= 0 and self.finished is None:
            self._finish()

    def _finish(self) -> None:
        self.finished = time.time()
        done, self._done = self._done, None
        if done is not None:
            done.set()

    async def wait(self) -> None:
        """Return once the job has finished."""
        if self.finished is not None:
            return
        if self._done is None:
            self._done = asyncio.Event()
        await self._done.wait()

    def abandon(self, comp: Computation) -> int:
        """Stop waiting on a not-yet-terminal computation (client cancel).

        Detaches this job from the computation's waiter list so that
        sequential cancels compose: once the last waiter abandons a
        queued computation, the scheduler can drop it.  The abandoned
        slots read ``cancelled`` in this job's documents even if the
        computation later finishes for another tenant.  Returns the
        number of task slots released (a sweep may hold duplicates).
        """
        if comp.terminal:
            return 0
        released = 0
        while self in comp.jobs:
            comp.jobs.remove(self)
            released += 1
        if released:
            self._abandoned = self._abandoned | {id(comp)}
            for _ in range(released):
                self._computation_terminal()
        return released

    def _slot_state(self, comp: Computation) -> str:
        return "cancelled" if id(comp) in self._abandoned else comp.state

    @property
    def state(self) -> str:
        states = {self._slot_state(c) for c in self.computations}
        if "running" in states:
            return "running"
        if "queued" in states:
            return "queued"
        if "failed" in states:
            return "failed"
        if "cancelled" in states:
            return "cancelled"
        return "done"

    @property
    def outstanding(self) -> int:
        """Non-terminal computations (what quotas count)."""
        return max(self._pending, 0)

    # -- documents -----------------------------------------------------------

    def document(self) -> Dict[str, Any]:
        """The full client-facing (and store-landed) job document."""
        doc: Dict[str, Any] = {
            "schema": SERVICE_JOB_SCHEMA,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "state": self.state,
            "submitted": self.submitted,
            "finished": self.finished,
            "total": len(self.computations),
            "warm": self.warm,
            "coalesced": self.coalesced,
            "tasks": [self._slot_entry(c) for c in self.computations],
        }
        if self.run_id is not None:
            doc["run_id"] = self.run_id
        return doc

    def _slot_entry(self, comp: Computation) -> Dict[str, Any]:
        entry = comp.task_entry()
        if id(comp) in self._abandoned:
            entry["state"] = "cancelled"
            entry["cached"] = False
            entry.setdefault("error", "cancelled by client")
        return entry

    def summary(self) -> Dict[str, Any]:
        """The compact per-job row of the service ledger / ``jobs`` op."""
        entry: Dict[str, Any] = {
            "status": self.state,
            "tenant": self.tenant,
            "kind": self.kind,
            "total": len(self.computations),
            "warm": self.warm,
            "submitted": self.submitted,
        }
        errors = [c.error for c in self.computations if c.error is not None]
        if errors:
            entry["error"] = errors[0]
        if self.finished is not None:
            entry["seconds"] = self.finished - self.submitted
        return entry
