"""Batch scheduler (Slurm-like workload manager).

Paper Sec. IV-A-2 lists workload-manager logs among the collectable data;
Azevedo et al. [37] simulate an HTC system's scheduler to improve fairness.
This module provides the active side of that substrate: a node-allocating
batch scheduler with FCFS and EASY-backfill policies, writing a
:class:`~repro.cluster.scheduler_log.SchedulerLog` as it runs -- so
queueing delay, utilisation and scheduling-policy questions can be studied
on the same simulated center the I/O experiments use.

Jobs carry either a fixed runtime or an arbitrary simulated-process body
(e.g. a workload run), so I/O-induced runtime variation feeds back into
the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional

from repro.cluster.scheduler_log import JobRecord, SchedulerLog
from repro.des.engine import Environment


@dataclass
class _QueuedJob:
    record: JobRecord
    n_nodes: int
    runtime_estimate: float
    body: Optional[Callable[[], Generator]]
    done_event: object


class BatchScheduler:
    """A node-allocating batch scheduler.

    Parameters
    ----------
    env:
        Simulation environment.
    total_nodes:
        Node pool size.
    policy:
        ``"fcfs"`` (strict order) or ``"backfill"`` (EASY backfilling:
        later jobs may start out of order iff they cannot delay the
        reserved start of the queue head, judged by runtime estimates).
    log:
        Scheduler log to write (created if omitted).
    """

    def __init__(
        self,
        env: Environment,
        total_nodes: int,
        policy: str = "fcfs",
        log: Optional[SchedulerLog] = None,
    ):
        if total_nodes <= 0:
            raise ValueError("total_nodes must be positive")
        if policy not in ("fcfs", "backfill"):
            raise ValueError(f"unknown policy {policy!r}")
        self.env = env
        self.total_nodes = total_nodes
        self.policy = policy
        self.log = log or SchedulerLog()
        self.available = total_nodes
        self._queue: List[_QueuedJob] = []
        #: (n_nodes, estimated_end) of currently running jobs.
        self._running: List[List] = []
        self.jobs_completed = 0

    # -- submission --------------------------------------------------------------
    def submit(
        self,
        name: str,
        n_nodes: int,
        runtime_estimate: float,
        body: Optional[Callable[[], Generator]] = None,
        user: str = "user",
        n_ranks: Optional[int] = None,
    ):
        """Queue a job; returns an event that fires when the job completes.

        ``body`` is an optional zero-argument generator function executed
        as the job (its real duration may differ from the estimate, as in
        production); without one the job sleeps for its estimate.
        """
        if n_nodes > self.total_nodes:
            raise ValueError(
                f"job needs {n_nodes} nodes but the machine has {self.total_nodes}"
            )
        if runtime_estimate <= 0:
            raise ValueError("runtime_estimate must be positive")
        record = self.log.submit(
            name=name,
            user=user,
            n_nodes=n_nodes,
            n_ranks=n_ranks if n_ranks is not None else n_nodes,
            submit_time=self.env.now,
        )
        record.state = "PENDING"
        done = self.env.event()
        self._queue.append(
            _QueuedJob(
                record=record, n_nodes=n_nodes,
                runtime_estimate=runtime_estimate, body=body, done_event=done,
            )
        )
        self._try_schedule()
        return done

    # -- scheduling core -----------------------------------------------------------
    def _shadow_time(self, needed: int) -> float:
        """Earliest time ``needed`` nodes will be free (by estimates)."""
        free = self.available
        ends = sorted(self._running, key=lambda r: r[1])
        for n_nodes, est_end in ends:
            if free >= needed:
                break
            free += n_nodes
            if free >= needed:
                return est_end
        return self.env.now if free >= needed else float("inf")

    def _try_schedule(self) -> None:
        # Start in-order jobs while they fit.
        while self._queue and self._queue[0].n_nodes <= self.available:
            self._start(self._queue.pop(0))
        if self.policy != "backfill" or not self._queue:
            return
        # EASY backfill: the head gets a reservation at shadow_time; any
        # later job may start now if it fits AND (it finishes before the
        # reservation OR it only uses nodes the head will not need).
        head = self._queue[0]
        shadow = self._shadow_time(head.n_nodes)
        # Nodes that remain free even once the head starts at shadow time.
        extra = self.available - head.n_nodes
        i = 1
        while i < len(self._queue):
            job = self._queue[i]
            fits_now = job.n_nodes <= self.available
            ends_in_time = self.env.now + job.runtime_estimate <= shadow
            within_extra = extra >= 0 and job.n_nodes <= extra
            if fits_now and (ends_in_time or within_extra):
                self._start(self._queue.pop(i))
                if within_extra:
                    extra -= job.n_nodes
                continue
            i += 1

    def _start(self, job: _QueuedJob) -> None:
        self.available -= job.n_nodes
        self.log.start(job.record.job_id, self.env.now)
        entry = [job.n_nodes, self.env.now + job.runtime_estimate]
        self._running.append(entry)
        self.env.process(self._run(job, entry))

    def _run(self, job: _QueuedJob, entry) -> Generator:
        try:
            if job.body is not None:
                yield from job.body()
            else:
                yield self.env.timeout(job.runtime_estimate)
        finally:
            self.available += job.n_nodes
            self._running.remove(entry)
            self.log.complete(job.record.job_id, end_time=self.env.now)
            self.jobs_completed += 1
            job.done_event.succeed(job.record.job_id)
            self._try_schedule()

    # -- reporting ----------------------------------------------------------------
    def mean_wait(self) -> float:
        """Mean queueing delay of completed jobs."""
        waits = [
            j.wait_time for j in self.log.jobs() if j.state == "COMPLETED"
        ]
        if not waits:
            raise ValueError("no completed jobs")
        return sum(waits) / len(waits)

    def makespan(self) -> float:
        ends = [j.end_time for j in self.log.jobs() if j.end_time is not None]
        starts = [j.submit_time for j in self.log.jobs()]
        if not ends:
            raise ValueError("no completed jobs")
        return max(ends) - min(starts)
