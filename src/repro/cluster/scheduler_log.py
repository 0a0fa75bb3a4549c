"""Workload-manager (Slurm-like) job logs.

Paper Sec. IV-A-2 lists "workload manager logs (e.g., from Slurm or
TORQUE)" among the collectable data sources.  The :class:`SchedulerLog`
accumulates :class:`JobRecord` entries as experiments run; the end-to-end
monitor joins them with profiles and server statistics by time window,
exactly how production log-correlation studies (LOGAIDER [41], Park et
al. [43]) operate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class JobRecord:
    """One scheduler accounting record (sacct-style)."""

    job_id: int
    name: str
    user: str
    n_nodes: int
    n_ranks: int
    submit_time: float
    start_time: float
    end_time: Optional[float] = None
    state: str = "RUNNING"

    @property
    def wait_time(self) -> float:
        return self.start_time - self.submit_time

    @property
    def elapsed(self) -> float:
        if self.end_time is None:
            raise ValueError(f"job {self.job_id} has not ended")
        return self.end_time - self.start_time

    def overlaps(self, t0: float, t1: float) -> bool:
        end = self.end_time if self.end_time is not None else float("inf")
        return self.start_time < t1 and end > t0


class SchedulerLog:
    """An append-only job accounting log."""

    def __init__(self):
        self._jobs: Dict[int, JobRecord] = {}
        self._next_id = 1

    def submit(
        self,
        name: str,
        user: str,
        n_nodes: int,
        n_ranks: int,
        submit_time: float,
        start_time: Optional[float] = None,
    ) -> JobRecord:
        """Record a job submission (start defaults to immediate)."""
        if n_nodes <= 0 or n_ranks <= 0:
            raise ValueError("n_nodes and n_ranks must be positive")
        job = JobRecord(
            job_id=self._next_id,
            name=name,
            user=user,
            n_nodes=n_nodes,
            n_ranks=n_ranks,
            submit_time=submit_time,
            start_time=start_time if start_time is not None else submit_time,
        )
        self._next_id += 1
        self._jobs[job.job_id] = job
        return job

    def start(self, job_id: int, start_time: float) -> None:
        """Mark a queued job as started (batch-scheduler integration)."""
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id}")
        job.start_time = start_time
        job.state = "RUNNING"

    def complete(self, job_id: int, end_time: float, state: str = "COMPLETED") -> None:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id}")
        job.end_time = end_time
        job.state = state

    # -- queries -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._jobs)

    def job(self, job_id: int) -> JobRecord:
        if job_id not in self._jobs:
            raise KeyError(f"unknown job {job_id}")
        return self._jobs[job_id]

    def jobs(self) -> List[JobRecord]:
        return sorted(self._jobs.values(), key=lambda j: j.job_id)

    def concurrent_with(self, job_id: int) -> List[JobRecord]:
        """Other jobs that overlapped this one in time (interference suspects)."""
        me = self.job(job_id)
        end = me.end_time if me.end_time is not None else float("inf")
        return [
            j
            for j in self.jobs()
            if j.job_id != job_id and j.overlaps(me.start_time, end)
        ]
