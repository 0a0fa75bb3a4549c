"""End-to-end I/O monitoring and correlation.

Paper Sec. IV-A-2: "recent work has proposed to develop all-encompassing
and cohesive monitoring systems which can capture *end-to-end I/O
behavior* of jobs at each step along their I/O path" (UMAMI [44], TOKIO
[42], Yang et al. [45]).

The :class:`EndToEndMonitor` bundles the job-level profiler, the
server-side sampler, the metadata event monitor and the scheduler log for
one experiment, and produces an :class:`EndToEndReport` that joins them:
per-job I/O metrics side by side with the storage-system state during the
job's time window -- the UMAMI "metrics panel".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.scheduler_log import JobRecord, SchedulerLog
from repro.monitoring.fsmonitor import FSMonitor
from repro.monitoring.profiler import DarshanProfiler, JobProfile
from repro.monitoring.server_stats import ServerStatsCollector
from repro.pfs.filesystem import ParallelFileSystem


@dataclass
class JobWindowMetrics:
    """One job's row in the end-to-end panel."""

    job_id: int
    name: str
    duration: float
    bytes_written: int
    bytes_read: int
    io_fraction: float
    concurrent_jobs: int
    mean_oss_utilization: float
    peak_oss_queue: int
    metadata_events: int


@dataclass
class EndToEndReport:
    """Joined view over all monitoring sources for one experiment."""

    rows: List[JobWindowMetrics] = field(default_factory=list)

    def row_for(self, job_id: int) -> JobWindowMetrics:
        for row in self.rows:
            if row.job_id == job_id:
                return row
        raise KeyError(f"no row for job {job_id}")

    def panel(self) -> str:
        """UMAMI-style text panel."""
        header = (
            f"{'job':>4} {'name':<16} {'dur(s)':>8} {'GiB W':>8} {'GiB R':>8} "
            f"{'io%':>5} {'co-jobs':>7} {'ossU':>5} {'peakQ':>5} {'mdEv':>6}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.job_id:>4} {r.name:<16.16} {r.duration:>8.2f} "
                f"{r.bytes_written / 2**30:>8.3f} {r.bytes_read / 2**30:>8.3f} "
                f"{r.io_fraction:>5.1%} {r.concurrent_jobs:>7} "
                f"{r.mean_oss_utilization:>5.2f} {r.peak_oss_queue:>5} "
                f"{r.metadata_events:>6}"
            )
        return "\n".join(lines)


class EndToEndMonitor:
    """All monitoring sources for one experiment, wired together.

    Usage::

        e2e = EndToEndMonitor(pfs)
        e2e.start()
        profiler = e2e.new_job_profiler("ior")       # pass as run observer
        result = run_workload(..., observers=[profiler])
        e2e.finish_job(profiler, result)             # close the job record
        report = e2e.report()
    """

    def __init__(self, pfs: ParallelFileSystem, sample_interval: float = 0.5):
        self.pfs = pfs
        self.server_stats = ServerStatsCollector(pfs, interval=sample_interval)
        self.fsmonitor = FSMonitor(pfs)
        self.scheduler = SchedulerLog()
        self._profiles: Dict[int, JobProfile] = {}
        self._active: Dict[int, DarshanProfiler] = {}
        self._job_windows: Dict[int, tuple] = {}

    def start(self) -> None:
        self.server_stats.start()

    def new_job_profiler(
        self, name: str, user: str = "user", n_nodes: int = 1, n_ranks: int = 1
    ) -> DarshanProfiler:
        """Open a job record and return its profiler (use as observer)."""
        now = self.pfs.env.now
        job = self.scheduler.submit(
            name=name, user=user, n_nodes=n_nodes, n_ranks=n_ranks, submit_time=now
        )
        profiler = DarshanProfiler(job_name=name)
        profiler.job_id = job.job_id  # type: ignore[attr-defined]
        self._active[job.job_id] = profiler
        return profiler

    def finish_job(self, profiler: DarshanProfiler, n_ranks: Optional[int] = None) -> JobProfile:
        """Close the job's scheduler record and store its profile."""
        job_id = getattr(profiler, "job_id", None)
        if job_id is None or job_id not in self._active:
            raise ValueError("profiler was not created by new_job_profiler")
        now = self.pfs.env.now
        self.scheduler.complete(job_id, end_time=now)
        job = self.scheduler.job(job_id)
        profile = profiler.profile(n_ranks=n_ranks)
        self._profiles[job_id] = profile
        self._job_windows[job_id] = (job.start_time, now)
        del self._active[job_id]
        return profile

    # -- the join -------------------------------------------------------------------
    def report(self) -> EndToEndReport:
        report = EndToEndReport()
        for job_id, profile in sorted(self._profiles.items()):
            t0, t1 = self._job_windows[job_id]
            job = self.scheduler.job(job_id)
            oss_samples = [
                s
                for s in self.server_stats.samples
                if s.kind == "oss" and t0 <= s.time <= t1
            ]
            mean_util = (
                float(np.mean([s.utilization for s in oss_samples]))
                if oss_samples
                else 0.0
            )
            peak_q = max((s.queue_length for s in oss_samples), default=0)
            md_events = sum(1 for e in self.fsmonitor.events if t0 <= e.time <= t1)
            report.rows.append(
                JobWindowMetrics(
                    job_id=job_id,
                    name=job.name,
                    duration=t1 - t0,
                    bytes_written=profile.job.bytes_written,
                    bytes_read=profile.job.bytes_read,
                    io_fraction=profile.io_fraction(),
                    concurrent_jobs=len(self.scheduler.concurrent_with(job_id)),
                    mean_oss_utilization=mean_util,
                    peak_oss_queue=peak_q,
                    metadata_events=md_events,
                )
            )
        return report
