"""Darshan-like job-level I/O profiler.

Attach a :class:`DarshanProfiler` as an observer on a workload run (it is a
callable accepting :class:`~repro.ops.IORecord`); afterwards,
:meth:`DarshanProfiler.profile` yields the :class:`JobProfile` -- per-file
counters plus the job roll-up -- which is the input to
profile-driven workload synthesis (:mod:`repro.wgen.from_profile`) and to
the statistics/modeling phase (paper Fig. 4's arrow from phase 1 to 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.monitoring.counters import FileCounters, JobCounters
from repro.ops import IORecord


@dataclass
class JobProfile:
    """The output of one profiled job."""

    job_name: str
    n_ranks: int
    duration: float
    per_file: Dict[Tuple[str, int], FileCounters]
    job: JobCounters

    # -- queries ---------------------------------------------------------------
    def files(self) -> List[str]:
        return sorted({path for path, _ in self.per_file})

    def counters_for_file(self, path: str) -> FileCounters:
        """Counters for ``path`` summed over ranks."""
        total = FileCounters(path=path, rank=-1)
        found = False
        for (p, _), fc in self.per_file.items():
            if p != path:
                continue
            found = True
            total.reads += fc.reads
            total.writes += fc.writes
            total.bytes_read += fc.bytes_read
            total.bytes_written += fc.bytes_written
            total.meta_ops += fc.meta_ops
            total.seq_reads += fc.seq_reads
            total.seq_writes += fc.seq_writes
            total.max_byte_read = max(total.max_byte_read, fc.max_byte_read)
            total.max_byte_written = max(total.max_byte_written, fc.max_byte_written)
            for i, v in enumerate(fc.read_size_hist):
                total.read_size_hist[i] += v
            for i, v in enumerate(fc.write_size_hist):
                total.write_size_hist[i] += v
        if not found:
            raise KeyError(f"no counters for {path!r}")
        return total

    def io_fraction(self) -> float:
        """Fraction of job wall time spent in I/O (summed over ranks)."""
        if self.duration <= 0 or self.n_ranks <= 0:
            return 0.0
        return min(1.0, self.job.io_time / (self.duration * self.n_ranks))

    def report(self) -> str:
        """darshan-parser-style text report."""
        j = self.job
        lines = [
            f"# job: {self.job_name}  ranks: {self.n_ranks}  runtime: {self.duration:.3f}s",
            f"# files accessed: {j.files_accessed}",
            f"# total bytes: read {j.bytes_read}  written {j.bytes_written}",
            f"# total ops: read {j.reads}  write {j.writes}  meta {j.meta_ops}",
            f"# I/O time: read {j.read_time:.3f}s  write {j.write_time:.3f}s  "
            f"meta {j.meta_time:.3f}s  ({self.io_fraction():.1%} of job)",
            "#",
            "# per-file (summed over ranks):",
        ]
        for path in self.files():
            fc = self.counters_for_file(path)
            lines.append(
                f"  {path}: R {fc.reads} ops/{fc.bytes_read} B "
                f"(seq {fc.seq_read_fraction():.0%}), "
                f"W {fc.writes} ops/{fc.bytes_written} B "
                f"(seq {fc.seq_write_fraction():.0%}), meta {fc.meta_ops}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_name": self.job_name,
            "n_ranks": self.n_ranks,
            "duration": self.duration,
            "records": [fc.to_dict() for fc in self.per_file.values()],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "JobProfile":
        per_file: Dict[Tuple[str, int], FileCounters] = {}
        job = JobCounters()
        for rec in d["records"]:
            fc = FileCounters.from_dict(rec)
            per_file[(fc.path, fc.rank)] = fc
            job.fold(fc)
        return cls(
            job_name=d["job_name"],
            n_ranks=d["n_ranks"],
            duration=d["duration"],
            per_file=per_file,
            job=job,
        )


class DarshanProfiler:
    """Accumulates counters from observed records.

    Parameters
    ----------
    job_name:
        Label stored in the profile.
    layer:
        Which stack layer to profile (``"posix"`` matches Darshan's
        default POSIX module; Darshan's MPI-IO module corresponds to
        ``"mpiio"``).
    """

    def __init__(self, job_name: str = "job", layer: str = "posix"):
        self.job_name = job_name
        self.layer = layer
        self._per_file: Dict[Tuple[str, int], FileCounters] = {}
        self._t_first: Optional[float] = None
        self._t_last: float = 0.0
        self.records_seen = 0

    def __call__(self, rec: IORecord) -> None:
        """Observer entry point: feed one record."""
        if rec.layer != self.layer:
            return
        self.records_seen += 1
        if self._t_first is None:
            self._t_first = rec.start
        self._t_last = max(self._t_last, rec.end)
        key = (rec.path, rec.rank)
        fc = self._per_file.get(key)
        if fc is None:
            fc = FileCounters(path=rec.path, rank=rec.rank)
            self._per_file[key] = fc
        fc.observe(rec)

    def profile(self, n_ranks: Optional[int] = None) -> JobProfile:
        """Finalise and return the job profile."""
        job = JobCounters()
        for fc in self._per_file.values():
            job.fold(fc)
        ranks = n_ranks
        if ranks is None:
            ranks = (
                max((r for _, r in self._per_file), default=-1) + 1
            ) or 1
        duration = (self._t_last - self._t_first) if self._t_first is not None else 0.0
        return JobProfile(
            job_name=self.job_name,
            n_ranks=ranks,
            duration=duration,
            per_file=dict(self._per_file),
            job=job,
        )
