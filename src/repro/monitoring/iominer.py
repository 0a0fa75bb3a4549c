"""Cross-job I/O log mining (IOMiner-like).

Wang et al.'s IOMiner [49] is a "large-scale analytics framework for
gaining knowledge from I/O logs": it mines fleets of Darshan logs for
platform-level insight -- who moves the bytes, which jobs are small-file
offenders, whether the platform is read- or write-dominated.  The
:class:`ProfileMiner` does the same over collections of
:class:`~repro.monitoring.profiler.JobProfile` objects, answering exactly
the questions the paper's Sec. V raises at fleet scale.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.monitoring.profiler import JobProfile


class ProfileMiner:
    """Queries over a fleet of job profiles."""

    def __init__(self, profiles: Sequence[JobProfile] = ()):
        self.profiles: List[JobProfile] = list(profiles)

    def add(self, profile: JobProfile) -> None:
        self.profiles.append(profile)

    def __len__(self) -> int:
        return len(self.profiles)

    def _require_nonempty(self) -> None:
        if not self.profiles:
            raise ValueError("no profiles to mine")

    # -- fleet-level aggregates ---------------------------------------------------
    def total_bytes(self) -> Dict[str, int]:
        self._require_nonempty()
        return {
            "read": sum(p.job.bytes_read for p in self.profiles),
            "written": sum(p.job.bytes_written for p in self.profiles),
        }

    def platform_read_share(self) -> float:
        """Fraction of fleet traffic that is reads (the Patel question)."""
        totals = self.total_bytes()
        moved = totals["read"] + totals["written"]
        if moved == 0:
            return 0.0
        return totals["read"] / moved

    def write_intensive_fraction(self) -> float:
        """Fraction of *jobs* that write more than they read."""
        self._require_nonempty()
        return sum(1 for p in self.profiles if p.job.write_intensive()) / len(
            self.profiles
        )

    # -- rankings and screens --------------------------------------------------------
    def top_talkers(self, n: int = 5, by: str = "bytes") -> List[JobProfile]:
        """Jobs moving the most data (or doing the most metadata)."""
        self._require_nonempty()
        if by == "bytes":
            key: Callable = lambda p: p.job.bytes_read + p.job.bytes_written
        elif by == "meta":
            key = lambda p: p.job.meta_ops
        elif by == "io_time":
            key = lambda p: p.job.io_time
        else:
            raise ValueError(f"unknown ranking {by!r}")
        return sorted(self.profiles, key=key, reverse=True)[:n]

    def small_access_jobs(self, threshold: int = 64 * 1024) -> List[JobProfile]:
        """Jobs whose average data access is below ``threshold`` bytes.

        The small-transaction offenders that stress parallel file systems
        (Sec. V's emerging-workload signature).
        """
        self._require_nonempty()
        out = []
        for p in self.profiles:
            ops = p.job.reads + p.job.writes
            if ops == 0:
                continue
            avg = (p.job.bytes_read + p.job.bytes_written) / ops
            if avg < threshold:
                out.append(p)
        return out

    def correlate(self, x_metric: str, y_metric: str) -> float:
        """Pearson correlation between two per-job metrics.

        Metrics: ``duration``, ``bytes``, ``meta_ops``, ``io_time``,
        ``n_ranks``.
        """
        self._require_nonempty()
        if len(self.profiles) < 2:
            raise ValueError("need at least two profiles to correlate")

        def value(p: JobProfile, metric: str) -> float:
            if metric == "duration":
                return p.duration
            if metric == "bytes":
                return float(p.job.bytes_read + p.job.bytes_written)
            if metric == "meta_ops":
                return float(p.job.meta_ops)
            if metric == "io_time":
                return p.job.io_time
            if metric == "n_ranks":
                return float(p.n_ranks)
            raise ValueError(f"unknown metric {metric!r}")

        x = np.array([value(p, x_metric) for p in self.profiles])
        y = np.array([value(p, y_metric) for p in self.profiles])
        if x.std() == 0 or y.std() == 0:
            return 0.0
        return float(np.corrcoef(x, y)[0, 1])

    def report(self) -> str:
        self._require_nonempty()
        totals = self.total_bytes()
        lines = [
            f"fleet: {len(self.profiles)} jobs, "
            f"{totals['read'] / 2**30:.2f} GiB read / "
            f"{totals['written'] / 2**30:.2f} GiB written "
            f"(read share {self.platform_read_share():.0%})",
            f"write-intensive jobs: {self.write_intensive_fraction():.0%}",
            "top talkers by bytes:",
        ]
        for p in self.top_talkers(3):
            moved = (p.job.bytes_read + p.job.bytes_written) / 2**20
            lines.append(f"  {p.job_name:<20} {moved:>10.1f} MiB, "
                         f"{p.job.meta_ops} meta ops")
        offenders = self.small_access_jobs()
        lines.append(
            f"small-access jobs (<64 KiB avg): "
            f"{', '.join(p.job_name for p in offenders) or 'none'}"
        )
        return "\n".join(lines)
