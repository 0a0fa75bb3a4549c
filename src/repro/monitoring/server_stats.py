"""Server-side statistics collection.

Paper Sec. IV-A-2: "storage and system administrators can collect
additional *server-side statistics* of the file system, e.g., load on the
servers and storage devices".  The :class:`ServerStatsCollector` runs a
sampling process inside the simulation that periodically records per-server
queue lengths, utilisation and byte counters -- the data source for
storage-system-level analyses (Patel et al. [53], Paul et al. [54]) and
for the end-to-end correlation of :mod:`repro.monitoring.endtoend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.pfs.filesystem import ParallelFileSystem


@dataclass(frozen=True)
class ServerSample:
    """One sampling instant for one server."""

    time: float
    server: str
    kind: str  # "mds" | "oss"
    queue_length: int
    in_service: int
    utilization: float
    bytes_read: int
    bytes_written: int
    ops: int


class ServerStatsCollector:
    """Periodic sampler over a file system's servers.

    Parameters
    ----------
    pfs:
        The file system to observe.
    interval:
        Sampling period in simulated seconds.

    Start with :meth:`start` (spawns the sampling process); samples
    accumulate until the simulation ends.
    """

    def __init__(self, pfs: ParallelFileSystem, interval: float = 1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.pfs = pfs
        self.interval = interval
        self.samples: List[ServerSample] = []
        self._started = False

    def start(self) -> None:
        """Spawn the sampling process (idempotent)."""
        if self._started:
            return
        self._started = True
        self.pfs.env.process(self._sample_loop())

    def _take_sample(self) -> None:
        now = self.pfs.env.now
        for mds, node in self.pfs.mds_servers:
            self.samples.append(
                ServerSample(
                    time=now,
                    server=node,
                    kind="mds",
                    queue_length=mds.queue_length,
                    in_service=mds.in_service,
                    utilization=mds.utilization(),
                    bytes_read=0,
                    bytes_written=0,
                    ops=mds.total_ops,
                )
            )
        for oss, node in self.pfs.oss_servers:
            self.samples.append(
                ServerSample(
                    time=now,
                    server=node,
                    kind="oss",
                    queue_length=oss.queue_length,
                    in_service=oss.in_service,
                    utilization=oss.utilization(),
                    bytes_read=oss.stats.bytes_read,
                    bytes_written=oss.stats.bytes_written,
                    ops=oss.stats.ops,
                )
            )

    def _sample_loop(self):
        while True:
            self._take_sample()
            yield self.pfs.env.timeout(self.interval)

    # -- analysis ------------------------------------------------------------------
    def servers(self) -> List[str]:
        return sorted({s.server for s in self.samples})

    def peak_queue_length(self, kind: Optional[str] = None) -> int:
        relevant = [s for s in self.samples if kind is None or s.kind == kind]
        return max((s.queue_length for s in relevant), default=0)

    def load_imbalance(self, kind: str = "oss") -> float:
        """max/mean of final per-server op counts (1.0 = perfectly balanced).

        The metric I/O load-balancing work (Paul et al. [29], iez [46])
        optimises.
        """
        finals = {}
        for s in self.samples:
            if s.kind == kind:
                finals[s.server] = s.ops
        if not finals:
            return 1.0
        values = np.array(list(finals.values()), dtype=float)
        if values.mean() == 0:
            return 1.0
        return float(values.max() / values.mean())
