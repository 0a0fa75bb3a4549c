"""FSMonitor-like metadata event monitoring.

Paul et al.'s FSMonitor [27], [28] captures "the metadata file system
events in storage systems" at scale.  Here the :class:`FSMonitor`
subscribes to the metadata servers' listener hooks and accumulates a
namespace-event stream, with the rate and hot-directory analyses that
software-defined-cyberinfrastructure use cases need.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.ops import OpKind
from repro.pfs.filesystem import ParallelFileSystem

#: Metadata op kinds that mutate the namespace (reported as events).
MUTATING = {
    OpKind.CREATE,
    OpKind.UNLINK,
    OpKind.MKDIR,
    OpKind.RMDIR,
}


@dataclass(frozen=True)
class MetadataEvent:
    """One observed namespace event."""

    time: float
    kind: OpKind
    path: str

    @property
    def directory(self) -> str:
        return self.path.rsplit("/", 1)[0] or "/"


class FSMonitor:
    """Collects namespace events from every MDS of a file system.

    Parameters
    ----------
    pfs:
        File system to watch.
    include_reads:
        Also record non-mutating metadata ops (open/stat/...), as
        FSMonitor's "audit" mode does.
    """

    def __init__(self, pfs: ParallelFileSystem, include_reads: bool = False):
        self.include_reads = include_reads
        self.events: List[MetadataEvent] = []
        for mds, _node in pfs.mds_servers:
            mds.listeners.append(self._on_event)

    def _on_event(self, kind: OpKind, path: str, time: float) -> None:
        if kind in MUTATING or self.include_reads:
            self.events.append(MetadataEvent(time=time, kind=kind, path=path))

    # -- analysis ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def hot_directories(self, top: int = 5) -> List[tuple]:
        """Directories with the most events, as (dir, count) pairs."""
        counts = Counter(e.directory for e in self.events)
        return counts.most_common(top)

    def burstiness(self, bin_seconds: float = 1.0) -> float:
        """Coefficient of variation of per-bin event counts.

        0 for a perfectly steady stream; grows with burstiness.
        """
        if len(self.events) < 2:
            return 0.0
        times = np.array([e.time for e in self.events])
        t0, t1 = times.min(), times.max()
        n_bins = max(1, int(np.ceil((t1 - t0) / bin_seconds)))
        counts, _ = np.histogram(times, bins=n_bins)
        mean = counts.mean()
        if mean == 0:
            return 0.0
        return float(counts.std() / mean)
