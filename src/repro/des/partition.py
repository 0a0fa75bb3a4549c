"""Conservative (YAWNS) windowed execution of the ROSS-style LP kernel.

Each round computes the lower bound on timestamps (LBTS) of all pending
events, and every LP processes its pending events below ``LBTS +
lookahead``; messages carry at least ``lookahead`` of delay, so none can
land inside the window that generated it.  One partition is the plain
conservative executor (ablation A1, and the ``"partitioned"`` scale
engine run with ``--engine-workers 1``).

The executor runs every window on one core, directly on the kernel's own
LPs.  A :class:`PartitionPlan` (ideally along fabric islands -- racks /
OSS groups -- so that most traffic stays inside a partition) is used for
accounting only: which partitions each window occupies, how many events
each partition handles, and how many messages cross a partition boundary.
Together with the window sizes and the critical path, that is the
parallelism the lookahead *exposes* -- what a parallel machine could
extract -- reported without claiming any of it.  Windows, window sizes
and the critical path do not depend on the partition count.

Determinism: an LP processes exactly the same events in exactly the same
local order as under the sequential executor, so final LP states and
per-LP traces are bit-identical across executors and partition plans
(the engine-equivalence property tests pin this).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.des.engine import SimulationError
from repro.des.ross import ExecutionStats, RossKernel
from repro.telemetry import TELEMETRY

_INF = float("inf")


def _degenerate_window_error(lbts: float, lookahead: float) -> SimulationError:
    """A window that admits no events would loop forever; fail loudly.

    This happens when the lookahead vanishes against the magnitude of the
    clock (``lbts + lookahead == lbts`` in float64) -- an effectively
    zero-lookahead configuration.  Raising is the difference between a
    clear diagnostic and a silent spin.
    """
    return SimulationError(
        f"degenerate conservative window at t={lbts!r}: lookahead "
        f"{lookahead!r} vanishes against the clock (lbts + lookahead == "
        f"lbts in float64), so the window can never admit an event. "
        f"Increase the lookahead or rescale the model's time units."
    )


# ---------------------------------------------------------------------------
# Partition plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of LP ids to partitions.

    ``assignment`` maps every LP id to a partition index in
    ``[0, n_partitions)``.  Build one with :meth:`round_robin` or
    :meth:`contiguous`.
    """

    n_partitions: int
    assignment: Dict[int, int]

    def __post_init__(self):
        if self.n_partitions < 1:
            raise ValueError("need at least one partition")
        bad = {lp: p for lp, p in self.assignment.items()
               if not 0 <= p < self.n_partitions}
        if bad:
            raise ValueError(f"LP(s) assigned outside partition range: {bad}")

    @classmethod
    def round_robin(cls, lp_ids: Sequence[int], n_partitions: int) -> "PartitionPlan":
        ids = sorted(lp_ids)
        n = max(1, min(n_partitions, len(ids)))
        return cls(n, {lp: i % n for i, lp in enumerate(ids)})

    @classmethod
    def contiguous(cls, lp_ids: Sequence[int], n_partitions: int) -> "PartitionPlan":
        """Equal contiguous slices of the sorted id space.

        The right default for island-numbered models: neighbouring islands
        (which exchange halo traffic) land in the same partition.
        """
        ids = sorted(lp_ids)
        n = max(1, min(n_partitions, len(ids)))
        per = -(-len(ids) // n)  # ceil division
        return cls(n, {lp: min(i // per, n - 1) for i, lp in enumerate(ids)})

    def describe(self) -> str:
        sizes = [0] * self.n_partitions
        for p in self.assignment.values():
            sizes[p] += 1
        return (f"{self.n_partitions} partition(s) over "
                f"{len(self.assignment)} LP(s), sizes {sizes}")


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

@dataclass
class PartitionStats(ExecutionStats):
    """Execution stats plus partition-level occupancy accounting."""

    partitions: int = 1
    #: Total events each partition processed over the whole run.
    partition_events: List[int] = field(default_factory=list)
    #: Per window: how many partitions processed at least one event.  The
    #: exposed-parallelism signal -- a window occupying one partition
    #: offers a parallel machine nothing to overlap.
    occupied_partitions: List[int] = field(default_factory=list)
    #: Events that crossed a partition boundary (synchronization traffic).
    exchanged: int = 0

    @property
    def mean_occupancy(self) -> float:
        """Average number of partitions active per window."""
        if not self.occupied_partitions:
            return 0.0
        return sum(self.occupied_partitions) / len(self.occupied_partitions)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

class PartitionedExecutor:
    """Conservative windowed execution with partition accounting.

    Parameters
    ----------
    kernel:
        A populated :class:`RossKernel` with positive lookahead.
    plan:
        LP-to-partition assignment.  Defaults to a single partition.
    """

    def __init__(self, kernel: RossKernel, plan: Optional[PartitionPlan] = None):
        if kernel.lookahead <= 0:
            raise ValueError("partitioned execution requires positive lookahead")
        if plan is None:
            plan = PartitionPlan.round_robin(sorted(kernel.lps), 1)
        self.kernel = kernel
        self.lookahead = kernel.lookahead
        self.plan = plan
        self.stats = PartitionStats(
            partitions=plan.n_partitions,
            partition_events=[0] * plan.n_partitions,
        )

    def run(self, until: float = _INF) -> PartitionStats:
        kernel, assignment = self.kernel, self.plan.assignment
        missing = sorted(set(kernel.lps) - set(assignment))
        if missing:
            raise ValueError(f"partition plan does not cover LP(s): {missing}")
        # Partitions in index order, LPs in id order within each.
        queues: Dict[int, list] = {
            lp_id: [] for lp_id in sorted(kernel.lps,
                                          key=lambda i: (assignment[i], i))
        }
        for ev in kernel._drain_outbox():
            heapq.heappush(queues[ev.dest], ev)
        while True:
            lbts = min((q[0].time for q in queues.values() if q), default=_INF)
            if lbts == _INF or lbts > until:
                break
            horizon = lbts + self.lookahead
            if not horizon > lbts:
                raise _degenerate_window_error(lbts, self.lookahead)
            per_partition = [0] * self.plan.n_partitions
            max_per_lp = exchanged = 0
            for lp_id, q in queues.items():
                if not q:
                    continue
                part = assignment[lp_id]
                handled = 0
                while q and q[0].time < horizon and q[0].time <= until:
                    for new in kernel._execute_one(heapq.heappop(q)):
                        if new.time < horizon:
                            raise RuntimeError(
                                "causality violation: generated event inside "
                                "the current window (lookahead contract broken)"
                            )
                        heapq.heappush(queues[new.dest], new)
                        if assignment[new.dest] != part:
                            exchanged += 1
                    handled += 1
                per_partition[part] += handled
                if handled > max_per_lp:
                    max_per_lp = handled
            self._record_window(lbts, per_partition, max_per_lp, exchanged)
        self._publish_telemetry()
        return self.stats

    def _record_window(
        self, now: float, per_partition: List[int], max_per_lp: int,
        exchanged: int,
    ) -> None:
        """Fold one window into the stats; when telemetry is on, also
        record the occupancy/exchange time series at the window's LBTS
        (simulated seconds)."""
        stats = self.stats
        window_events = sum(per_partition)
        stats.events += window_events
        stats.windows += 1
        stats.window_sizes.append(window_events)
        stats.critical_path += max_per_lp
        occupied = sum(1 for n in per_partition if n)
        stats.occupied_partitions.append(occupied)
        stats.exchanged += exchanged
        for p, n in enumerate(per_partition):
            stats.partition_events[p] += n
        if TELEMETRY.active:
            series = TELEMETRY.series
            series.record("des.partition.occupancy", now, occupied, "partitions")
            series.record("des.partition.window_events", now, window_events, "events")
            series.record("des.partition.exchanged", now, exchanged, "events")

    def _publish_telemetry(self) -> None:
        if not TELEMETRY.active:
            return
        m = TELEMETRY.metrics
        s = self.stats
        m.counter("des.partition.windows").inc(s.windows)
        m.counter("des.partition.events").inc(s.events)
        m.counter("des.partition.exchanged").inc(s.exchanged)
        for occupied in s.occupied_partitions:
            m.histogram("des.partition.window_occupancy").observe(occupied)
        for p, n in enumerate(s.partition_events):
            m.counter(f"des.partition.p{p}.events").inc(n)

    # -- result access -------------------------------------------------------
    def state_digests(self) -> Dict[int, Any]:
        """Final ``state_digest()`` of every LP."""
        return self.kernel.state_digests()

    def traces(self) -> Dict[int, list]:
        """Per-LP handled-event traces (determinism checks)."""
        return {lp_id: lp.trace for lp_id, lp in self.kernel.lps.items()}

    def collect(self, method: str) -> Dict[int, Any]:
        """Call ``method()`` on every LP that defines it (model-level
        outcomes of a run)."""
        return {
            lp_id: getattr(lp, method)()
            for lp_id, lp in self.kernel.lps.items()
            if hasattr(lp, method)
        }


__all__ = [
    "PartitionPlan",
    "PartitionStats",
    "PartitionedExecutor",
]
