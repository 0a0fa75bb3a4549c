"""ROSS-style logical-process kernel and its sequential reference executor.

The CODES storage-simulation framework surveyed by the paper (Snyder et al.
[20], Liu et al. [59]) is built atop ROSS, a parallel discrete-event
simulation (PDES) system in which the model is decomposed into *logical
processes* (LPs) that interact exclusively by exchanging timestamped events.

This module implements that programming model: the :class:`RossKernel`
that holds the LPs and mediates their sends, and
:class:`SequentialExecutor`, a single global event queue in full timestamp
order -- the reference implementation.  The two other executors live in
their own modules:

* :class:`~repro.des.partition.PartitionedExecutor` -- the YAWNS-style
  conservative windowed executor.  In each round it computes the lower
  bound on timestamps (LBTS) of all pending events and processes, per LP,
  every event with timestamp below ``LBTS + lookahead``.  Because every
  message carries a minimum delay of ``lookahead``, no event generated
  during a window can land inside it, which guarantees causal correctness
  without rollback.  With one partition it is the plain conservative
  executor.
* :class:`~repro.des.optimistic.OptimisticExecutor` -- Time Warp.

Determinism across executors: events are ordered by
``(time, source_lp, per-source sequence number)``.  Each LP numbers the
messages it sends, and an LP's processing order is identical under every
executor (proved inductively: each LP receives the same multiset of events
and sorts them by the same content-based key), so simulations are
bit-reproducible and executor-independent.  Ablation A1 validates this and
reports the parallelism the conservative windows expose.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class RossEvent:
    """A timestamped message between logical processes.

    Ordering is total and content-based: ``(time, source, source_seq)``.
    ``source`` is -1 for initial (kernel-injected) events.
    """

    time: float
    dest: int
    kind: str
    payload: Any = None
    source: int = -1
    source_seq: int = 0

    @property
    def sort_key(self) -> tuple:
        return (self.time, self.source, self.source_seq)

    def __lt__(self, other: "RossEvent") -> bool:
        return self.sort_key < other.sort_key


class LogicalProcess:
    """Base class for ROSS-style logical processes.

    Subclasses override :meth:`handle`; they send messages with
    ``kernel.send(...)`` and may keep arbitrary local state.  The
    ``state_digest`` hook lets tests compare end states across executors.
    """

    def __init__(self, lp_id: int):
        self.lp_id = lp_id
        self.events_handled = 0
        #: Per-LP log of handled event keys (used for determinism checks).
        self.trace: List[tuple] = []

    def handle(self, kernel: "RossKernel", event: RossEvent) -> None:
        """Process one event.  Subclasses must override."""
        raise NotImplementedError

    def state_digest(self) -> Any:
        """A hashable summary of LP state for cross-executor comparison."""
        return (self.lp_id, self.events_handled)

    def snapshot(self) -> Any:
        """State snapshot for optimistic (Time Warp) execution.

        The default deep-copies every mutable attribute; subclasses with
        expensive state may override with something cheaper (ROSS's
        incremental state saving).
        """
        import copy

        return copy.deepcopy(
            {k: v for k, v in self.__dict__.items() if k != "lp_id"}
        )

    def restore(self, state: Any) -> None:
        """Inverse of :meth:`snapshot` (rollback support)."""
        import copy

        self.__dict__.update(copy.deepcopy(state))

    def _dispatch(self, kernel: "RossKernel", event: RossEvent) -> None:
        self.events_handled += 1
        self.trace.append(event.sort_key + (event.kind,))
        self.handle(kernel, event)


class RossKernel:
    """Holds the LP population and mediates message sends.

    Parameters
    ----------
    lookahead:
        Minimum virtual-time delay of any message.  The conservative
        window width of :class:`~repro.des.partition.PartitionedExecutor`;
        the sequential executor also enforces it so the executors are
        interchangeable.
    """

    def __init__(self, lookahead: float = 0.0):
        if lookahead < 0:
            raise ValueError("lookahead must be non-negative")
        self.lookahead = float(lookahead)
        self.lps: Dict[int, LogicalProcess] = {}
        self._now = 0.0
        self._init_seq = 0
        self._send_counters: Dict[int, int] = {}
        self._outbox: List[RossEvent] = []
        self._current_lp: Optional[int] = None

    @property
    def now(self) -> float:
        """Virtual time of the event currently being handled."""
        return self._now

    def add_lp(self, lp: LogicalProcess) -> LogicalProcess:
        if lp.lp_id in self.lps:
            raise ValueError(f"duplicate LP id {lp.lp_id}")
        self.lps[lp.lp_id] = lp
        self._send_counters[lp.lp_id] = 0
        return lp

    def inject(self, time: float, dest: int, kind: str, payload: Any = None) -> RossEvent:
        """Schedule an initial event from outside any LP."""
        ev = RossEvent(time, dest, kind, payload, source=-1, source_seq=self._init_seq)
        self._init_seq += 1
        self._outbox.append(ev)
        return ev

    def send(self, dest: int, delay: float, kind: str, payload: Any = None) -> RossEvent:
        """Send a message from the currently-executing LP.

        ``delay`` must be at least ``lookahead`` (strictly positive if the
        lookahead is zero would break windowing, so conservative runs require
        lookahead > 0).
        """
        if self._current_lp is None:
            raise RuntimeError("send() may only be called from inside handle()")
        if dest not in self.lps:
            raise KeyError(f"unknown destination LP {dest}")
        if delay < self.lookahead:
            raise ValueError(
                f"message delay {delay} violates lookahead {self.lookahead}"
            )
        src = self._current_lp
        seq = self._send_counters[src]
        self._send_counters[src] = seq + 1
        ev = RossEvent(self._now + delay, dest, kind, payload, source=src, source_seq=seq)
        self._outbox.append(ev)
        return ev

    def _drain_outbox(self) -> List[RossEvent]:
        out, self._outbox = self._outbox, []
        return out

    def _execute_one(self, event: RossEvent) -> List[RossEvent]:
        """Run one event through its destination LP; return new messages."""
        lp = self.lps.get(event.dest)
        if lp is None:
            raise KeyError(f"event addressed to unknown LP {event.dest}")
        self._now = event.time
        self._current_lp = event.dest
        try:
            lp._dispatch(self, event)
        finally:
            self._current_lp = None
        return self._drain_outbox()

    def state_digests(self) -> Dict[int, Any]:
        return {lp_id: lp.state_digest() for lp_id, lp in self.lps.items()}


@dataclass
class ExecutionStats:
    """Summary of an executor run."""

    events: int = 0
    windows: int = 0
    #: Events processed in each window (windowed executors only).
    window_sizes: List[int] = field(default_factory=list)
    #: Critical-path bound: sum over windows of the max events any single LP
    #: handled in that window.  total events / critical_path is the speedup
    #: an ideal parallel machine could extract with this lookahead.
    critical_path: int = 0

    @property
    def parallelism_bound(self) -> float:
        """Upper bound on achievable PDES speedup for this run."""
        if self.critical_path == 0:
            return 1.0
        return self.events / self.critical_path


class SequentialExecutor:
    """Reference executor: one global heap in full timestamp order."""

    def __init__(self, kernel: RossKernel):
        self.kernel = kernel
        self.stats = ExecutionStats()

    def run(self, until: float = float("inf")) -> ExecutionStats:
        heap: List[RossEvent] = list(self.kernel._drain_outbox())
        heapq.heapify(heap)
        while heap and heap[0].time <= until:
            ev = heapq.heappop(heap)
            for new in self.kernel._execute_one(ev):
                heapq.heappush(heap, new)
            self.stats.events += 1
        self.stats.windows = self.stats.events  # degenerate: 1 event per "window"
        self.stats.critical_path = self.stats.events
        return self.stats
