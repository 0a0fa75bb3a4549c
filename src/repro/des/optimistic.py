"""Time Warp optimistic executor for the ROSS-style kernel.

ROSS [60] is "a high-performance, low-memory, modular Time Warp system":
its signature synchronisation protocol is *optimistic* -- logical processes
execute speculatively past each other and recover from causality
violations by rolling back.  The conservative executor in
:mod:`repro.des.partition` is the safe baseline; this module adds the Time
Warp side so the kernel implements both of the PDES families the paper's
simulation taxonomy (Sec. IV-C-1) rests on.

Mechanics implemented (sequentially emulated, as with the conservative
executor -- the *protocol* is what is reproduced):

* **speculative execution**: each scheduling round lets every LP process a
  batch of its pending events regardless of global timestamp order;
* **state saving**: an LP snapshot is taken before every speculative
  event (copy-on-every-event, ROSS's original mode);
* **rollback**: a straggler message (timestamp below the LP's local
  virtual time) restores the snapshot, re-enqueues the undone events, and
  cancels their outputs;
* **anti-messages**: cancelled sends annihilate their positive message in
  the destination's queue, recursively rolling the destination back if it
  already processed them;
* **GVT & fossil collection**: the global virtual time (minimum unprocessed
  timestamp) bounds rollback; older history is committed and freed.

Statistics expose the classic Time Warp health metrics: rollbacks,
anti-messages, and efficiency (committed / processed events).

Determinism: Time Warp commits exactly the events a sequential run would
process, in the same per-LP order, so final LP states and traces match the
:class:`~repro.des.ross.SequentialExecutor` bit for bit -- the ablation
test asserts this.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.des.ross import RossEvent, RossKernel


@dataclass
class _Processed:
    """One speculatively processed event with everything needed to undo it."""

    event: RossEvent
    lp_snapshot: object
    send_counter: int
    outputs: Tuple[RossEvent, ...]


@dataclass
class OptimisticStats:
    """Time Warp health metrics."""

    events_processed: int = 0
    events_committed: int = 0
    events_rolled_back: int = 0
    rollbacks: int = 0
    anti_messages: int = 0
    gvt_rounds: int = 0
    max_rollback_depth: int = 0

    @property
    def efficiency(self) -> float:
        """Committed work / total work (1.0 = no wasted speculation)."""
        if self.events_processed == 0:
            return 1.0
        return self.events_committed / self.events_processed


class OptimisticExecutor:
    """Time Warp execution of a :class:`~repro.des.ross.RossKernel`.

    Parameters
    ----------
    kernel:
        The LP population.  Unlike the conservative executor, no positive
        lookahead is required (kernel lookahead may be 0, though sends of
        zero delay to *oneself* still work because self-messages land in
        the LP's own future queue).
    batch:
        Speculative events each LP may process per round before the next
        GVT computation.  Larger batches mean more optimism: more
        parallelism exposed, more rollback risk.
    """

    def __init__(self, kernel: RossKernel, batch: int = 4):
        if batch <= 0:
            raise ValueError("batch must be positive")
        self.kernel = kernel
        self.batch = batch
        self.stats = OptimisticStats()
        self._queues: Dict[int, List[RossEvent]] = {}
        self._processed: Dict[int, List[_Processed]] = {}
        self._cancelled: set = set()

    # -- helpers ---------------------------------------------------------------
    def _lvt(self, lp_id: int) -> Tuple:
        """Local virtual time: sort key of the last processed event."""
        hist = self._processed[lp_id]
        if not hist:
            return (-1.0,)
        return hist[-1].event.sort_key

    def _gvt(self) -> float:
        """Global virtual time: min unprocessed timestamp anywhere."""
        times = [q[0].time for q in self._queues.values() if q]
        return min(times) if times else float("inf")

    def _enqueue(self, ev: RossEvent) -> None:
        heapq.heappush(self._queues[ev.dest], ev)

    def _remove_from_queue(self, ev: RossEvent) -> bool:
        q = self._queues[ev.dest]
        try:
            q.remove(ev)
        except ValueError:
            return False
        heapq.heapify(q)
        return True

    # -- rollback machinery -------------------------------------------------------
    def _rollback(self, lp_id: int, to_key: Tuple) -> None:
        """Undo every processed event of ``lp_id`` with sort key >= to_key."""
        hist = self._processed[lp_id]
        undo: List[_Processed] = []
        while hist and hist[-1].event.sort_key >= to_key:
            undo.append(hist.pop())
        if not undo:
            return
        self.stats.rollbacks += 1
        self.stats.events_rolled_back += len(undo)
        self.stats.max_rollback_depth = max(self.stats.max_rollback_depth, len(undo))
        lp = self.kernel.lps[lp_id]
        # Restore to the state before the *earliest* undone event.
        earliest = undo[-1]
        lp.restore(earliest.lp_snapshot)
        self.kernel._send_counters[lp_id] = earliest.send_counter
        # Undone events go back to the queue; their outputs are cancelled.
        for entry in undo:
            self._enqueue(entry.event)
            for msg in entry.outputs:
                self._annihilate(msg)

    def _annihilate(self, msg: RossEvent) -> None:
        """Send the anti-message for ``msg``: cancel it wherever it is."""
        self.stats.anti_messages += 1
        if self._remove_from_queue(msg):
            return
        # Already processed by the destination: roll it back past the
        # message (which re-enqueues it), then remove it.
        dest_hist = self._processed[msg.dest]
        if any(p.event == msg for p in dest_hist):
            self._rollback(msg.dest, msg.sort_key)
            if not self._remove_from_queue(msg):
                raise RuntimeError(
                    "anti-message failed to annihilate its positive message"
                )

    # -- fossil collection ----------------------------------------------------------
    def _fossil_collect(self, gvt: float) -> None:
        for lp_id, hist in self._processed.items():
            keep_from = 0
            for i, entry in enumerate(hist):
                if entry.event.time < gvt:
                    keep_from = i + 1
                    self.stats.events_committed += 1
                else:
                    break
            if keep_from:
                del hist[:keep_from]

    # -- main loop ---------------------------------------------------------------------
    def run(self, until: float = float("inf")) -> OptimisticStats:
        self._queues = {lp_id: [] for lp_id in self.kernel.lps}
        self._processed = {lp_id: [] for lp_id in self.kernel.lps}
        for ev in self.kernel._drain_outbox():
            self._enqueue(ev)

        while True:
            gvt = self._gvt()
            if gvt > until:
                break
            self.stats.gvt_rounds += 1

            # One optimistic round: every LP speculates up to `batch`
            # events from its own queue, in its local order.
            progressed = False
            for lp_id in sorted(self._queues):
                for _ in range(self.batch):
                    q = self._queues[lp_id]
                    if not q or q[0].time > until:
                        break
                    ev = heapq.heappop(q)
                    lp = self.kernel.lps[lp_id]
                    snap = lp.snapshot()
                    counter = self.kernel._send_counters[lp_id]
                    outputs = tuple(self.kernel._execute_one(ev))
                    self._processed[lp_id].append(
                        _Processed(ev, snap, counter, outputs)
                    )
                    self.stats.events_processed += 1
                    progressed = True
                    for msg in outputs:
                        if msg.time <= ev.time:
                            raise ValueError(
                                "optimistic execution requires strictly "
                                "positive message delays"
                            )
                        if msg.sort_key <= self._lvt(msg.dest):
                            # Straggler: the destination ran past this
                            # timestamp -- roll it back, then deliver.
                            self._rollback(msg.dest, msg.sort_key)
                        self._enqueue(msg)
            self._fossil_collect(self._gvt())
            if not progressed:
                break

        # Commit whatever remains (simulation ended: everything is final).
        for hist in self._processed.values():
            self.stats.events_committed += len(hist)
            hist.clear()
        return self.stats
