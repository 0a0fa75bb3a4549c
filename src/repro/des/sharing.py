"""Processor-sharing bandwidth resources.

A :class:`FairShareLink` models a shared medium (network link, storage
device channel) of fixed aggregate rate.  All concurrent transfers progress
simultaneously, each receiving an equal share of the rate (classic
processor-sharing / fair-queueing fluid model).  This captures the key
contention effect in parallel I/O: N clients writing through one link each
see roughly 1/N of its bandwidth -- which is what makes cross-application
interference (claim C10) and fabric bottlenecks emerge from the model rather
than being baked in.

Implementation: *incremental* virtual-service accounting.  Because every
active flow receives the same share, the service each flow has accumulated
since it joined is a single link-wide number: ``_virtual``, the bytes
delivered to each active flow since the link's current busy period began.
A flow entering with ``nbytes`` to move finishes when ``_virtual`` reaches
``_virtual + nbytes``; that *finish tag* is fixed at admission, so the
active set is a min-heap of ``(finish_tag, seq, target)`` tuples (``seq``
is unique, so ``target`` is never compared and every heap comparison runs
in C).  A flow-set change costs O(log n) (heap push/pop) instead of the
O(n) per-flow ``remaining`` rewrite of the naive model -- O(n log n) total
for n transfers instead of O(n^2).

Every flow-set change re-arms the link's completion timer: a slotted
:class:`_Timer` pushed straight onto the event queue at URGENT priority.
The link remembers only the timer it armed last; any other timer that
fires is stale and does nothing.  Each timer holds a fresh bound
``_on_timer`` rather than one the link caches, so an idle link (no armed
timer) is in no reference cycle and a finished run is freed by reference
counting alone.

A flow completes by calling ``target.succeed(now)``.  The target is a
fresh :class:`~repro.des.events.Event` unless the caller passes its own
(:class:`repro.cluster.network.NetworkFabric` passes one countdown shared
by a message's three legs).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Deque, Optional, Tuple

import numpy as np

from repro.des.cohort import observe_cohort
from repro.des.events import Event
from repro.telemetry import TELEMETRY


class _Timer:
    """A link's completion timer, pushed straight onto the event queue.

    The event loop reads only ``callbacks`` and ``_ok`` off a queue entry,
    so this is all a timer needs to be.
    """

    __slots__ = ("callbacks",)
    _ok = True

    def __init__(self, callback):
        self.callbacks = callback


class FairShareLink:
    """A shared link with fair (equal-share) bandwidth allocation.

    Parameters
    ----------
    env:
        Owning environment.
    rate:
        Aggregate bandwidth in bytes per second.
    concurrency_limit:
        Optional cap on simultaneously *active* flows; additional transfers
        queue FIFO.  ``None`` means unbounded sharing.

    Notes
    -----
    Latency is deliberately *not* modelled here; callers add per-message
    latency separately (see :class:`repro.cluster.network.NetworkFabric`)
    because latency is paid per message while bandwidth is shared.
    """

    def __init__(self, env, rate: float, concurrency_limit: Optional[int] = None):
        if not rate > 0:  # also rejects NaN, which would poison the queue
            raise ValueError(f"rate must be positive, got {rate}")
        if concurrency_limit is not None and concurrency_limit <= 0:
            raise ValueError("concurrency_limit must be positive or None")
        self.env = env
        self.rate = float(rate)
        #: Healthy aggregate rate; :meth:`set_degradation` derives the
        #: effective :attr:`rate` from it (fault injection).
        self._base_rate = self.rate
        self.concurrency_limit = concurrency_limit
        #: Min-heap of admitted flows: (finish_tag, seq, target).
        self._active: list[tuple] = []
        #: FIFO of (target, nbytes, seq) waiting on the concurrency limit.
        self._pending: Deque[Tuple[object, float, int]] = deque()
        #: Per-flow bytes served since the current busy period began.
        self._virtual = 0.0
        self._last_update = env.now
        #: The armed completion timer (``None`` while idle).
        self._timer: Optional[_Timer] = None
        self._seq = 0
        # Statistics
        self.bytes_transferred = 0.0
        self.busy_time = 0.0

    # -- public API -----------------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Number of transfers currently sharing the link."""
        return len(self._active)

    @property
    def utilization(self) -> float:
        """Fraction of elapsed time the link had at least one active flow."""
        elapsed = self.env.now
        if elapsed <= 0:
            return 0.0
        busy = self.busy_time
        if self._active:
            busy += self.env.now - self._last_update
        return min(1.0, busy / elapsed)

    def set_degradation(self, factor: float) -> None:
        """Inject a slowdown: the link serves at ``base_rate / factor``.

        Models a flapping/renegotiated link or a straggling NIC.  In-flight
        transfers finish at the new rate from now on: virtual service is
        accrued at the old rate up to this instant, then a new completion
        timer is armed at the new rate (the previously armed one goes
        stale).  ``factor=1.0`` restores health.
        """
        if not factor >= 1.0:  # also rejects NaN, which would poison the queue
            raise ValueError(f"degradation factor must be >= 1.0, got {factor}")
        self._advance()
        self.rate = self._base_rate / float(factor)
        self._reschedule()

    def transfer(self, nbytes: float, target=None):
        """Start transferring ``nbytes``; returns the completion event.

        On completion the link calls ``target.succeed(now)``.  By default
        ``target`` is a fresh :class:`Event`; a caller may pass any object
        with a ``succeed(value)`` method instead, which is then returned.
        """
        if not nbytes >= 0:  # also rejects NaN, which would poison the heap
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if target is None:
            target = Event(self.env)
        if nbytes == 0:
            target.succeed(0.0)
            return target
        self.bytes_transferred += nbytes
        # Inlined _advance().
        now = self.env._now
        active = self._active
        dt = now - self._last_update
        if dt > 0 and active:
            self._virtual += dt * (self.rate / len(active))
            self.busy_time += dt
        self._last_update = now
        seq = self._seq
        self._seq = seq + 1
        limit = self.concurrency_limit
        if limit is not None and len(active) >= limit:
            self._pending.append((target, float(nbytes), seq))
        else:
            heappush(active, (self._virtual + nbytes, seq, target))
        self._reschedule()
        return target

    def transfer_batch(self, sizes) -> list[Event]:
        """Admit a cohort of simultaneous transfers; one event per member.

        Semantically identical to ``[self.transfer(b) for b in sizes]`` --
        the flows receive the same admission sequence numbers and the same
        finish tags, so every completion fires at exactly the time the
        scalar loop would produce -- but the link advances its virtual
        clock once, arms its completion timer once (the scalar loop
        arms ``len(sizes)`` timers, all but the last of which go stale)
        and bulk-inserts the flows with one ``heapify``.  This is
        the per-link fair-share cohort path the scale scenarios lean on.
        """
        arr = np.asarray(sizes, dtype=np.float64)
        if arr.size and not bool(np.all(arr >= 0.0)):
            raise ValueError("nbytes must be non-negative")
        total = float(arr.sum())  # ints up to 2**53 stay exact
        plain = arr.tolist()
        events = [Event(self.env) for _ in plain]
        nonzero = sum(1 for b in plain if b != 0.0)
        if nonzero == 0:  # an all-zero cohort never touches the link state,
            for ev in events:  # exactly like the scalar zero-byte fast path
                ev.succeed(0.0)
            return events
        self.bytes_transferred += total
        self._advance()
        active = self._active
        fresh: list[tuple] = []
        for ev, nbytes in zip(events, plain):
            if nbytes == 0.0:
                ev.succeed(0.0)
                continue
            seq = self._seq
            self._seq += 1
            if (
                self.concurrency_limit is not None
                and len(active) + len(fresh) >= self.concurrency_limit
            ):
                self._pending.append((ev, nbytes, seq))
            else:
                fresh.append((self._virtual + nbytes, seq, ev))
        if fresh:
            active.extend(fresh)
            heapify(active)
        if TELEMETRY.active:
            observe_cohort("fairshare", len(plain), self.env.now)
        self._reschedule()
        return events

    # -- internals --------------------------------------------------------------
    def _advance(self) -> None:
        """Accrue virtual service from the last update time to now (O(1))."""
        now = self.env.now
        dt = now - self._last_update
        if dt > 0 and self._active:
            self._virtual += dt * (self.rate / len(self._active))
            self.busy_time += dt
        self._last_update = now

    def _reschedule(self) -> None:
        """Arm a completion timer for the earliest-finishing active flow."""
        active = self._active
        if TELEMETRY.active:
            m = TELEMETRY.metrics
            m.counter("des.fairshare.rebalances").inc()
            m.gauge("des.fairshare.flows_high_water").update_max(len(active))
        if not active:
            # Busy period over: reset the virtual clock so its magnitude is
            # bounded by one busy period's bytes (keeps float eps meaningful).
            self._timer = None
            self._virtual = 0.0
            return
        delay = (active[0][0] - self._virtual) * len(active) / self.rate
        if delay < 0.0:
            delay = 0.0
        env = self.env
        timer = self._timer = _Timer(self._on_timer)
        # URGENT is priority 0: the heap key is the bare sequence number.
        heappush(env._queue, (env._now + delay, env._seq(), timer))

    def _on_timer(self, timer: _Timer) -> None:
        if timer is not self._timer:
            return  # stale timer: flow set changed since it was armed
        # Inlined _advance().
        now = self.env._now
        active = self._active
        dt = now - self._last_update
        if dt > 0 and active:
            self._virtual += dt * (self.rate / len(active))
            self.busy_time += dt
        self._last_update = now
        virtual = self._virtual
        # Sub-millibyte residue is floating-point noise; treating it as done
        # guarantees progress (otherwise a ~1e-16-byte remainder arms a
        # zero-delay timer forever because now + delay == now in floats).
        # The relative term covers busy periods large enough that 1e-3 bytes
        # falls below one ulp of the virtual clock.
        threshold = virtual + 1e-3 + 1e-12 * virtual
        finished = False
        while active and active[0][0] <= threshold:
            heappop(active)[2].succeed(now)
            finished = True
        if not finished and active:
            # The timer fired for *some* flow; float rounding can leave its
            # remaining marginally positive while the computed delay rounds
            # to zero.  Force-complete the minimum to preserve liveness.
            delay = (active[0][0] - virtual) * len(active) / self.rate
            if now + delay <= now:
                heappop(active)[2].succeed(now)
        pending = self._pending
        limit = self.concurrency_limit
        while pending and (limit is None or len(active) < limit):
            target, nbytes, seq = pending.popleft()
            heappush(active, (virtual + nbytes, seq, target))
        self._reschedule()
