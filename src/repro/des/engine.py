"""The sequential process-based simulation environment.

The :class:`Environment` owns the virtual clock and a binary-heap event
queue.  Determinism: queue entries sort by ``(time, priority, sequence)``
where ``sequence`` is a monotonically increasing insertion counter, so two
runs of the same simulation program produce identical event orderings.

Performance notes
-----------------
:meth:`Environment._loop` is the engine's only event loop and its hot path.
:meth:`Environment.step` and every ``until`` mode of
:meth:`Environment.run` (none / time / event, telemetry on or off) go
through it.  ``run`` resolves ``until`` *once*, before the loop, into a
stop time and a stop event, so each iteration pays one time comparison and
one ``callbacks is None`` check (local aliases for the queue and
``heappop``, no ``peek()`` call and no ``isinstance`` checks).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Generator, Union

from repro.des.events import (
    AllOf,
    AnyOf,
    Event,
    Timeout,
    NORMAL,
    _KEY_NORMAL,
    _NO_CALLBACKS,
    _PRIORITY_SHIFT,
)
from repro.des.process import Process
from repro.telemetry import TELEMETRY

_INF = float("inf")

# Pre-bound allocator for Environment.timeout (skips a method lookup per event).
_new_timeout = Timeout.__new__


class SimulationError(Exception):
    """Raised when the simulation itself is broken (e.g. unhandled failure)."""


class EmptySchedule(Exception):
    """Internal: raised by :meth:`Environment.step` when no events remain."""


#: Stop event of the runs bounded only by time: never scheduled, so never
#: processed (its ``callbacks`` never becomes ``None``).
_NEVER = Event(None)


class Environment:
    """A sequential discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock (seconds).

    Examples
    --------
    >>> env = Environment()
    >>> def hello(env):
    ...     yield env.timeout(3.0)
    ...     return env.now
    >>> p = env.process(hello(env))
    >>> env.run()
    >>> p.value
    3.0
    """

    __slots__ = ("_now", "_queue", "_seq", "events_processed")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Heap of (time, priority<<SHIFT | seq, event); see events.py.
        self._queue: list[tuple[float, int, Event]] = []
        #: The bound ``__next__`` of an insertion counter -- stored as a
        #: callable (``self._seq()``) so hot paths skip the ``next()`` builtin.
        self._seq = count().__next__
        #: Number of events processed so far (for engine statistics).
        self.events_processed = 0

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- event construction ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        Inlines ``Timeout.__init__`` (the hottest allocation in the engine)
        to skip one interpreter frame per event; keep in sync with it.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        if delay != delay:
            raise ValueError("NaN delay")
        t = _new_timeout(Timeout)
        t.env = self
        t.callbacks = _NO_CALLBACKS
        t._value = value
        t._ok = True
        t._delay = delay
        heappush(self._queue, (self._now + delay, _KEY_NORMAL | self._seq(), t))
        return t

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new simulated process from ``generator``."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Event that succeeds when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event that succeeds when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Enqueue ``event`` to be processed ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        if delay != delay:  # NaN compares false to everything: the heap
            # invariant breaks silently and event order becomes arbitrary.
            raise ValueError("NaN delay")
        heappush(
            self._queue,
            (
                self._now + delay,
                (priority << _PRIORITY_SHIFT) | self._seq(),
                event,
            ),
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        queue = self._queue
        if not queue:
            raise EmptySchedule()
        self._loop(_INF, queue[0][2])

    def close(self) -> None:
        """Drop every queued event: the run's owner is done with it.

        A process waiting on a queued event -- a fault timeline that
        outlasts the workload, say -- will never resume.  The event refers
        to the process and the process back to this environment, so without
        this a stopped run is freed only by the cyclic garbage collector.
        :meth:`run` keeps its queue, because callers continue a run with a
        later call; the clock and counters stay readable after closing.
        """
        queue, self._queue = self._queue, []
        for _, _, event in queue:
            cbs = event.callbacks
            for cb in cbs if isinstance(cbs, (list, tuple)) else (cbs,):
                waiter = getattr(cb, "__self__", None)
                if isinstance(waiter, Process):
                    waiter._release()

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` -- run until no events remain.
            * a float -- run until the clock reaches that time.
            * an :class:`Event` -- run until that event is processed and
              return its value (raising if it failed).

        When self-telemetry is enabled (:mod:`repro.telemetry`) the same
        run is wrapped in an ``Environment.run`` span and ``des.*`` event
        counters.  The disabled cost is this single attribute check, which
        is what ``benchmarks/check_regression.py`` guards.
        """
        if not TELEMETRY.active:
            return self._run(until)
        queue = self._queue
        start_processed = self.events_processed
        start_pending = len(queue)
        with TELEMETRY.tracer.span(
            "Environment.run", cat="des", pending_at_start=start_pending
        ):
            try:
                return self._run(until)
            finally:
                executed = self.events_processed - start_processed
                metrics = TELEMETRY.metrics
                metrics.counter("des.runs").inc()
                metrics.counter("des.events.executed").inc(executed)
                metrics.counter("des.events.scheduled").inc(
                    executed + len(queue) - start_pending
                )

    def _run(self, until: Union[None, float, Event]) -> Any:
        """Resolve ``until`` once, then hand the work to :meth:`_loop`."""
        if isinstance(until, Event):
            if until.callbacks is None:  # already processed
                return until.value
            if not self._loop(_INF, until):
                raise SimulationError(
                    "simulation ran out of events before the 'until' event fired"
                )
            if not until._ok:
                raise until._value
            return until._value
        stop_time = _INF if until is None else float(until)
        if stop_time < self._now:
            raise ValueError(f"until={stop_time} is in the past (now={self._now})")
        self._loop(stop_time, _NEVER)
        if stop_time != _INF:
            self._now = stop_time
        return None

    def _loop(self, stop_time: float, stop_event: Event) -> bool:
        """The event loop: pop, dispatch callbacks, count, and raise on an
        unhandled failure, until the queue is empty, the next event lies
        beyond ``stop_time``, or ``stop_event`` has been processed.

        Returns True if it stopped because ``stop_event`` was processed.
        """
        queue = self._queue
        pop = heappop
        no_cbs = _NO_CALLBACKS
        lst = list
        processed = 0
        try:
            while queue and queue[0][0] <= stop_time:
                self._now, _, event = pop(queue)
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks.__class__ is lst:
                    for cb in callbacks:
                        cb(event)
                elif callbacks is not no_cbs:  # single registered waiter
                    callbacks(event)
                processed += 1
                if not event._ok and not event.defused:
                    exc = event._value
                    raise exc if isinstance(exc, Exception) else SimulationError(
                        repr(exc)
                    )
                if stop_event.callbacks is None:
                    return True
            return False
        finally:
            self.events_processed += processed
