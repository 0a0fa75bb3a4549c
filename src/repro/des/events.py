"""Core event types for the process-based simulation engine.

An :class:`Event` is a one-shot occurrence in virtual time.  Processes wait
on events by yielding them; the environment resumes the process when the
event is *processed* (its callbacks run).  Events may succeed with a value or
fail with an exception, mirroring the usual future/promise semantics.

Performance notes
-----------------
Events are the unit of allocation in the engine, so this module is written
for the hot path: every event class declares ``__slots__`` (no per-instance
dict), and the callback list is *lazy* -- a fresh event carries the shared
immutable ``_NO_CALLBACKS`` tuple and only allocates a real list when the
first callback is registered.  ``callbacks is None`` still means *processed*
(the engine swaps in ``None`` when it fires the event), which is the
invariant the rest of the package relies on.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Iterable, Optional

# Scheduling priorities: lower sorts earlier at equal timestamps.
URGENT = 0
NORMAL = 1
LOW = 2

# Heap entries are (time, key, event) 3-tuples where ``key`` packs the
# priority into the bits above the insertion sequence number:
# ``(priority << _PRIORITY_SHIFT) | seq``.  This keeps the exact
# (time, priority, sequence) ordering of the original 4-tuples with one
# fewer tuple slot and one fewer comparison per heap sift.
_PRIORITY_SHIFT = 60
_KEY_NORMAL = NORMAL << _PRIORITY_SHIFT

_PENDING = object()

#: Shared sentinel for "no callbacks registered yet" (distinct from None,
#: which means the event has been processed).  Immutable on purpose: a
#: registration replaces it with the callback itself (single-waiter fast
#: path, the overwhelmingly common case) or a list of callbacks.
_NO_CALLBACKS: tuple = ()


class Event:
    """A one-shot occurrence that processes can wait for.

    Lifecycle: *pending* -> *triggered* (scheduled on the queue with a value
    or an exception) -> *processed* (callbacks have run).

    Parameters
    ----------
    env:
        The owning :class:`~repro.des.engine.Environment`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env):
        self.env = env
        self.callbacks: Any = _NO_CALLBACKS
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        # ``_defused`` is deliberately left unset: the ``defused`` property
        # treats the missing slot as False, so the common case (events that
        # never fail) skips one attribute store per event.

    @property
    def defused(self) -> bool:
        """True if a failure of this event should not crash the simulation.

        Stored lazily: the backing slot is only written when someone defuses
        the event, so freshly created events pay nothing for it.
        """
        try:
            return self._defused
        except AttributeError:
            return False

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = value

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value/exception."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        heappush(
            env._queue,
            (env._now, (priority << _PRIORITY_SHIFT) | env._seq(), self),
        )
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        A failed event that is never waited upon crashes the simulation
        (unless :attr:`defused` is set) so that errors do not pass silently.
        """
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        env = self.env
        heappush(
            env._queue,
            (env._now, (priority << _PRIORITY_SHIFT) | env._seq(), self),
        )
        return self

    # -- callbacks ---------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (this keeps waiting on completed events race-free).
        """
        cbs = self.callbacks
        if cbs is None:
            callback(self)
        elif cbs is _NO_CALLBACKS:  # first waiter: store the callable itself
            self.callbacks = callback
        elif type(cbs) is list:
            cbs.append(callback)
        else:  # second waiter: promote the single callable to a list
            self.callbacks = [cbs, callback]

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time ``delay``.

    The constructor is the single hottest allocation site in the engine, so
    it bypasses ``Event.__init__``/``Environment.schedule`` and pushes its
    heap entry directly (the delay checks from ``schedule`` are replicated
    here).
    """

    __slots__ = ("_delay",)

    def __init__(self, env, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        if delay != delay:  # NaN: would sort nondeterministically in the heap
            raise ValueError("NaN delay")
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._value = value
        self._ok = True
        self._delay = delay
        heappush(
            env._queue, (env._now + delay, _KEY_NORMAL | env._seq(), self)
        )

    @property
    def delay(self) -> float:
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay} at {id(self):#x}>"


class Condition(Event):
    """Composite event over several sub-events.

    Succeeds once ``evaluate(events, n_done)`` returns True.  The value is a
    dict mapping each *triggered* sub-event to its value, in trigger order.
    If any sub-event fails, the condition fails with that exception.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(self, env, evaluate: Callable[[list, int], bool], events: Iterable[Event]):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        for ev in self._events:
            if ev.env is not env:
                raise ValueError("cannot mix events from different environments")
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.add_callback(self._check)

    def _collect_values(self) -> dict:
        # Note: a Timeout is "triggered" from construction (its outcome is
        # predetermined), so membership is decided by *processed* instead.
        return {ev: ev._value for ev in self._events if ev.callbacks is None and ev._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())


class AllOf(Condition):
    """Succeeds when *all* sub-events have succeeded."""

    __slots__ = ()

    def __init__(self, env, events: Iterable[Event]):
        super().__init__(env, lambda evs, n: n == len(evs), events)


class AnyOf(Condition):
    """Succeeds when *any* sub-event has succeeded."""

    __slots__ = ()

    def __init__(self, env, events: Iterable[Event]):
        super().__init__(env, lambda evs, n: n >= 1, events)
