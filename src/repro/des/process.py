"""Simulated processes: generators driven by the event loop.

A :class:`Process` wraps a Python generator.  Whenever the generator yields
an :class:`~repro.des.events.Event`, the process suspends until that event is
processed, at which point the event's value is sent back into the generator
(or its exception thrown in).  A process is itself an event: it succeeds with
the generator's return value, so processes can wait on each other.

``_resume`` runs once per yield of every process, making it one of the two
hottest functions in the engine (the other is ``Environment.run``'s drain
loop).  It therefore registers itself on the target event inline instead of
going through ``Event.add_callback``, and schedules its own heap entries
directly.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator

from repro.des.events import Event, Timeout, _NO_CALLBACKS, URGENT

# URGENT is priority 0, so the packed heap key is just the sequence number
# (see the heap-entry layout note in events.py).
assert URGENT == 0


class Process(Event):
    """A running simulated process.

    Created via :meth:`repro.des.engine.Environment.process`.
    """

    __slots__ = ("_generator", "_resume_cb", "_send", "_throw")

    def __init__(self, env, generator: Generator[Event, Any, Any]):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # One bound method for the process's lifetime: registering a fresh
        # `self._resume` per yield would allocate a bound-method object each
        # time.
        self._resume_cb = self._resume
        # Bound once: ``generator.send`` lookups are a measurable cost when
        # repeated every yield of every process.
        self._send = generator.send
        self._throw = generator.throw
        # Bootstrap: resume once via an immediately-processed initialisation
        # event so that process start is itself an ordinary queue entry.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks = self._resume_cb
        heappush(env._queue, (env._now, env._seq(), init))

    # -- engine plumbing ----------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        try:
            if event._ok:
                next_target = self._send(event._value)
            else:
                event.defused = True
                next_target = self._throw(event._value)
        except StopIteration as stop:
            self._release()
            self._ok = True
            self._value = stop.value
            heappush(env._queue, (env._now, env._seq(), self))
            return
        except BaseException as exc:
            self._release()
            self._ok = False
            self._value = exc
            heappush(env._queue, (env._now, env._seq(), self))
            return
        # `type(...) is Timeout` covers the overwhelmingly common yield and
        # is cheaper than isinstance; the fallback handles every other Event.
        if type(next_target) is not Timeout and not isinstance(next_target, Event):
            # Misuse: kill the process with a descriptive error.
            err = RuntimeError(
                f"process yielded a non-event: {next_target!r} "
                "(yield Timeout/Event/Process/resource requests)"
            )
            self._release()
            self._ok = False
            self._value = err
            heappush(env._queue, (env._now, env._seq(), self))
            return
        if next_target.env is not env:
            raise RuntimeError("process yielded an event from another environment")
        # Inlined Event.add_callback (hot path).
        cbs = next_target.callbacks
        if cbs is _NO_CALLBACKS:  # first (usually only) waiter
            next_target.callbacks = self._resume_cb
        elif cbs is None:  # already processed: resume immediately
            self._resume(next_target)
        elif cbs.__class__ is list:
            cbs.append(self._resume_cb)
        else:
            next_target.callbacks = [cbs, self._resume_cb]

    def _release(self) -> None:
        """Drop the bound methods once the generator has ended.

        ``_resume_cb`` is a bound method of this process, so keeping it
        would leave every finished process in a reference cycle that only
        the cyclic garbage collector can free.
        """
        self._resume_cb = self._send = self._throw = None

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process {name} at {id(self):#x}>"
