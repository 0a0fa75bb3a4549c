"""Queueing primitives: resources, containers and stores.

These model the contended components of a storage system: a
:class:`Resource` is a server with ``capacity`` parallel slots (e.g. an OSS
service thread pool), a :class:`Container` holds divisible material (e.g.
free bytes in a burst buffer), and a :class:`Store` holds discrete items
(e.g. a request queue between components).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.des.events import Event


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager so that the slot is always released::

        with resource.request() as req:
            yield req
            ... hold the slot ...
    """

    __slots__ = ("resource", "usage_since", "_enqueued_at")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self.usage_since: Optional[float] = None

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)


class Resource:
    """A server with a fixed number of parallel slots and a FIFO queue.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Number of requests that may hold the resource simultaneously.
    """

    def __init__(self, env, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []
        # Cumulative statistics, useful for utilisation reporting.
        self.total_requests = 0
        self.total_wait_time = 0.0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        req = Request(self)
        now = self.env._now
        req._enqueued_at = now
        self.total_requests += 1
        if not self.queue and len(self.users) < self._capacity:
            # Free slot, nobody waiting: grant at once (zero wait).
            self.users.append(req)
            req.usage_since = now
            req.succeed(req)
        else:
            self.queue.append(req)
            self._trigger_pending()
        return req

    def release(self, request: Request) -> None:
        """Give back a previously granted slot (no-op for cancelled waits).

        A granted request's value is the request itself; once its waiter
        has been resumed (the event is processed), the value is cleared so
        the released request is not its own reference cycle.
        """
        try:
            self.users.remove(request)
        except ValueError:
            if request in self.queue:
                self.queue.remove(request)
        else:
            if request.callbacks is None:
                request._value = None
        if self.queue:
            self._trigger_pending()

    def _trigger_pending(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            req = self.queue.pop(0)
            self.users.append(req)
            req.usage_since = self.env.now
            self.total_wait_time += self.env.now - req._enqueued_at
            req.succeed(req)


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount


class Container:
    """Holds a divisible quantity bounded by ``capacity``.

    ``get(amount)`` blocks until at least ``amount`` is present;
    ``put(amount)`` blocks until there is room.  Gets are served FIFO.
    """

    def __init__(self, env, capacity: float = float("inf"), init: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must lie in [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._gets: list[ContainerGet] = []
        self._puts: list[ContainerPut] = []

    @property
    def level(self) -> float:
        """Current amount stored."""
        return self._level

    def get(self, amount: float) -> ContainerGet:
        ev = ContainerGet(self, amount)
        self._gets.append(ev)
        self._dispatch()
        return ev

    def put(self, amount: float) -> ContainerPut:
        ev = ContainerPut(self, amount)
        self._puts.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._puts and self._level + self._puts[0].amount <= self.capacity:
                ev = self._puts.pop(0)
                self._level += ev.amount
                ev.succeed()
                progress = True
            if self._gets and self._level >= self._gets[0].amount:
                ev = self._gets.pop(0)
                self._level -= ev.amount
                ev.succeed(ev.amount)
                progress = True


class StoreGet(Event):
    __slots__ = ("filter_fn",)

    def __init__(self, store: "Store", filter_fn: Optional[Callable[[Any], bool]] = None):
        super().__init__(store.env)
        self.filter_fn = filter_fn


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item


class Store:
    """A FIFO store of discrete items with optional bounded capacity.

    ``get(filter_fn)`` optionally retrieves the first item matching a
    predicate (making this double as SimPy's FilterStore).
    """

    def __init__(self, env, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._gets: list[StoreGet] = []
        self._puts: list[StorePut] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        ev = StorePut(self, item)
        self._puts.append(ev)
        self._dispatch()
        return ev

    def get(self, filter_fn: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        ev = StoreGet(self, filter_fn)
        self._gets.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._puts and len(self.items) < self.capacity:
                ev = self._puts.pop(0)
                self.items.append(ev.item)
                ev.succeed()
                progress = True
            for get_ev in list(self._gets):
                match_idx = None
                for i, item in enumerate(self.items):
                    if get_ev.filter_fn is None or get_ev.filter_fn(item):
                        match_idx = i
                        break
                if match_idx is not None:
                    self._gets.remove(get_ev)
                    item = self.items.pop(match_idx)
                    get_ev.succeed(item)
                    progress = True
