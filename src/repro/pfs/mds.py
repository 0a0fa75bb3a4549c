"""Metadata server model.

Metadata performance "can be a limiting factor for parallel file systems"
(paper Sec. IV-A-1); data-intensive workflows are "metadata-intensive"
(Sec. V-C).  The MDS is therefore modelled as a genuinely contended queued
service: a bounded thread pool serves one namespace operation at a time per
thread, each paying a per-operation service cost.  Metadata-heavy workloads
(mdtest, workflow DAGs) queue up here and the queueing delay is visible to
clients -- which is what makes claim C4 measurable.

The MDS also emits namespace-change events to registered listeners; the
FSMonitor-like monitor (:mod:`repro.monitoring.fsmonitor`) subscribes to
these, mirroring Paul et al. [27], [28].
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, List, Optional

from repro.des.resources import Resource
from repro.ops import OpKind
from repro.telemetry import TELEMETRY
from repro.pfs.namespace import Namespace
from repro.pfs.layout import StripeLayout

#: Relative cost of each metadata op, in units of the base ``op_time``.
#: Creates are the most expensive (allocate inode + layout), stats cheapest.
_OP_COST = {
    OpKind.CREATE: 2.0,
    OpKind.OPEN: 1.0,
    OpKind.CLOSE: 0.5,
    OpKind.STAT: 0.6,
    OpKind.UNLINK: 1.5,
    OpKind.MKDIR: 1.5,
    OpKind.RMDIR: 1.2,
    OpKind.READDIR: 1.0,
    OpKind.FSYNC: 0.8,
}
_READDIR_PER_ENTRY = 0.02  # extra op_time units per directory entry


class MetadataServer:
    """A queued metadata service owning (a shard of) the namespace.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Server name (matches its node's fabric endpoint).
    namespace:
        The namespace shard this server owns.
    op_time:
        Base service time per op (seconds).
    threads:
        Concurrent service threads.
    """

    def __init__(
        self,
        env,
        name: str,
        namespace: Optional[Namespace] = None,
        op_time: float = 50e-6,
        threads: int = 4,
    ):
        if op_time < 0:
            raise ValueError("op_time must be non-negative")
        self.env = env
        self.name = name
        self.namespace = namespace or Namespace()
        self.op_time = float(op_time)
        self._svc = Resource(env, capacity=threads)
        self.op_counts: Counter = Counter()
        self.busy_time = 0.0
        # Fault injection: service-time multiplier (1.0 = healthy).  An MDS
        # brown-out inflates every op's service time -- the "metadata server
        # restart / overload" signature facility logs attribute tail
        # latency to.
        self._degradation = 1.0
        #: Callables ``(kind: OpKind, path: str, time: float)`` invoked on
        #: every namespace-changing operation (FSMonitor subscription).
        self.listeners: List[Callable[[OpKind, str, float], None]] = []

    # -- observable state ------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Requests waiting for a service thread (server-side load metric)."""
        return len(self._svc.queue)

    @property
    def in_service(self) -> int:
        return self._svc.in_use

    @property
    def total_ops(self) -> int:
        return sum(self.op_counts.values())

    def utilization(self) -> float:
        if self.env.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / (self.env.now * self._svc.capacity))

    def set_degradation(self, factor: float) -> None:
        """Inject a brown-out: every op takes ``factor``x its service time.

        ``factor=1.0`` restores health.
        """
        if factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1.0, got {factor}")
        self._degradation = float(factor)

    # -- service ----------------------------------------------------------------
    def service_time(self, kind: OpKind, n_entries: int = 0) -> float:
        cost = _OP_COST.get(kind)
        if cost is None:
            raise ValueError(f"{kind} is not a metadata operation")
        t = cost * self.op_time
        if kind == OpKind.READDIR:
            t += n_entries * _READDIR_PER_ENTRY * self.op_time
        return t * self._degradation

    def serve(self, kind: OpKind, path: str, **kwargs):
        """Simulated-process generator serving one metadata operation.

        Returns the operation's result (an :class:`Inode` for
        create/open/stat, a listing for readdir, ``None`` otherwise).
        Namespace errors (``FileNotFoundError`` etc.) propagate to the
        caller's process.
        """
        enqueue = self.env.now
        with self._svc.request() as slot:
            yield slot
            queue_wait = self.env.now - enqueue
            n_entries = 0
            if kind == OpKind.READDIR and self.namespace.is_dir(path):
                n_entries = len(self.namespace.listdir(path))
            service = self.service_time(kind, n_entries)
            self.busy_time += service
            yield self.env.timeout(service)
            result = self._apply(kind, path, **kwargs)
        self.op_counts[kind] += 1
        if TELEMETRY.active:
            m = TELEMETRY.metrics
            m.counter("pfs.mds.ops").inc()
            m.histogram("pfs.mds.queue_wait_seconds").observe(queue_wait)
        for listener in self.listeners:
            listener(kind, path, self.env.now)
        return result

    def _apply(self, kind: OpKind, path: str, **kwargs) -> Any:
        ns = self.namespace
        now = self.env.now
        if kind == OpKind.CREATE:
            layout: StripeLayout = kwargs["layout"]
            return ns.create(path, layout, now=now)
        if kind == OpKind.OPEN:
            inode = ns.lookup(path)
            inode.opens += 1
            inode.atime = now
            return inode
        if kind == OpKind.CLOSE:
            inode = ns.lookup(path)
            inode.opens = max(0, inode.opens - 1)
            return None
        if kind == OpKind.STAT:
            return ns.lookup(path)
        if kind == OpKind.UNLINK:
            return ns.unlink(path)
        if kind == OpKind.MKDIR:
            return ns.mkdir(path)
        if kind == OpKind.RMDIR:
            return ns.rmdir(path)
        if kind == OpKind.READDIR:
            return ns.listdir(path)
        if kind == OpKind.FSYNC:
            return None
        raise ValueError(f"{kind} is not a metadata operation")
