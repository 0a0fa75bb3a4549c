"""Object storage server model.

An OSS fronts a set of OST block devices.  Data RPCs queue on a bounded
pool of I/O service threads; each request pays a small per-RPC service
overhead and then the device access (seek + transfer).  Per-server load
counters are what storage-system-level monitoring (paper Sec. IV-A-2,
"server-side statistics") samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cluster.devices import BlockDevice
from repro.des.resources import Resource
from repro.ops import StorageUnavailable
from repro.telemetry import TELEMETRY


@dataclass
class OSSStats:
    """Cumulative per-server counters."""

    read_ops: int = 0
    write_ops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def ops(self) -> int:
        return self.read_ops + self.write_ops

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written


class ObjectStorageServer:
    """A queued data service owning several OST devices.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Server name (matches its node's fabric endpoint).
    osts:
        Mapping of global OST id to its block device.
    op_time:
        Per-RPC software service overhead (seconds).
    threads:
        Concurrent I/O service threads.
    """

    def __init__(
        self,
        env,
        name: str,
        osts: Dict[int, BlockDevice],
        op_time: float = 20e-6,
        threads: int = 16,
    ):
        if not osts:
            raise ValueError("an OSS needs at least one OST")
        if op_time < 0:
            raise ValueError("op_time must be non-negative")
        self.env = env
        self.name = name
        self.osts = dict(osts)
        self.op_time = float(op_time)
        self._svc = Resource(env, capacity=threads)
        self.stats = OSSStats()
        self.busy_time = 0.0
        # Fault injection: a downed OSS rejects new RPCs (all of its OSTs
        # become unreachable) until it recovers.
        self._available = True

    @property
    def ost_ids(self) -> list[int]:
        return sorted(self.osts)

    @property
    def queue_length(self) -> int:
        """Requests waiting for a service thread."""
        return len(self._svc.queue)

    @property
    def in_service(self) -> int:
        return self._svc.in_use

    def utilization(self) -> float:
        if self.env.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / (self.env.now * self._svc.capacity))

    @property
    def available(self) -> bool:
        """Whether the server currently accepts data RPCs."""
        return self._available

    def fail(self) -> None:
        """Take the whole server out of service (injected outage)."""
        self._available = False

    def recover(self) -> None:
        """Bring the server back into service."""
        self._available = True

    def serve_data(self, ost_id: int, object_offset: int, nbytes: int, is_write: bool):
        """Simulated-process generator serving one data RPC.

        Returns the server-side service latency (queueing + device).
        """
        device = self.osts.get(ost_id)
        if device is None:
            raise KeyError(f"OST {ost_id} is not attached to {self.name}")
        if not self._available:
            raise StorageUnavailable(f"OSS {self.name} is down")
        start = self.env.now
        with self._svc.request() as slot:
            yield slot
            queue_wait = self.env.now - start
            if self.op_time > 0:
                yield self.env.timeout(self.op_time)
            yield from device.access(object_offset, nbytes, is_write)
        elapsed = self.env.now - start
        self.busy_time += elapsed
        if is_write:
            self.stats.write_ops += 1
            self.stats.bytes_written += nbytes
        else:
            self.stats.read_ops += 1
            self.stats.bytes_read += nbytes
        if TELEMETRY.active:
            m = TELEMETRY.metrics
            m.counter("pfs.oss.rpcs").inc()
            m.counter("pfs.oss.bytes").inc(nbytes)
            m.histogram("pfs.oss.queue_wait_seconds").observe(queue_wait)
        return elapsed
