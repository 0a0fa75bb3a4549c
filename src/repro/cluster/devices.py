"""Block device models.

A :class:`BlockDevice` serves byte-range accesses through a bounded pool of
service channels (1 for a disk head, several for SSD channels).  Each access
pays a fixed per-operation overhead, a *seek* penalty when the access is not
sequential with respect to the previous one on the same channel pool, and a
transfer time of ``nbytes / bandwidth``.

This is the component that makes the emerging-workload claims of the paper
(Sec. V) come out of the model instead of being assumed: deep-learning
training issues highly random small reads, so on a disk-backed OST it pays
the seek penalty almost every access, while IOR-style sequential I/O
amortises it away (claim C3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.des.resources import Resource
from repro.ops import StorageUnavailable


@dataclass
class DeviceStats:
    """Cumulative counters kept by every device."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    seeks: int = 0
    busy_time: float = 0.0

    @property
    def ops(self) -> int:
        return self.reads + self.writes

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written


class BlockDevice:
    """A byte-addressable storage device with seek-aware service times.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Identifier used in monitoring output.
    bandwidth:
        Sustained sequential transfer rate, bytes/second.
    seek_time:
        Penalty (seconds) paid when an access is non-sequential.
    op_overhead:
        Fixed per-operation service overhead (seconds); bounds IOPS.
    channels:
        Number of accesses served concurrently (1 = single disk head).
    capacity_bytes:
        Advertised capacity; enforced by higher layers, recorded here for
        reporting.
    """

    def __init__(
        self,
        env,
        name: str,
        bandwidth: float,
        seek_time: float,
        op_overhead: float = 0.0,
        channels: int = 1,
        capacity_bytes: float = float("inf"),
    ):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if seek_time < 0 or op_overhead < 0:
            raise ValueError("seek_time and op_overhead must be non-negative")
        self.env = env
        self.name = name
        self.bandwidth = float(bandwidth)
        self.seek_time = float(seek_time)
        self.op_overhead = float(op_overhead)
        self.capacity_bytes = capacity_bytes
        self._channels = Resource(env, capacity=channels)
        self._head_position: Optional[int] = None
        self.stats = DeviceStats()
        # Fault injection: service-time multiplier (1.0 = healthy).  A
        # degraded OST is the classic storage straggler that server-side
        # monitoring exists to catch.
        self._degradation = 1.0
        # Fault injection: an OST taken out of service rejects new accesses
        # with StorageUnavailable until it recovers.  In-flight transfers
        # are allowed to finish (the outage models losing the target, not
        # corrupting what was already streaming).
        self._available = True

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a service channel."""
        return len(self._channels.queue)

    def set_degradation(self, factor: float) -> None:
        """Inject a slowdown: every access takes ``factor``x its time.

        Models a failing/rebuilding drive or a throttled RAID array --
        the straggler scenario server-side statistics (Sec. IV-A-2) are
        collected to detect.  ``factor=1.0`` restores health.
        """
        if factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1.0, got {factor}")
        self._degradation = float(factor)

    @property
    def available(self) -> bool:
        """Whether the device currently accepts accesses."""
        return self._available

    def fail(self) -> None:
        """Take the device out of service (injected outage)."""
        self._available = False

    def recover(self) -> None:
        """Bring the device back into service."""
        self._available = True

    def service_time(self, offset: int, nbytes: int) -> float:
        """Raw service time for an access, excluding queueing."""
        t = self.op_overhead + nbytes / self.bandwidth
        if self._head_position is None or offset != self._head_position:
            t += self.seek_time
        return t * self._degradation

    def access(self, offset: int, nbytes: int, is_write: bool):
        """Simulated-process generator performing one access.

        Usage from a process: ``yield from device.access(off, n, True)``.
        Returns the service latency experienced (including queueing).
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        if not self._available:
            raise StorageUnavailable(f"device {self.name} is down")
        start = self.env.now
        with self._channels.request() as slot:
            yield slot
            if not self._available:
                # The outage started while this request sat in the queue.
                raise StorageUnavailable(f"device {self.name} is down")
            seeked = self._head_position is None or offset != self._head_position
            service = self.op_overhead + nbytes / self.bandwidth
            if seeked:
                service += self.seek_time
                self.stats.seeks += 1
            service *= self._degradation
            self._head_position = offset + nbytes
            self.stats.busy_time += service
            if is_write:
                self.stats.writes += 1
                self.stats.bytes_written += nbytes
            else:
                self.stats.reads += 1
                self.stats.bytes_read += nbytes
            yield self.env.timeout(service)
        return self.env.now - start

    def utilization(self) -> float:
        """Busy time as a fraction of elapsed virtual time."""
        if self.env.now <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / (self.env.now * self._channels.capacity))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} bw={self.bandwidth:.3g}B/s>"


class DiskDevice(BlockDevice):
    """A rotating disk: single head, milliseconds of seek.

    Defaults approximate a 7.2k-rpm nearline SAS drive as used in Lustre
    OSTs: ~150 MB/s sequential, ~8 ms average seek.
    """

    def __init__(
        self,
        env,
        name: str,
        bandwidth: float = 150e6,
        seek_time: float = 8e-3,
        op_overhead: float = 0.1e-3,
        capacity_bytes: float = 8e12,
    ):
        super().__init__(
            env,
            name,
            bandwidth=bandwidth,
            seek_time=seek_time,
            op_overhead=op_overhead,
            channels=1,
            capacity_bytes=capacity_bytes,
        )


class SSDDevice(BlockDevice):
    """A solid-state device: channel parallelism, negligible seek.

    Defaults approximate an NVMe burst-buffer drive: ~2 GB/s, 8 channels,
    ~20 us per-op overhead.
    """

    def __init__(
        self,
        env,
        name: str,
        bandwidth: float = 2e9,
        seek_time: float = 2e-5,
        op_overhead: float = 2e-5,
        channels: int = 8,
        capacity_bytes: float = 1.6e12,
    ):
        super().__init__(
            env,
            name,
            bandwidth=bandwidth,
            seek_time=seek_time,
            op_overhead=op_overhead,
            channels=channels,
            capacity_bytes=capacity_bytes,
        )
