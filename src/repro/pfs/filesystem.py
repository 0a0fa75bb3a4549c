"""Parallel file system assembly.

``build_pfs(platform)`` attaches a Lustre-like file system to a platform's
storage nodes: one :class:`~repro.pfs.mds.MetadataServer` per MDS node
(DNE-style, sharing one namespace but each with its own service queue) and
one :class:`~repro.pfs.oss.ObjectStorageServer` per OSS node, each fronting
``osts_per_oss`` block devices.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple, Type

from repro.cluster.devices import BlockDevice, DiskDevice, SSDDevice
from repro.cluster.platform import Platform

#: OST device classes addressable by name from a declarative
#: :class:`~repro.scenario.spec.StorageSpec`.
DEVICE_CLASSES: Dict[str, Type[BlockDevice]] = {
    "disk": DiskDevice,
    "ssd": SSDDevice,
}
from repro.pfs.client import ClientStats, PFSClient
from repro.pfs.layout import StripeLayout
from repro.pfs.mds import MetadataServer
from repro.pfs.namespace import Namespace
from repro.pfs.oss import ObjectStorageServer


class ParallelFileSystem:
    """A running file system instance on a platform.

    Parameters
    ----------
    platform:
        The simulated cluster (provides env, fabrics, storage nodes).
    stripe_size:
        Default stripe unit (Lustre default 1 MiB).
    default_stripe_count:
        Stripe count used when a file is created without an explicit one
        (Lustre default 1).
    max_rpc:
        Maximum bytes per data RPC; larger slices are chunked.
    device_cls:
        Block device class for OSTs (:class:`DiskDevice` by default;
        pass :class:`~repro.cluster.devices.SSDDevice` for an all-flash
        file system).
    """

    def __init__(
        self,
        platform: Platform,
        stripe_size: int = 1024 * 1024,
        default_stripe_count: int = 1,
        max_rpc: int = 4 * 1024 * 1024,
        device_cls: Type[BlockDevice] = DiskDevice,
        alloc_policy: str = "round_robin",
        replicas: int = 1,
    ):
        if stripe_size <= 0 or max_rpc <= 0:
            raise ValueError("stripe_size and max_rpc must be positive")
        if default_stripe_count < 1:
            raise ValueError("default_stripe_count must be >= 1")
        if alloc_policy not in ("round_robin", "load_aware"):
            raise ValueError(f"unknown alloc_policy {alloc_policy!r}")
        if replicas not in (1, 2):
            raise ValueError(f"replicas must be 1 or 2, got {replicas}")
        self.platform = platform
        self.env = platform.env
        self.fabric = platform.storage_fabric
        self.stripe_size = int(stripe_size)
        self.default_stripe_count = int(default_stripe_count)
        self.max_rpc = int(max_rpc)
        self.namespace = Namespace()

        spec = platform.spec
        self.mds_servers: list[Tuple[MetadataServer, str]] = []
        for node in platform.mds_nodes:
            mds = MetadataServer(
                self.env, node.name, namespace=self.namespace, op_time=spec.mds_op_time
            )
            self.mds_servers.append((mds, node.name))
        if not self.mds_servers:
            raise ValueError("platform has no MDS nodes")

        self.oss_servers: list[Tuple[ObjectStorageServer, str]] = []
        self._ost_map: Dict[int, Tuple[ObjectStorageServer, str]] = {}
        ost_id = 0
        for node in platform.oss_nodes:
            devices: Dict[int, BlockDevice] = {}
            for _ in range(spec.osts_per_oss):
                dev = device_cls(self.env, f"{node.name}.ost{ost_id}")
                if device_cls is DiskDevice:
                    dev.bandwidth = spec.ost_bandwidth
                    dev.seek_time = spec.ost_seek_time
                devices[ost_id] = dev
                ost_id += 1
            oss = ObjectStorageServer(self.env, node.name, devices, op_time=spec.oss_op_time)
            self.oss_servers.append((oss, node.name))
            for oid in devices:
                self._ost_map[oid] = (oss, node.name)
        self.n_osts = ost_id
        self._alloc_cursor = 0
        self.alloc_policy = alloc_policy
        self.replicas = int(replicas)
        if self.replicas == 2 and self.n_osts < 2:
            raise ValueError("replicas=2 needs at least 2 OSTs")
        #: The counters of every client created via :meth:`client`, for
        #: aggregate resilience counters (retries/timeouts/failovers).  The
        #: stats, not the clients: a client points back at the file system,
        #: and a list of clients would keep each run's graph in a cycle.
        self.client_stats: list[ClientStats] = []

    @classmethod
    def from_spec(cls, platform: Platform, storage) -> "ParallelFileSystem":
        """Spec-driven factory: attach a file system described by a
        :class:`~repro.scenario.spec.StorageSpec` (duck-typed -- anything
        with ``stripe_size`` / ``default_stripe_count`` / ``max_rpc`` /
        ``device`` / ``alloc_policy`` attributes works)."""
        device_cls = DEVICE_CLASSES.get(storage.device)
        if device_cls is None:
            raise ValueError(
                f"unknown storage device {storage.device!r}; "
                f"available: {', '.join(sorted(DEVICE_CLASSES))}"
            )
        return cls(
            platform,
            stripe_size=storage.stripe_size,
            default_stripe_count=storage.default_stripe_count,
            max_rpc=storage.max_rpc,
            device_cls=device_cls,
            alloc_policy=storage.alloc_policy,
            replicas=getattr(storage, "replicas", 1),
        )

    # -- layout allocation -------------------------------------------------------
    def ost_load(self, ost_id: int) -> float:
        """Current load metric of one OST: queued bytes-equivalent work.

        Combines cumulative bytes (long-term placement skew) with the
        instantaneous queue depth (short-term congestion), the two signals
        load-balancing work (Paul et al. [29], iez [46]) feeds on.
        """
        dev = self.ost_device(ost_id)
        oss, _ = self.ost_location(ost_id)
        return dev.stats.bytes_total + oss.queue_length * self.max_rpc

    def new_layout(
        self, stripe_count: Optional[int] = None, stripe_size: Optional[int] = None
    ) -> StripeLayout:
        """Allocate a stripe layout over the OST pool.

        ``stripe_count=-1`` stripes over every OST (Lustre's ``-c -1``).
        Placement follows :attr:`alloc_policy`: classic round-robin, or
        ``load_aware`` (iez-style [46]): the least-loaded OSTs first, which
        counteracts the skew that accumulates when file sizes are uneven.
        """
        count = stripe_count if stripe_count is not None else self.default_stripe_count
        if count == -1:
            count = self.n_osts
        if not 1 <= count <= self.n_osts:
            raise ValueError(
                f"stripe_count {count} out of range 1..{self.n_osts}"
            )
        size = stripe_size if stripe_size is not None else self.stripe_size
        if self.alloc_policy == "load_aware":
            # Least-loaded first; OST id breaks ties deterministically.
            order = sorted(range(self.n_osts), key=lambda i: (self.ost_load(i), i))
            ids = order[:count]
        else:
            ids = [(self._alloc_cursor + i) % self.n_osts for i in range(count)]
            self._alloc_cursor = (self._alloc_cursor + count) % self.n_osts
        if self.replicas == 2:
            # Mirror each stripe on a constant-shifted OST: disjoint from
            # the primary set when the pool allows, and never the same OST
            # as the stripe it mirrors.
            shift = count % self.n_osts or 1
            mirrors = [(i + shift) % self.n_osts for i in ids]
            return StripeLayout(
                stripe_size=size, ost_ids=ids, replica_ost_ids=mirrors
            )
        return StripeLayout(stripe_size=size, ost_ids=ids)

    # -- routing ------------------------------------------------------------------
    def mds_for(self, path: str) -> Tuple[MetadataServer, str]:
        """Shard metadata service by the path's parent directory."""
        if len(self.mds_servers) == 1:
            return self.mds_servers[0]
        parent = path.rsplit("/", 1)[0] or "/"
        # zlib.crc32 rather than hash(): stable across interpreter runs.
        idx = zlib.crc32(parent.encode("utf-8")) % len(self.mds_servers)
        return self.mds_servers[idx]

    def ost_location(self, ost_id: int) -> Tuple[ObjectStorageServer, str]:
        loc = self._ost_map.get(ost_id)
        if loc is None:
            raise KeyError(f"unknown OST {ost_id}")
        return loc

    def ost_device(self, ost_id: int) -> BlockDevice:
        oss, _ = self.ost_location(ost_id)
        return oss.osts[ost_id]

    # -- clients ---------------------------------------------------------------------
    def client(self, node: str, **kwargs) -> PFSClient:
        """Create a client on the named node (must be on the storage fabric)."""
        if not self.fabric.has_endpoint(node):
            raise KeyError(f"node {node!r} is not attached to the storage fabric")
        client = PFSClient(self, node, **kwargs)
        self.client_stats.append(client.stats)
        return client

    # -- aggregate statistics -----------------------------------------------------------
    def resilience_counters(self) -> dict:
        """Summed client resilience counters (retries/timeouts/failovers)."""
        out = {"retries": 0, "rpc_timeouts": 0, "failovers": 0,
               "degraded_writes": 0}
        for st in self.client_stats:
            out["retries"] += st.retries
            out["rpc_timeouts"] += st.rpc_timeouts
            out["failovers"] += st.failovers
            out["degraded_writes"] += st.degraded_writes
        return out

    def total_bytes_written(self) -> int:
        return sum(oss.stats.bytes_written for oss, _ in self.oss_servers)

    def total_bytes_read(self) -> int:
        return sum(oss.stats.bytes_read for oss, _ in self.oss_servers)

    def total_metadata_ops(self) -> int:
        return sum(m.total_ops for m, _ in self.mds_servers)

    def aggregate_device_stats(self) -> dict:
        """Summed OST device counters (seeks, busy time, bytes)."""
        out = {"seeks": 0, "ops": 0, "bytes": 0, "busy_time": 0.0}
        for oss, _ in self.oss_servers:
            for dev in oss.osts.values():
                out["seeks"] += dev.stats.seeks
                out["ops"] += dev.stats.ops
                out["bytes"] += dev.stats.bytes_total
                out["busy_time"] += dev.stats.busy_time
        return out


def build_pfs(platform: Platform, **kwargs) -> ParallelFileSystem:
    """Attach a parallel file system to ``platform`` (convenience wrapper)."""
    return ParallelFileSystem(platform, **kwargs)
