"""Assembled platform presets (paper Fig. 1).

A :class:`Platform` wires together the simulation environment, the two
fabrics (fast compute fabric, slower storage fabric), compute nodes, I/O
nodes with burst buffers, and storage nodes.  The parallel file system
servers themselves are attached by :func:`repro.pfs.filesystem.build_pfs`.

The :data:`GENERATIONS` table records peak compute versus file-system
bandwidth for four real leadership-class systems; claim C1 uses it to
quantify the paper's motivating observation that the compute-to-storage
performance gap keeps widening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.des.engine import Environment
from repro.des.rng import RandomStreams
from repro.cluster.burst_buffer import BurstBuffer
from repro.cluster.network import NetworkFabric
from repro.cluster.node import ComputeNode, IONode, NodeRole, StorageNode
from repro.cluster.spec import (  # noqa: F401  (re-exported)
    PLATFORM_PRESETS,
    PlatformSpec,
    large_spec,
    medium_spec,
    tiny_spec,
)


class Platform:
    """A fully-wired simulated HPC system.

    Construct via the preset helpers (:func:`tiny_cluster`,
    :func:`medium_cluster`, :func:`large_cluster`) or from a custom
    :class:`PlatformSpec`.
    """

    def __init__(self, spec: PlatformSpec, env: Optional[Environment] = None):
        spec.validate()
        self.spec = spec
        self.env = env or Environment()
        self.streams = RandomStreams(spec.seed)

        topology, topo_map = self._build_topology(spec)
        self.compute_fabric = NetworkFabric(
            self.env,
            "ib",
            nic_bandwidth=spec.ib_nic_bandwidth,
            core_bandwidth=spec.ib_core_bandwidth,
            base_latency=spec.ib_base_latency,
            topology=topology,
            topology_map=topo_map,
        )
        self.storage_fabric = NetworkFabric(
            self.env,
            "eth",
            nic_bandwidth=spec.eth_nic_bandwidth,
            core_bandwidth=spec.eth_core_bandwidth,
            base_latency=spec.eth_base_latency,
        )

        self.compute_nodes: List[ComputeNode] = []
        self.io_nodes: List[IONode] = []
        self.storage_nodes: List[StorageNode] = []
        self.burst_buffers: Dict[str, BurstBuffer] = {}

        for i in range(spec.n_compute):
            node = ComputeNode(name=f"c{i}", fabrics=["ib"])
            self.compute_nodes.append(node)
            self.compute_fabric.attach(node.name)

        for i in range(spec.n_io):
            node = IONode(name=f"io{i}", fabrics=["ib", "eth"])
            bb = BurstBuffer(
                self.env,
                f"bb{i}",
                capacity_bytes=spec.bb_capacity,
            )
            bb.device.bandwidth = spec.bb_bandwidth
            node.burst_buffer_name = bb.name
            self.io_nodes.append(node)
            self.burst_buffers[bb.name] = bb
            self.compute_fabric.attach(node.name)
            self.storage_fabric.attach(node.name)

        for i in range(spec.n_mds):
            node = StorageNode(name=f"mds{i}", service="mds", fabrics=["eth"])
            self.storage_nodes.append(node)
            self.storage_fabric.attach(node.name)
        for i in range(spec.n_oss):
            node = StorageNode(name=f"oss{i}", service="oss", fabrics=["eth"])
            self.storage_nodes.append(node)
            self.storage_fabric.attach(node.name)

        # Compute nodes also reach the storage fabric (via LNET-style
        # routing through I/O nodes in a real deployment; we attach them
        # directly and let the slower fabric's shared core model the
        # routing bottleneck).
        for node in self.compute_nodes:
            self.storage_fabric.attach(node.name)

    @staticmethod
    def _build_topology(spec: PlatformSpec):
        """Instantiate the requested compute-fabric topology, mapping the
        compute and I/O nodes onto its host slots."""
        if spec.ib_topology is None:
            return None, None
        import math

        from repro.cluster.topology import DragonflyTopology, FatTreeTopology

        needed = spec.n_compute + spec.n_io
        if spec.ib_topology == "fat_tree":
            k = 2
            while k**3 // 4 < needed:
                k += 2
            topo = FatTreeTopology(k)
        else:
            routers = 4
            hosts_per_router = 2
            groups = max(2, math.ceil(needed / (routers * hosts_per_router)))
            topo = DragonflyTopology(
                groups=groups, routers_per_group=routers,
                hosts_per_router=hosts_per_router,
            )
        names = [f"c{i}" for i in range(spec.n_compute)] + [
            f"io{i}" for i in range(spec.n_io)
        ]
        topo_map = {name: topo.endpoints[i] for i, name in enumerate(names)}
        return topo, topo_map

    # -- convenience accessors ---------------------------------------------
    @property
    def mds_nodes(self) -> List[StorageNode]:
        return [n for n in self.storage_nodes if n.service == "mds"]

    @property
    def oss_nodes(self) -> List[StorageNode]:
        return [n for n in self.storage_nodes if n.service == "oss"]

    def node_names(self, role: Optional[NodeRole] = None) -> List[str]:
        """Names of all nodes, optionally filtered by role."""
        out: List[str] = []
        for group in (self.compute_nodes, self.io_nodes, self.storage_nodes):
            for n in group:
                if role is None or n.role == role:
                    out.append(n.name)
        return out

    def describe(self) -> str:
        """One-line human-readable summary (used by the Fig. 1 renderer)."""
        s = self.spec
        return (
            f"{s.name}: {s.n_compute} compute + {s.n_io} I/O nodes | "
            f"IB {s.ib_nic_bandwidth/1e9:.1f} GB/s NIC | "
            f"{s.n_mds} MDS + {s.n_oss} OSS x {s.osts_per_oss} OST | "
            f"Eth {s.eth_nic_bandwidth/1e9:.2f} GB/s NIC"
        )


def platform_from_spec(
    spec: PlatformSpec,
    seed: Optional[int] = None,
    env: Optional[Environment] = None,
) -> Platform:
    """Spec-driven platform factory (the scenario layer's entry point).

    ``seed``, when given, overrides the spec's seed without mutating the
    caller's spec object (presets are shared constants).
    """
    if seed is not None and seed != spec.seed:
        from dataclasses import replace

        spec = replace(spec, seed=seed)
    return Platform(spec, env=env)


def tiny_cluster(seed: int = 1234) -> Platform:
    """4 compute nodes, 1 burst buffer, 1 MDS, 2 OSS x 2 OST.

    Small enough for unit tests and quick examples.
    """
    return platform_from_spec(tiny_spec(seed))


def medium_cluster(seed: int = 1234) -> Platform:
    """16 compute nodes, 2 burst buffers, 1 MDS, 4 OSS x 4 OST."""
    return platform_from_spec(medium_spec(seed))


def large_cluster(seed: int = 1234) -> Platform:
    """64 compute nodes, 4 burst buffers, 2 MDS, 8 OSS x 8 OST."""
    return platform_from_spec(large_spec(seed))


@dataclass(frozen=True)
class PlatformGeneration:
    """Peak compute vs. file-system bandwidth of a real leadership system.

    Public numbers for OLCF machines; used by claim C1 to quantify the
    widening compute-to-storage gap the paper's introduction motivates.
    """

    name: str
    year: int
    peak_flops: float
    fs_bandwidth: float  # bytes/second

    @property
    def bytes_per_flop(self) -> float:
        """Storage bandwidth available per FLOP/s of compute."""
        return self.fs_bandwidth / self.peak_flops


#: OLCF leadership systems, 2009-2022 (peak FLOPS, PFS aggregate bandwidth).
GENERATIONS: List[PlatformGeneration] = [
    PlatformGeneration("Jaguar", 2009, 1.75e15, 240e9),
    PlatformGeneration("Titan", 2012, 27e15, 1.0e12),
    PlatformGeneration("Summit", 2018, 200e15, 2.5e12),
    PlatformGeneration("Frontier", 2022, 1.6e18, 10e12),
]
