"""Simulated HPC platform (paper Fig. 1).

Models the hardware substrate the paper's Figure 1 depicts: compute nodes on
a fast fabric (InfiniBand-like), I/O nodes with a burst-buffer tier of
solid-state devices, a slower secondary fabric (10G-Ethernet-like) to the
storage cluster, and the storage servers with their block devices.

* :mod:`repro.cluster.devices` -- block device models (disk with seek
  penalty, SSD with channel parallelism).
* :mod:`repro.cluster.topology` -- fat-tree and dragonfly interconnect
  graphs (networkx) with hop-count routing.
* :mod:`repro.cluster.network` -- the fluid fabric model: per-NIC and
  aggregate processor-sharing bandwidth plus per-hop latency.
* :mod:`repro.cluster.node` -- node records (compute, I/O, storage).
* :mod:`repro.cluster.burst_buffer` -- SSD staging tier with background
  drain to the parallel file system.
* :mod:`repro.cluster.scheduler` -- batch scheduler that records every
  job in a Slurm-like :mod:`repro.cluster.scheduler_log`.
* :mod:`repro.cluster.platform` -- assembled platform presets and the
  historical platform-generation table used by claim C1 (the growing
  compute-to-storage performance gap).
"""

from repro.cluster.devices import BlockDevice, DiskDevice, SSDDevice
from repro.cluster.topology import (
    DragonflyTopology,
    FatTreeTopology,
    Topology,
)
from repro.cluster.network import NetworkFabric
from repro.cluster.node import ComputeNode, IONode, NodeRole, StorageNode
from repro.cluster.burst_buffer import BurstBuffer
from repro.cluster.scheduler import BatchScheduler
from repro.cluster.platform import (
    GENERATIONS,
    PLATFORM_PRESETS,
    Platform,
    PlatformGeneration,
    PlatformSpec,
    large_cluster,
    large_spec,
    medium_cluster,
    medium_spec,
    platform_from_spec,
    tiny_cluster,
    tiny_spec,
)

__all__ = [
    "BatchScheduler",
    "BlockDevice",
    "BurstBuffer",
    "ComputeNode",
    "DiskDevice",
    "DragonflyTopology",
    "FatTreeTopology",
    "GENERATIONS",
    "IONode",
    "PLATFORM_PRESETS",
    "NetworkFabric",
    "NodeRole",
    "Platform",
    "PlatformGeneration",
    "PlatformSpec",
    "SSDDevice",
    "StorageNode",
    "Topology",
    "large_cluster",
    "large_spec",
    "medium_cluster",
    "medium_spec",
    "platform_from_spec",
    "tiny_cluster",
    "tiny_spec",
]
