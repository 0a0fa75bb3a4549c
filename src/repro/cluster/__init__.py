"""Simulated HPC platform (paper Fig. 1).

Models the hardware substrate the paper's Figure 1 depicts: compute nodes on
a fast fabric (InfiniBand-like), I/O nodes with a burst-buffer tier of
solid-state devices, a slower secondary fabric (10G-Ethernet-like) to the
storage cluster, and the storage servers with their block devices.

* :mod:`repro.cluster.devices` -- block device models (disk with seek
  penalty, SSD with channel parallelism).
* :mod:`repro.cluster.topology` -- fat-tree and dragonfly interconnect
  graphs (networkx) with hop-count routing; the only module that loads
  networkx, imported when a spec sets ``ib_topology``.
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
* :mod:`repro.cluster.spec` -- :class:`PlatformSpec` and the named
  sizings, plain data that imports no simulator code.
"""

import importlib

from repro.cluster.spec import (
    PLATFORM_PRESETS,
    PlatformSpec,
    large_spec,
    medium_spec,
    tiny_spec,
)

#: The simulator's names, each imported from its module on first use, so
#: that the specs above (and the scenario specs, presets and run service
#: built on them) load without the DES engine, numpy or networkx.
_SIMULATOR_NAMES = {
    "BlockDevice": "devices",
    "DiskDevice": "devices",
    "SSDDevice": "devices",
    "DragonflyTopology": "topology",
    "FatTreeTopology": "topology",
    "Topology": "topology",
    "NetworkFabric": "network",
    "ComputeNode": "node",
    "IONode": "node",
    "NodeRole": "node",
    "StorageNode": "node",
    "BurstBuffer": "burst_buffer",
    "BatchScheduler": "scheduler",
    "GENERATIONS": "platform",
    "Platform": "platform",
    "PlatformGeneration": "platform",
    "large_cluster": "platform",
    "medium_cluster": "platform",
    "platform_from_spec": "platform",
    "tiny_cluster": "platform",
}


def __getattr__(name):
    module = _SIMULATOR_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


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
