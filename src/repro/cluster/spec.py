"""Platform sizing specs, importable without the simulator.

:class:`PlatformSpec` and the named sizings are plain data: scenario
specs embed them, the run service digests them and ``repro-io scenario
list`` prints them, none of which needs the DES engine, the fabrics or
numpy.  :mod:`repro.cluster.platform` turns a spec into a wired
:class:`~repro.cluster.platform.Platform`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["PLATFORM_PRESETS", "PlatformSpec", "large_spec", "medium_spec",
           "tiny_spec"]


@dataclass
class PlatformSpec:
    """Sizing knobs for a simulated platform.

    Bandwidths are bytes/second; latencies are seconds.
    """

    name: str = "cluster"
    n_compute: int = 8
    n_io: int = 1
    n_mds: int = 1
    n_oss: int = 2
    osts_per_oss: int = 2
    # Compute fabric (InfiniBand-like).
    ib_nic_bandwidth: float = 12.5e9  # 100 Gb/s
    ib_core_bandwidth: float = 100e9
    ib_base_latency: float = 1.5e-6
    # Storage fabric (10G-Ethernet-like, paper Sec. II).
    eth_nic_bandwidth: float = 1.25e9  # 10 Gb/s
    eth_core_bandwidth: float = 20e9
    eth_base_latency: float = 30e-6
    # Devices.
    ost_bandwidth: float = 150e6
    ost_seek_time: float = 8e-3
    bb_capacity: float = 1.6e12
    bb_bandwidth: float = 2e9
    # Server service overheads.
    mds_op_time: float = 50e-6
    oss_op_time: float = 20e-6
    #: Compute-fabric topology: None (uniform default hops), "fat_tree"
    #: (k chosen to fit the node count) or "dragonfly".
    ib_topology: Optional[str] = None
    seed: int = 1234

    def validate(self) -> None:
        if min(self.n_compute, self.n_mds, self.n_oss, self.osts_per_oss) < 1:
            raise ValueError("platform needs at least one of each server kind")
        if self.n_io < 0:
            raise ValueError("n_io must be non-negative")
        if self.ib_topology not in (None, "fat_tree", "dragonfly"):
            raise ValueError(f"unknown ib_topology {self.ib_topology!r}")


def tiny_spec(seed: int = 1234) -> PlatformSpec:
    """Spec of :func:`~repro.cluster.platform.tiny_cluster` (4 compute,
    1 BB, 1 MDS, 2 OSS x 2)."""
    return PlatformSpec(
        name="tiny", n_compute=4, n_io=1, n_mds=1, n_oss=2, osts_per_oss=2,
        seed=seed,
    )


def medium_spec(seed: int = 1234) -> PlatformSpec:
    """Spec of :func:`~repro.cluster.platform.medium_cluster` (16 compute,
    2 BB, 1 MDS, 4 OSS x 4)."""
    return PlatformSpec(
        name="medium", n_compute=16, n_io=2, n_mds=1, n_oss=4, osts_per_oss=4,
        seed=seed,
    )


def large_spec(seed: int = 1234) -> PlatformSpec:
    """Spec of :func:`~repro.cluster.platform.large_cluster` (64 compute,
    4 BB, 2 MDS, 8 OSS x 8)."""
    return PlatformSpec(
        name="large",
        n_compute=64,
        n_io=4,
        n_mds=2,
        n_oss=8,
        osts_per_oss=8,
        ib_core_bandwidth=400e9,
        eth_core_bandwidth=80e9,
        seed=seed,
    )


#: Named platform sizings, for scenario specs and the CLI.
PLATFORM_PRESETS = {
    "tiny": tiny_spec,
    "medium": medium_spec,
    "large": large_spec,
}
