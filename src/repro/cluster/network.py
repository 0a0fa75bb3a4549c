"""Fluid network fabric model.

A :class:`NetworkFabric` connects named endpoints.  Each endpoint owns an
ingress and an egress :class:`~repro.des.sharing.FairShareLink` (NIC
bandwidth), and the fabric owns a shared *core* link sized to its bisection
bandwidth.  A message pays per-hop latency (from the topology, when one is
attached) and then streams its bytes through egress NIC, core, and ingress
NIC in parallel; the slowest of the three gates completion.  This fluid
approximation captures the two effects that matter for parallel I/O
evaluation: endpoint (NIC) saturation and fabric (bisection) saturation.

One message costs the sender a single wait.  The latency ``Timeout``'s own
callback admits the three legs, and the legs complete into a countdown
join (:class:`_Message`) rather than three leg events and an ``AllOf``.
The first two completions only count down.  The last keeps the ``AllOf``'s
two queue hops: it pushes one leg event, and processing that event
triggers the event the sender waits on.  Every event that remains
therefore sits where it sat in the three-event form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.des.engine import Environment
from repro.des.events import Event
from repro.des.sharing import FairShareLink

if TYPE_CHECKING:  # a topology is built (and networkx loaded) only on request
    from repro.cluster.topology import Topology


@dataclass
class FabricStats:
    """Cumulative fabric counters."""

    messages: int = 0
    bytes: float = 0.0


class _Endpoint:
    __slots__ = ("name", "ingress", "egress")

    def __init__(self, env: Environment, name: str, nic_bandwidth: float):
        self.name = name
        self.ingress = FairShareLink(env, nic_bandwidth)
        self.egress = FairShareLink(env, nic_bandwidth)


class _Message:
    """A message in flight: the completion target of its three legs.

    :meth:`admit` starts the legs, and each leg's
    :class:`~repro.des.sharing.FairShareLink` calls :meth:`succeed` when
    the leg completes.  The last call pushes a leg event, whose processing
    triggers :attr:`done` -- the same two queue hops an ``AllOf`` over three
    leg events takes after its last leg.
    """

    __slots__ = ("links", "nbytes", "left", "done")

    def __init__(self, links: tuple, nbytes: float, done: Event):
        self.links = links
        self.nbytes = nbytes
        self.left = len(links)
        self.done = done

    def admit(self, _latency: Optional[Event] = None) -> None:
        nbytes = self.nbytes
        for link in self.links:
            link.transfer(nbytes, self)

    def succeed(self, value: float) -> None:
        self.left -= 1
        if self.left:
            return
        last = Event(self.done.env)
        last.callbacks = self._join
        last.succeed(value)

    def _join(self, _last: Event) -> None:
        self.done.succeed()


class NetworkFabric:
    """A fabric with per-endpoint NIC limits and a shared core.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Fabric identifier (e.g. ``"ib"`` or ``"eth"``).
    nic_bandwidth:
        Per-endpoint NIC bandwidth, bytes/second.
    core_bandwidth:
        Aggregate fabric (bisection) bandwidth, bytes/second.
    hop_latency:
        Latency per topology hop, seconds.
    base_latency:
        Fixed per-message latency (software + serialization), seconds.
    topology:
        Optional :class:`Topology` for hop counts; without one, every pair
        of distinct endpoints is ``default_hops`` apart.
    default_hops:
        Hop count used when no topology is attached.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        nic_bandwidth: float,
        core_bandwidth: float,
        hop_latency: float = 0.5e-6,
        base_latency: float = 1.5e-6,
        topology: Optional[Topology] = None,
        default_hops: int = 3,
        topology_map: Optional[Dict[str, str]] = None,
    ):
        if nic_bandwidth <= 0 or core_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if hop_latency < 0 or base_latency < 0:
            raise ValueError("latencies must be non-negative")
        self.env = env
        self.name = name
        self.nic_bandwidth = float(nic_bandwidth)
        self.core = FairShareLink(env, core_bandwidth)
        self.hop_latency = float(hop_latency)
        self.base_latency = float(base_latency)
        self.topology = topology
        self.default_hops = default_hops
        #: Optional endpoint-name -> topology-host-name mapping (platform
        #: node names rarely match generated topology host names).
        self.topology_map = dict(topology_map or {})
        self._endpoints: Dict[str, _Endpoint] = {}
        #: (src, dst) -> (latency, (egress, core, ingress)); see _route.
        self._routes: Dict[Tuple[str, str], tuple] = {}
        self.stats = FabricStats()

    # -- endpoint management -----------------------------------------------
    def attach(self, endpoint: str, nic_bandwidth: Optional[float] = None) -> None:
        """Register an endpoint (idempotent)."""
        if endpoint not in self._endpoints:
            self._endpoints[endpoint] = _Endpoint(
                self.env, endpoint, nic_bandwidth or self.nic_bandwidth
            )

    def has_endpoint(self, endpoint: str) -> bool:
        return endpoint in self._endpoints

    @property
    def endpoints(self) -> list[str]:
        return list(self._endpoints)

    # -- fault injection ------------------------------------------------------
    def degrade_endpoint(self, endpoint: str, factor: float) -> None:
        """Degrade one endpoint's NIC (ingress and egress) by ``factor``.

        Models a flapping host link or a straggling node's NIC;
        ``factor=1.0`` restores health.
        """
        ep = self._endpoints.get(endpoint)
        if ep is None:
            raise KeyError(f"unknown endpoint {endpoint!r} on fabric {self.name!r}")
        ep.ingress.set_degradation(factor)
        ep.egress.set_degradation(factor)

    def degrade_core(self, factor: float) -> None:
        """Degrade the shared core (bisection) link by ``factor``."""
        self.core.set_degradation(factor)

    # -- latency -------------------------------------------------------------
    def latency(self, src: str, dst: str) -> float:
        """One-way message latency between two endpoints."""
        if src == dst:
            return 0.0
        hops = self.default_hops
        if self.topology is not None:
            a = self.topology_map.get(src, src)
            b = self.topology_map.get(dst, dst)
            if a in self.topology.endpoints and b in self.topology.endpoints:
                hops = self.topology.hops(a, b)
        return self.base_latency + hops * self.hop_latency

    # -- transfer ------------------------------------------------------------
    def _route(self, src: str, dst: str) -> tuple:
        """Latency and leg links of a pair, computed once per fabric."""
        route = self._routes.get((src, dst))
        if route is None:
            if src not in self._endpoints:
                raise KeyError(f"unknown endpoint {src!r} on fabric {self.name!r}")
            if dst not in self._endpoints:
                raise KeyError(f"unknown endpoint {dst!r} on fabric {self.name!r}")
            links = (
                self._endpoints[src].egress,
                self.core,
                self._endpoints[dst].ingress,
            )
            route = self._routes[(src, dst)] = (self.latency(src, dst), links)
        return route

    def send(self, src: str, dst: str, nbytes: float):
        """Simulated-process generator moving ``nbytes`` from src to dst.

        Usage: ``yield from fabric.send("c0", "oss1", 1 << 20)``.
        Returns the transfer duration in seconds.  Intra-node transfers
        (``src == dst``) are free.  A sender interrupted mid-message stops
        waiting; the message itself still crosses the fabric.
        """
        lat, links = self._route(src, dst)
        env = self.env
        start = env._now
        self.stats.messages += 1
        if src == dst:
            return 0.0
        self.stats.bytes += nbytes
        if nbytes > 0:
            done = Event(env)
            msg = _Message(links, nbytes, done)
            if lat > 0:
                env.timeout(lat).callbacks = msg.admit
            else:
                msg.admit()
            yield done
        elif lat > 0:
            yield env.timeout(lat)
        return env._now - start
