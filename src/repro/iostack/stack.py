"""Convenience assembly of the full per-rank I/O stack.

Builds, for every rank of a program, the Fig. 2 layering
``HDF5 -> MPI-IO -> POSIX -> PFS client`` with all the cross-rank shared
state wired correctly, and exposes a single :meth:`IOStackBuilder.io_factory`
suitable for :meth:`repro.mpi.runtime.MPIRuntime.launch`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.iostack.hdf5 import H5File
from repro.iostack.mpiio import MPIIOLayer
from repro.iostack.posix import PosixLayer
from repro.mpi.runtime import MPIRuntime, RankContext
from repro.ops import IORecord
from repro.pfs.filesystem import ParallelFileSystem
from repro.telemetry import TELEMETRY

log = logging.getLogger(__name__)


def _count_layer_record(rec: IORecord) -> None:
    """Telemetry observer: per-layer record counters (attached only when
    telemetry is enabled at stack-build time, so disabled runs pay nothing
    per record)."""
    TELEMETRY.metrics.counter(f"iostack.records.{rec.layer}").inc()


@dataclass
class RankIO:
    """The I/O stack of one rank (attached as ``ctx.io``)."""

    posix: PosixLayer
    mpiio: MPIIOLayer
    h5: H5File

    def add_observer(self, observer: Callable[[IORecord], None]) -> None:
        """Subscribe ``observer`` to records from every layer of this rank."""
        self.posix.observers.append(observer)
        self.mpiio.observers.append(observer)
        self.h5.observers.append(observer)
        self.posix.client.observers.append(observer)


class IOStackBuilder:
    """Creates consistent per-rank stacks for one program run.

    Parameters
    ----------
    pfs:
        The file system the ranks talk to.
    runtime:
        The MPI runtime whose ranks will receive stacks.
    cb_nodes:
        Collective-buffering aggregator count (see
        :class:`~repro.iostack.mpiio.MPIIOLayer`).
    observers:
        Observers attached to every layer of every rank (e.g. a tracer).
    client_kwargs:
        Client knobs (cache sizes, RPC resilience), forwarded to every
        rank's :class:`~repro.pfs.client.PFSClient`, which documents and
        validates them; left out, the clients run cache-less and without
        resilience.
    """

    def __init__(
        self,
        pfs: ParallelFileSystem,
        runtime: MPIRuntime,
        cb_nodes: Optional[int] = None,
        observers: Optional[List[Callable[[IORecord], None]]] = None,
        **client_kwargs: Any,
    ):
        self.pfs = pfs
        self.runtime = runtime
        self.cb_nodes = cb_nodes
        self.client_kwargs = client_kwargs
        self.observers = list(observers or [])
        self._mpiio_registry = MPIIOLayer.make_shared_registry()
        self._h5_shared = H5File.make_shared_state()
        self.stacks: Dict[int, RankIO] = {}

    def io_factory(self, ctx: RankContext) -> RankIO:
        """Build (or return) the stack for ``ctx``'s rank."""
        if ctx.rank in self.stacks:
            return self.stacks[ctx.rank]
        client = self.pfs.client(ctx.node, rank=ctx.rank, **self.client_kwargs)
        posix = PosixLayer(client, rank=ctx.rank)
        mpiio = MPIIOLayer(
            posix,
            ctx.comm,
            ctx.rank,
            shared_registry=self._mpiio_registry,
            cb_nodes=self.cb_nodes,
        )
        h5 = H5File(mpiio, shared=self._h5_shared)
        stack = RankIO(posix=posix, mpiio=mpiio, h5=h5)
        for obs in self.observers:
            stack.add_observer(obs)
        if TELEMETRY.active:
            TELEMETRY.metrics.counter("iostack.stacks_built").inc()
            stack.add_observer(_count_layer_record)
        log.debug("built I/O stack for rank %d on %s", ctx.rank, ctx.node)
        self.stacks[ctx.rank] = stack
        return stack
