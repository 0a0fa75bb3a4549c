"""MPI-IO-like middleware: independent and collective I/O.

Implements the middle of paper Fig. 2's stack with the two optimisations
that define ROMIO-style MPI-IO:

* **Two-phase collective buffering** (``write_at_all``/``read_at_all``):
  all ranks synchronise, exchange their pieces with a subset of
  *aggregator* ranks (shuffle over the compute fabric), and only the
  aggregators touch the file system -- with large, contiguous, coalesced
  extents.  This converts N ranks' small strided accesses into
  ``cb_nodes`` streaming accesses, which is why collective I/O wins for
  non-contiguous patterns (claim C9).
* **Data sieving** for non-contiguous *independent* access: when the
  requested extents are dense enough and the span fits the sieve buffer,
  one large read (plus a write-back for writes) replaces many small ops.

Every rank emits an :class:`~repro.ops.IORecord` (layer ``"mpiio"``) per
call, with ``extra={"collective": bool}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.iostack.posix import PosixLayer
from repro.mpi.runtime import Communicator
from repro.ops import IORecord, OpKind
from repro.pfs.extents import (
    Extent,
    coalesce,
    fill_ratio,
    partition_evenly,
    span,
    total_bytes,
)


class _CollectiveRound:
    """Shared per-round state of one collective I/O call."""

    __slots__ = ("requests", "exited")

    def __init__(self):
        self.requests: Dict[int, List[Extent]] = {}
        self.exited = 0


class _SharedFile:
    """State shared by all ranks that collectively opened one file."""

    def __init__(self, path: str):
        self.path = path
        self.rounds: Dict[Tuple[str, int], _CollectiveRound] = {}


@dataclass
class MPIIOFile:
    """One rank's handle on a collectively-opened file."""

    path: str
    fd: int  # posix descriptor on this rank
    shared: _SharedFile
    local_seq: int = 0


class MPIIOLayer:
    """Per-rank MPI-IO surface.

    Parameters
    ----------
    posix:
        This rank's POSIX layer.
    comm:
        The program's communicator.
    rank:
        This rank.
    cb_nodes:
        Number of collective-buffering aggregators (ROMIO ``cb_nodes``
        hint).  Defaults to one per four ranks, at least 1.
    sieve_buffer:
        Data-sieving buffer size in bytes (ROMIO ``ind_rd_buffer_size``).
    sieve_threshold:
        Minimum fill ratio at which sieving is considered profitable.
    """

    #: Registry shared across the per-rank layer instances of one program.
    def __init__(
        self,
        posix: PosixLayer,
        comm: Communicator,
        rank: int,
        shared_registry: Dict[str, _SharedFile],
        cb_nodes: Optional[int] = None,
        sieve_buffer: int = 4 * 1024 * 1024,
        sieve_threshold: float = 0.3,
    ):
        self.posix = posix
        self.comm = comm
        self.rank = rank
        self.env = posix.env
        self._registry = shared_registry
        self.cb_nodes = cb_nodes if cb_nodes is not None else max(1, comm.size // 4)
        self.cb_nodes = min(self.cb_nodes, comm.size)
        self.sieve_buffer = sieve_buffer
        self.sieve_threshold = sieve_threshold
        self.observers: List[Callable[[IORecord], None]] = []
        # Statistics.
        self.collective_calls = 0
        self.independent_calls = 0
        self.sieved_calls = 0

    @staticmethod
    def make_shared_registry() -> Dict[str, _SharedFile]:
        """Create the registry to share among all ranks' layer instances."""
        return {}

    # -- record emission ----------------------------------------------------
    def _emit(self, kind: OpKind, path: str, offset: int, nbytes: int, start: float, collective: bool):
        if not self.observers:
            return
        rec = IORecord(
            layer="mpiio",
            kind=kind,
            path=path,
            offset=offset,
            nbytes=nbytes,
            rank=self.rank,
            start=start,
            end=self.env.now,
            extra={"collective": collective},
        )
        for obs in self.observers:
            obs(rec)

    # -- open / close (collective) ----------------------------------------------
    def open_all(self, path: str, create: bool = False, **create_kwargs):
        """Generator: collective open.  Rank 0 creates, others then open."""
        start = self.env.now
        if create and self.rank == 0:
            fd = yield from self.posix.open(path, create=True, **create_kwargs)
        else:
            fd = None
        yield from self.comm.barrier(self.rank, tag=f"mpiio.open:{path}")
        if fd is None:
            fd = yield from self.posix.open(path, create=False)
        shared = self._registry.setdefault(path, _SharedFile(path))
        self._emit(OpKind.OPEN, path, 0, 0, start, collective=True)
        return MPIIOFile(path=path, fd=fd, shared=shared)

    def close_all(self, handle: MPIIOFile):
        """Generator: collective close."""
        start = self.env.now
        yield from self.posix.close(handle.fd)
        yield from self.comm.barrier(self.rank, tag=f"mpiio.close:{handle.path}")
        self._emit(OpKind.CLOSE, handle.path, 0, 0, start, collective=True)

    # -- independent I/O --------------------------------------------------------
    def write_at(self, handle: MPIIOFile, offset: int, nbytes: int):
        """Generator: independent contiguous write."""
        start = self.env.now
        yield from self.posix.pwrite(handle.fd, offset, nbytes)
        self.independent_calls += 1
        self._emit(OpKind.WRITE, handle.path, offset, nbytes, start, collective=False)
        return self.env.now - start

    def read_at(self, handle: MPIIOFile, offset: int, nbytes: int):
        """Generator: independent contiguous read."""
        start = self.env.now
        yield from self.posix.pread(handle.fd, offset, nbytes)
        self.independent_calls += 1
        self._emit(OpKind.READ, handle.path, offset, nbytes, start, collective=False)
        return self.env.now - start

    def write_noncontig(self, handle: MPIIOFile, extents: List[Extent], sieve: bool = True):
        """Generator: independent non-contiguous write (optionally sieved).

        Sieved writes are read-modify-write: read the span, write it back.
        """
        start = self.env.now
        ext = coalesce(extents)
        if self._should_sieve(ext) and sieve:
            lo, spn = span(ext)
            yield from self.posix.pread(handle.fd, lo, spn)
            yield from self.posix.pwrite(handle.fd, lo, spn)
            self.sieved_calls += 1
        else:
            for off, n in ext:
                yield from self.posix.pwrite(handle.fd, off, n)
        self.independent_calls += 1
        self._emit(
            OpKind.WRITE, handle.path, ext[0][0] if ext else 0, total_bytes(ext), start, False
        )
        return self.env.now - start

    def read_noncontig(self, handle: MPIIOFile, extents: List[Extent], sieve: bool = True):
        """Generator: independent non-contiguous read (optionally sieved)."""
        start = self.env.now
        ext = coalesce(extents)
        if self._should_sieve(ext) and sieve:
            lo, spn = span(ext)
            yield from self.posix.pread(handle.fd, lo, spn)
            self.sieved_calls += 1
        else:
            for off, n in ext:
                yield from self.posix.pread(handle.fd, off, n)
        self.independent_calls += 1
        self._emit(
            OpKind.READ, handle.path, ext[0][0] if ext else 0, total_bytes(ext), start, False
        )
        return self.env.now - start

    def _should_sieve(self, ext: List[Extent]) -> bool:
        if len(ext) <= 1:
            return False
        _, spn = span(ext)
        return spn <= self.sieve_buffer and fill_ratio(ext) >= self.sieve_threshold

    # -- collective I/O -----------------------------------------------------------
    def write_at_all(self, handle: MPIIOFile, extents: List[Extent]):
        """Generator: collective write (two-phase)."""
        yield from self._two_phase(handle, extents, is_write=True)

    def read_at_all(self, handle: MPIIOFile, extents: List[Extent]):
        """Generator: collective read (two-phase)."""
        yield from self._two_phase(handle, extents, is_write=False)

    def _two_phase(self, handle: MPIIOFile, extents: List[Extent], is_write: bool):
        start = self.env.now
        seq = handle.local_seq
        handle.local_seq += 1
        key = ("w" if is_write else "r", seq)
        rnd = handle.shared.rounds.setdefault(key, _CollectiveRound())
        rnd.requests[self.rank] = list(extents)
        tag = f"mpiio.coll:{handle.path}:{key}"

        # Phase 0: everyone arrives; after this, rnd.requests is complete.
        yield from self.comm.barrier(self.rank, tag=tag + ":in")

        all_extents = [e for req in rnd.requests.values() for e in req]
        merged = coalesce(all_extents)
        total = total_bytes(merged)
        n_agg = min(self.cb_nodes, self.comm.size)
        my_bytes = total_bytes(coalesce(extents))

        # Phase 1: shuffle to/from aggregators (reads shuffle after the I/O,
        # but the cost model is symmetric so we charge it around the I/O).
        if self.comm.size > 1 and total > 0:
            per_peer = my_bytes / max(1, self.comm.size)
            yield from self.comm.alltoall(self.rank, per_peer, tag=tag + ":shuffle")

        # Phase 2: aggregators perform large contiguous file accesses.
        if self.rank < n_agg and total > 0:
            domains = partition_evenly(merged, n_agg)
            for off, n in domains[self.rank]:
                if is_write:
                    yield from self.posix.pwrite(handle.fd, off, n)
                else:
                    yield from self.posix.pread(handle.fd, off, n)

        # Phase 3: everyone leaves together.
        yield from self.comm.barrier(self.rank, tag=tag + ":out")
        rnd.exited += 1
        if rnd.exited == self.comm.size:
            del handle.shared.rounds[key]

        self.collective_calls += 1
        kind = OpKind.WRITE if is_write else OpKind.READ
        first_off = extents[0][0] if extents else 0
        self._emit(kind, handle.path, first_off, my_bytes, start, collective=True)
        return self.env.now - start
