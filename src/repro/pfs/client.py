"""Parallel file system client.

The client implements the bottom of paper Fig. 2's stack: it translates
POSIX-level calls into metadata RPCs (to the MDS owning the path) and
striped data RPCs (fanned out to the OSSes holding the file's OSTs).  Large
slices are cut into ``max_rpc`` chunks, all issued concurrently; the OST
device queues keep same-file chunks in order so sequential streams stay
sequential at the device.

An optional block-granular LRU read cache models the client-side page
cache; deep-learning workloads with datasets larger than the cache get the
miss behaviour that motivates the paper's Sec. V-B.

Observers registered on :attr:`PFSClient.observers` receive an
:class:`~repro.ops.IORecord` (layer ``"pfs"``) for every completed
operation -- this is the attachment point for job-level monitoring.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.ops import IORecord, OpKind, StorageUnavailable
from repro.pfs.extents import clip, coalesce, total_bytes
from repro.pfs.layout import StripeLayout
from repro.telemetry import TELEMETRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.pfs.filesystem import ParallelFileSystem

#: Bytes of header on every RPC message.
RPC_HEADER = 128
#: Local memory bandwidth used to cost cache hits (bytes/second).
_MEM_BANDWIDTH = 10e9
_CACHE_HIT_LATENCY = 1e-6
#: Read-cache block granularity in bytes.
CACHE_BLOCK = 1024 * 1024


@dataclass
class ClientStats:
    """Cumulative per-client counters."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    meta_ops: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    read_time: float = 0.0
    write_time: float = 0.0
    meta_time: float = 0.0
    #: Writes absorbed by the write-back cache without touching the PFS.
    buffered_writes: int = 0
    #: Write-back flush operations issued to the PFS.
    flushes: int = 0
    #: Data RPCs re-issued after a failure/timeout (resilience).
    retries: int = 0
    #: Data RPCs abandoned because they exceeded ``rpc_timeout``.
    rpc_timeouts: int = 0
    #: Data RPCs re-issued to a replica OST after the primary failed.
    failovers: int = 0
    #: Best-effort mirror writes dropped because their OST was down.
    degraded_writes: int = 0


class PFSClient:
    """One node's file system client.

    Parameters
    ----------
    fs:
        The :class:`~repro.pfs.filesystem.ParallelFileSystem` instance.
    node:
        Fabric endpoint name of the node this client runs on.
    rank:
        Default rank recorded on emitted records (overridable per call).
    read_cache_bytes:
        Capacity of the local read cache (0 disables it), cached in
        :data:`CACHE_BLOCK` blocks.
    write_cache_bytes:
        Capacity of the local write-back cache (0 disables it); a write of
        at most this size is absorbed at memory speed and flushed later.
    rpc_timeout:
        Per-data-RPC timeout in simulated seconds; an attempt still in
        flight after this long is abandoned (it keeps consuming server
        resources, like a real duplicate RPC) and retried.  ``0`` (the
        default) disables the timeout.
    rpc_retries:
        Bounded retry budget per data RPC after the first attempt.  Each
        retry waits an exponential backoff ``min(retry_backoff_cap,
        retry_backoff * 2^n)`` first -- this is what lets a client ride
        out an injected OST/OSS outage ("block until recovery").
    retry_backoff / retry_backoff_cap:
        Base and upper bound of the backoff delay, seconds.

    Resilience is off (and the RPC path byte-identical to a client
    without these parameters) unless ``rpc_timeout`` or ``rpc_retries``
    is set.
    """

    def __init__(
        self,
        fs: "ParallelFileSystem",
        node: str,
        rank: int = 0,
        read_cache_bytes: int = 0,
        write_cache_bytes: int = 0,
        rpc_timeout: float = 0.0,
        rpc_retries: int = 0,
        retry_backoff: float = 0.005,
        retry_backoff_cap: float = 0.5,
    ):
        if write_cache_bytes < 0:
            raise ValueError("write_cache_bytes must be non-negative")
        if rpc_timeout < 0 or rpc_retries < 0:
            raise ValueError("rpc_timeout and rpc_retries must be non-negative")
        if retry_backoff <= 0 or retry_backoff_cap < retry_backoff:
            raise ValueError(
                "retry_backoff must be positive and <= retry_backoff_cap"
            )
        self.fs = fs
        self.env = fs.env
        self.node = node
        self.rank = rank
        self.read_cache_bytes = int(read_cache_bytes)
        self._cache: OrderedDict[tuple, bool] = OrderedDict()
        self._layouts: Dict[str, StripeLayout] = {}
        # Write-back cache: per-path dirty extents in insertion order.
        self.write_cache_bytes = int(write_cache_bytes)
        self._dirty: "OrderedDict[str, list]" = OrderedDict()
        self._dirty_bytes = 0
        self.rpc_timeout = float(rpc_timeout)
        self.rpc_retries = int(rpc_retries)
        self.retry_backoff = float(retry_backoff)
        self.retry_backoff_cap = float(retry_backoff_cap)
        # One boolean, checked once per data RPC: the zero-fault path stays
        # the exact pre-resilience code (same events, same order).
        self._resilient = self.rpc_timeout > 0.0 or self.rpc_retries > 0
        self.stats = ClientStats()
        self.observers: List[Callable[[IORecord], None]] = []

    # -- record emission ------------------------------------------------------
    def _emit(
        self,
        kind: OpKind,
        path: str,
        offset: int,
        nbytes: int,
        start: float,
        rank: Optional[int],
        extra: Optional[dict] = None,
    ):
        if not self.observers:
            return
        rec = IORecord(
            layer="pfs",
            kind=kind,
            path=path,
            offset=offset,
            nbytes=nbytes,
            rank=self.rank if rank is None else rank,
            start=start,
            end=self.env._now,
            extra=extra or {},
        )
        for obs in self.observers:
            obs(rec)

    # -- metadata operations ----------------------------------------------------
    def _meta(self, kind: OpKind, path: str, rank: Optional[int] = None, **kwargs):
        start = self.env.now
        mds, mds_node = self.fs.mds_for(path)
        fabric = self.fs.fabric
        yield from fabric.send(self.node, mds_node, RPC_HEADER)
        result = yield from mds.serve(kind, path, **kwargs)
        yield from fabric.send(mds_node, self.node, RPC_HEADER)
        self.stats.meta_ops += 1
        self.stats.meta_time += self.env.now - start
        # OPEN/CREATE records carry the file's layout so that trace replay
        # can recreate files with the original striping.
        extra = None
        if kind in (OpKind.OPEN, OpKind.CREATE) and hasattr(result, "layout"):
            extra = {
                "stripe_count": result.layout.stripe_count,
                "stripe_size": result.layout.stripe_size,
            }
        self._emit(kind, path, 0, 0, start, rank, extra=extra)
        return result

    def mkdir(self, path: str, rank: Optional[int] = None):
        return self._meta(OpKind.MKDIR, path, rank=rank)

    def rmdir(self, path: str, rank: Optional[int] = None):
        return self._meta(OpKind.RMDIR, path, rank=rank)

    def create(
        self,
        path: str,
        stripe_count: Optional[int] = None,
        stripe_size: Optional[int] = None,
        rank: Optional[int] = None,
    ):
        """Create a file, choosing its stripe layout (generator)."""
        layout = self.fs.new_layout(stripe_count=stripe_count, stripe_size=stripe_size)
        inode = yield from self._meta(OpKind.CREATE, path, rank=rank, layout=layout)
        self._layouts[inode.path] = inode.layout
        return inode

    def open(self, path: str, create: bool = False, rank: Optional[int] = None, **create_kwargs):
        """Open (optionally creating) a file; caches its layout locally."""
        if create and not self.fs.namespace.is_file(path):
            # O_CREAT without O_EXCL: another rank may create the file
            # between our check and the MDS applying ours; fall back to a
            # plain open in that case.
            try:
                inode = yield from self.create(path, rank=rank, **create_kwargs)
                return inode
            except FileExistsError:
                pass
        inode = yield from self._meta(OpKind.OPEN, path, rank=rank)
        self._layouts[inode.path] = inode.layout
        return inode

    def close(self, path: str, rank: Optional[int] = None):
        """Generator: flush buffered writes, then close at the MDS."""
        yield from self._flush_path(path)
        result = yield from self._meta(OpKind.CLOSE, path, rank=rank)
        return result

    def stat(self, path: str, rank: Optional[int] = None):
        return self._meta(OpKind.STAT, path, rank=rank)

    def unlink(self, path: str, rank: Optional[int] = None):
        self._invalidate_path(path)
        dropped = self._dirty.pop(path, [])
        self._dirty_bytes -= sum(n for _, n in dropped)
        return self._meta(OpKind.UNLINK, path, rank=rank)

    def readdir(self, path: str, rank: Optional[int] = None):
        return self._meta(OpKind.READDIR, path, rank=rank)

    def fsync(self, path: str, rank: Optional[int] = None):
        """Generator: flush buffered writes, then the metadata fsync."""
        yield from self._flush_path(path)
        result = yield from self._meta(OpKind.FSYNC, path, rank=rank)
        return result

    # -- data operations -----------------------------------------------------------
    def _layout(self, path: str):
        """Resolve a file's layout, fetching it via STAT if not cached."""
        layout = self._layouts.get(path)
        if layout is None:
            inode = yield from self._meta(OpKind.STAT, path)
            layout = inode.layout
            self._layouts[inode.path] = layout
        return layout

    def write(self, path: str, offset: int, nbytes: int, rank: Optional[int] = None):
        """Write an extent (generator); returns the elapsed time.

        With a write-back cache (``write_cache_bytes > 0``), writes that
        fit buffer locally at memory speed and reach the PFS on fsync,
        close, cache pressure, or an overlapping read.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        env = self.env
        start = env._now
        layout = self._layouts.get(path)
        if layout is None:
            layout = yield from self._layout(path)
        if nbytes > 0:
            if 0 < nbytes <= self.write_cache_bytes:
                yield from self._buffer_write(path, offset, nbytes)
            else:
                yield from self._write_through(path, offset, nbytes, layout)
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += nbytes
        stats.write_time += env._now - start
        self._emit(OpKind.WRITE, path, offset, nbytes, start, rank)
        return env._now - start

    def _write_through(self, path: str, offset: int, nbytes: int, layout=None):
        if layout is None:
            layout = yield from self._layout(path)
        env = self.env
        procs = []
        for sl in layout.slices(offset, nbytes):
            alt = layout.replica_of(sl.ost_index)
            for obj_off, length in self._chunks(sl.object_offset, sl.length):
                procs.append(env.process(
                    self._data_rpc(sl.ost_id, obj_off, length, True,
                                   alt_ost_id=alt)
                ))
                if alt is not None:
                    # Mirror copy: best effort -- if its OST is down the
                    # primary copy carries the data (resync is offline).
                    procs.append(env.process(
                        self._data_rpc(alt, obj_off, length, True,
                                       best_effort=True)
                    ))
        yield env.all_of(procs)
        self.fs.namespace.update_size(path, offset + nbytes, now=env._now)
        self._invalidate_extent(path, offset, nbytes)

    # -- write-back cache -----------------------------------------------------
    def _buffer_write(self, path: str, offset: int, nbytes: int):
        """Absorb a write locally, evicting older dirty data if needed."""
        while self._dirty_bytes + nbytes > self.write_cache_bytes and self._dirty:
            yield from self._flush_oldest()
        self._dirty.setdefault(path, []).append((offset, nbytes))
        self._dirty_bytes += nbytes
        self.stats.buffered_writes += 1
        # Memory-speed absorption; size becomes visible immediately (as a
        # page-cache write would make it on the writing node).
        yield self.env.timeout(_CACHE_HIT_LATENCY + nbytes / _MEM_BANDWIDTH)
        self.fs.namespace.update_size(path, offset + nbytes, now=self.env.now)
        self._invalidate_extent(path, offset, nbytes)

    def _flush_oldest(self):
        path = next(iter(self._dirty))
        yield from self._flush_path(path)

    def _flush_path(self, path: str):
        """Write back every dirty extent of one file (coalesced)."""
        extents = self._dirty.pop(path, [])
        if not extents:
            return
        merged = coalesce(extents)
        self._dirty_bytes -= sum(n for _, n in extents)
        self.stats.flushes += 1
        for off, n in merged:
            yield from self._write_through(path, off, n)

    def flush_all(self):
        """Generator: write back every dirty byte (all files)."""
        for path in list(self._dirty):
            yield from self._flush_path(path)

    def dirty_bytes(self, path: Optional[str] = None) -> int:
        """Unwritten buffered bytes (optionally for one file)."""
        if path is not None:
            return sum(n for _, n in self._dirty.get(path, []))
        return self._dirty_bytes

    def read(self, path: str, offset: int, nbytes: int, rank: Optional[int] = None):
        """Read an extent (generator); returns the elapsed time.

        Reads may extend past EOF (the simulator does not materialise
        data); the path itself must exist.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        env = self.env
        start = env._now
        layout = self._layouts.get(path)
        if layout is None:
            layout = yield from self._layout(path)
        if nbytes > 0 and self._dirty.get(path):
            covered = total_bytes(
                clip(coalesce(self._dirty[path]), offset, offset + nbytes)
            )
            if covered >= nbytes:
                # Entirely in the local write-back buffer: memory speed.
                yield env.timeout(_CACHE_HIT_LATENCY + nbytes / _MEM_BANDWIDTH)
                self.stats.reads += 1
                self.stats.bytes_read += nbytes
                self.stats.cache_hits += 1
                self.stats.read_time += env._now - start
                self._emit(OpKind.READ, path, offset, nbytes, start, rank)
                return env._now - start
            # Partially dirty: write back first for a consistent read.
            yield from self._flush_path(path)
        if nbytes > 0:
            miss_ranges = self._cache_lookup(path, offset, nbytes)
            if not miss_ranges:
                self.stats.cache_hits += 1
                yield env.timeout(_CACHE_HIT_LATENCY + nbytes / _MEM_BANDWIDTH)
            else:
                self.stats.cache_misses += 1
                procs = []
                for m_off, m_len in miss_ranges:
                    for sl in layout.slices(m_off, m_len):
                        alt = layout.replica_of(sl.ost_index)
                        for obj_off, length in self._chunks(
                            sl.object_offset, sl.length
                        ):
                            procs.append(env.process(
                                self._data_rpc(sl.ost_id, obj_off, length,
                                               False, alt_ost_id=alt)
                            ))
                yield env.all_of(procs)
                self._cache_insert(path, offset, nbytes)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += nbytes
        stats.read_time += env._now - start
        self._emit(OpKind.READ, path, offset, nbytes, start, rank)
        return env._now - start

    # -- plumbing -----------------------------------------------------------------
    def _chunks(self, object_offset: int, length: int):
        """Cut a slice into at-most-``max_rpc``-byte pieces."""
        max_rpc = self.fs.max_rpc
        pos = object_offset
        end = object_offset + length
        while pos < end:
            take = min(max_rpc, end - pos)
            yield pos, take
            pos += take

    def _data_rpc(
        self,
        ost_id: int,
        object_offset: int,
        nbytes: int,
        is_write: bool,
        alt_ost_id: Optional[int] = None,
        best_effort: bool = False,
    ):
        """The generator of one data RPC, with resilience when configured."""
        if not self._resilient:
            return self._rpc_once(ost_id, object_offset, nbytes, is_write)
        return self._data_rpc_resilient(
            ost_id, object_offset, nbytes, is_write, alt_ost_id, best_effort
        )

    def _rpc_once(self, ost_id: int, object_offset: int, nbytes: int, is_write: bool):
        """One data RPC attempt: request out, server service, reply back."""
        oss, oss_node = self.fs.ost_location(ost_id)
        fabric = self.fs.fabric
        if is_write:
            yield from fabric.send(self.node, oss_node, nbytes + RPC_HEADER)
            yield from oss.serve_data(ost_id, object_offset, nbytes, True)
            yield from fabric.send(oss_node, self.node, RPC_HEADER)
        else:
            yield from fabric.send(self.node, oss_node, RPC_HEADER)
            yield from oss.serve_data(ost_id, object_offset, nbytes, False)
            yield from fabric.send(oss_node, self.node, nbytes + RPC_HEADER)

    # -- resilient RPC path ---------------------------------------------------
    def _rpc_shielded(self, ost_id: int, object_offset: int, nbytes: int,
                      is_write: bool):
        """One attempt that reports failure instead of raising, so a
        timed-out (abandoned) attempt can never crash the simulation."""
        try:
            yield from self._rpc_once(ost_id, object_offset, nbytes, is_write)
        except StorageUnavailable:
            return "unavailable"
        return "ok"

    def _rpc_attempt(self, ost_id: int, object_offset: int, nbytes: int,
                     is_write: bool):
        """Issue one attempt, racing it against ``rpc_timeout`` when set.

        Returns ``"ok"``, ``"unavailable"`` or ``"timeout"``.
        """
        env = self.env
        if self.rpc_timeout <= 0.0:
            result = yield from self._rpc_shielded(
                ost_id, object_offset, nbytes, is_write
            )
            return result
        proc = env.process(
            self._rpc_shielded(ost_id, object_offset, nbytes, is_write)
        )
        yield env.any_of([proc, env.timeout(self.rpc_timeout)])
        if proc.triggered:
            return proc.value
        # The attempt lost the race: abandon it.  The in-flight RPC still
        # completes in the background, consuming fabric and server time
        # exactly like the duplicate RPC a real timed-out client leaves
        # behind; _rpc_shielded guarantees its late failure is harmless.
        return "timeout"

    def _data_rpc_resilient(
        self,
        ost_id: int,
        object_offset: int,
        nbytes: int,
        is_write: bool,
        alt_ost_id: Optional[int],
        best_effort: bool,
    ):
        env = self.env
        targets = (ost_id,) if alt_ost_id is None else (ost_id, alt_ost_id)
        failures = 0
        backoffs = 0
        while True:
            target = targets[failures % len(targets)]
            outcome = yield from self._rpc_attempt(
                target, object_offset, nbytes, is_write
            )
            if outcome == "ok":
                return
            if outcome == "timeout":
                self.stats.rpc_timeouts += 1
                if TELEMETRY.active:
                    TELEMETRY.metrics.counter("pfs.client.rpc_timeouts").inc()
                    with TELEMETRY.tracer.span(
                        "pfs.rpc_timeout", cat="faults", ost=target,
                        nbytes=nbytes, write=is_write,
                    ):
                        pass
            failures += 1
            if best_effort:
                # Mirror copy: its twin already carries the data, so give
                # up immediately instead of stalling the whole stripe.
                self.stats.degraded_writes += 1
                if TELEMETRY.active:
                    TELEMETRY.metrics.counter("pfs.client.degraded_writes").inc()
                return
            if len(targets) == 2 and failures == 1:
                # Stripe-level failover: re-issue to the replica OST right
                # away -- no backoff, the mirror is (probably) healthy.
                self.stats.failovers += 1
                if TELEMETRY.active:
                    TELEMETRY.metrics.counter("pfs.client.failovers").inc()
                    with TELEMETRY.tracer.span(
                        "pfs.failover", cat="faults", ost=ost_id,
                        replica=alt_ost_id, write=is_write,
                    ):
                        pass
                continue
            if backoffs >= self.rpc_retries:
                raise StorageUnavailable(
                    f"data RPC to OST {target} failed after "
                    f"{failures} attempt(s) ({outcome})"
                )
            delay = min(
                self.retry_backoff_cap, self.retry_backoff * (2.0 ** backoffs)
            )
            backoffs += 1
            self.stats.retries += 1
            if TELEMETRY.active:
                TELEMETRY.metrics.counter("pfs.client.retries").inc()
                with TELEMETRY.tracer.span(
                    "pfs.rpc_retry", cat="faults", ost=target,
                    attempt=backoffs, backoff=delay, write=is_write,
                ):
                    pass
            yield env.timeout(delay)

    # -- read cache ------------------------------------------------------------------
    def _block_range(self, offset: int, nbytes: int):
        first = offset // CACHE_BLOCK
        last = (offset + nbytes - 1) // CACHE_BLOCK
        return first, last

    def _cache_lookup(self, path: str, offset: int, nbytes: int):
        """Return the byte ranges NOT covered by the cache (possibly all)."""
        if self.read_cache_bytes <= 0:
            return [(offset, nbytes)]
        first, last = self._block_range(offset, nbytes)
        missing: list[tuple[int, int]] = []
        run_start: Optional[int] = None
        for blk in range(first, last + 1):
            key = (path, blk)
            if key in self._cache:
                self._cache.move_to_end(key)  # LRU touch
                if run_start is not None:
                    missing.append((run_start, blk))
                    run_start = None
            else:
                if run_start is None:
                    run_start = blk
        if run_start is not None:
            missing.append((run_start, last + 1))
        return [
            (blk_start * CACHE_BLOCK, (blk_end - blk_start) * CACHE_BLOCK)
            for blk_start, blk_end in missing
        ]

    def _cache_insert(self, path: str, offset: int, nbytes: int) -> None:
        if self.read_cache_bytes <= 0 or nbytes == 0:
            return
        max_blocks = self.read_cache_bytes // CACHE_BLOCK
        if max_blocks == 0:
            return
        first, last = self._block_range(offset, nbytes)
        for blk in range(first, last + 1):
            self._cache[(path, blk)] = True
            self._cache.move_to_end((path, blk))
        while len(self._cache) > max_blocks:
            self._cache.popitem(last=False)

    def _invalidate_extent(self, path: str, offset: int, nbytes: int) -> None:
        if self.read_cache_bytes <= 0 or nbytes == 0:
            return
        first, last = self._block_range(offset, nbytes)
        for blk in range(first, last + 1):
            self._cache.pop((path, blk), None)

    def _invalidate_path(self, path: str) -> None:
        if self.read_cache_bytes <= 0:
            return
        for key in [k for k in self._cache if k[0] == path]:
            del self._cache[key]
        self._layouts.pop(path, None)
