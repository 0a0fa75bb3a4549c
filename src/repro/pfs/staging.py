"""Burst-buffer staging client.

Completes the Fig. 1 data path: applications write checkpoints into the
I/O-node burst buffer at SSD speed; the staging client tracks which byte
extents are still resident in the buffer, drains them to the parallel
file system in write order, and serves reads from the buffer while the
data is staged (the "restart from the burst buffer" fast path) or from
the PFS after it drained.

This is the programmable version of what claim C5 wires manually, and the
substrate for burst-buffer placement studies (Khetawat et al. [33]).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster.burst_buffer import BurstBuffer
from repro.pfs.client import PFSClient
from repro.pfs.extents import clip, coalesce, total_bytes


@dataclass
class _Segment:
    """One absorbed write awaiting drain."""

    path: str
    offset: int
    remaining: int
    cursor: int  # next undrained byte within [offset, offset+len)


class StagingClient:
    """Write-through-buffer, read-from-wherever-the-data-is client.

    Parameters
    ----------
    bb:
        The burst buffer (its drain target is installed by this client;
        do not call ``set_drain_target`` yourself).
    pfs_client:
        The client used for draining and for reads of drained data
        (typically created on the burst buffer's I/O node).
    stripe_count:
        Stripe count for files the drain creates on the PFS.
    """

    def __init__(
        self,
        bb: BurstBuffer,
        pfs_client: PFSClient,
        stripe_count: Optional[int] = -1,
    ):
        self.bb = bb
        self.pfs = pfs_client
        self.env = pfs_client.env
        self.stripe_count = stripe_count
        self._drain_fifo: Deque[_Segment] = deque()
        self._staged: Dict[str, List[Tuple[int, int]]] = {}
        self._created: set = set()
        self.bytes_staged_total = 0
        self.bytes_drained_total = 0
        bb.set_drain_target(self._drain_fn)

    # -- write path -----------------------------------------------------------
    def write(self, path: str, offset: int, nbytes: int):
        """Generator: absorb a write into the burst buffer."""
        if nbytes < 0 or offset < 0:
            raise ValueError("offset and nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        seg = _Segment(path=path, offset=offset, remaining=nbytes, cursor=offset)
        self._drain_fifo.append(seg)
        self._staged[path] = coalesce(
            self._staged.get(path, []) + [(offset, nbytes)]
        )
        self.bytes_staged_total += nbytes
        dt = yield from self.bb.write(nbytes)
        return dt

    def flush(self):
        """Generator: wait until every absorbed byte is durable on the PFS."""
        yield from self.bb.flush()

    # -- read path ---------------------------------------------------------------
    def is_staged(self, path: str, offset: int, nbytes: int) -> bool:
        """Whether the extent is still fully resident in the buffer."""
        staged = self._staged.get(path, [])
        covered = clip(staged, offset, offset + nbytes)
        return total_bytes(covered) == nbytes

    def read(self, path: str, offset: int, nbytes: int):
        """Generator: read from the buffer when staged, else from the PFS."""
        if self.is_staged(path, offset, nbytes):
            yield from self.bb.read(offset, nbytes)
            return "bb"
        yield from self.pfs.read(path, offset, nbytes)
        return "pfs"

    # -- drain plumbing --------------------------------------------------------------
    def _drain_fn(self, nbytes: float):
        """Drain callback: move ``nbytes`` of FIFO segments to the PFS."""
        remaining = int(nbytes)
        while remaining > 0 and self._drain_fifo:
            seg = self._drain_fifo[0]
            take = min(remaining, seg.remaining)
            if seg.path not in self._created:
                try:
                    yield from self.pfs.create(
                        seg.path, stripe_count=self.stripe_count
                    )
                except FileExistsError:
                    pass
                self._created.add(seg.path)
            yield from self.pfs.write(seg.path, seg.cursor, take)
            self._unstage(seg.path, seg.cursor, take)
            seg.cursor += take
            seg.remaining -= take
            remaining -= take
            self.bytes_drained_total += take
            if seg.remaining == 0:
                self._drain_fifo.popleft()

    def _unstage(self, path: str, offset: int, nbytes: int) -> None:
        staged = self._staged.get(path, [])
        out: List[Tuple[int, int]] = []
        lo, hi = offset, offset + nbytes
        for s_off, s_len in staged:
            s_hi = s_off + s_len
            if s_hi <= lo or s_off >= hi:
                out.append((s_off, s_len))
                continue
            if s_off < lo:
                out.append((s_off, lo - s_off))
            if s_hi > hi:
                out.append((hi, s_hi - hi))
        self._staged[path] = coalesce(out)

    # -- reporting ------------------------------------------------------------------
    def staged_bytes(self, path: Optional[str] = None) -> int:
        """Bytes currently resident in the buffer (optionally per file)."""
        if path is not None:
            return total_bytes(self._staged.get(path, []))
        return sum(total_bytes(v) for v in self._staged.values())
