"""DXT-style extended tracing.

Darshan eXtended Tracing [23] augments Darshan's counters with the exact
(offset, length, start, end) segment of every read and write.  The
:class:`DXTTracer` collects those segments per (rank, file); they feed
fine-grained analyses -- here the per-rank randomness of an access
stream -- that plain counters cannot support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.ops import IORecord, OpKind


@dataclass(frozen=True)
class DXTSegment:
    """One traced data access."""

    rank: int
    path: str
    kind: str  # "read" | "write"
    offset: int
    nbytes: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def bandwidth(self) -> float:
        return self.nbytes / self.duration if self.duration > 0 else 0.0


class DXTTracer:
    """Collects per-segment data-access traces at one stack layer."""

    def __init__(self, layer: str = "posix"):
        self.layer = layer
        self._segments: Dict[Tuple[str, int], List[DXTSegment]] = {}

    def __call__(self, rec: IORecord) -> None:
        if rec.layer != self.layer or not rec.kind.is_data:
            return
        seg = DXTSegment(
            rank=rec.rank,
            path=rec.path,
            kind=rec.kind.value,
            offset=rec.offset,
            nbytes=rec.nbytes,
            start=rec.start,
            end=rec.end,
        )
        self._segments.setdefault((rec.path, rec.rank), []).append(seg)

    # -- queries -----------------------------------------------------------------
    def segments(self, path: str = None, rank: int = None) -> List[DXTSegment]:
        """Segments filtered by path and/or rank, in start-time order."""
        out: List[DXTSegment] = []
        for (p, r), segs in self._segments.items():
            if path is not None and p != path:
                continue
            if rank is not None and r != rank:
                continue
            out.extend(segs)
        out.sort(key=lambda s: (s.start, s.rank, s.offset))
        return out

    def randomness(self, path: str, kind: str = "read") -> float:
        """Fraction of accesses that did not continue the previous one.

        0.0 = perfectly sequential stream, ~1.0 = fully random.  Computed
        per rank and averaged, since each rank's stream is independent.
        """
        fractions: List[float] = []
        ranks = {r for (p, r) in self._segments if p == path}
        for rank in ranks:
            segs = [s for s in self.segments(path=path, rank=rank) if s.kind == kind]
            if len(segs) < 2:
                continue
            jumps = sum(
                1
                for a, b in zip(segs, segs[1:])
                if b.offset != a.offset + a.nbytes
            )
            fractions.append(jumps / (len(segs) - 1))
        return float(np.mean(fractions)) if fractions else 0.0
