"""Recorder-like multi-level tracer.

Recorder [25], [26] captures "I/O calls at multiple layers of the I/O
stack" -- HDF5, MPI-IO and POSIX -- so analysts can see how one high-level
operation decomposes down the stack.  The :class:`RecorderTracer` simply
collects every record from every layer it is attached to (attach it via
:meth:`repro.iostack.stack.RankIO.add_observer`, which wires all layers at
once); :class:`TraceArchive` provides the query and persistence surface.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional

from repro.ops import IORecord, OpKind


class TraceArchive:
    """An ordered collection of trace records with query helpers."""

    def __init__(self, records: Optional[Iterable[IORecord]] = None):
        self.records: List[IORecord] = list(records or [])

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def append(self, rec: IORecord) -> None:
        self.records.append(rec)

    # -- queries ----------------------------------------------------------------
    def layers(self) -> List[str]:
        return sorted({r.layer for r in self.records})

    def ranks(self) -> List[int]:
        return sorted({r.rank for r in self.records})

    def at_layer(self, layer: str) -> "TraceArchive":
        return TraceArchive(r for r in self.records if r.layer == layer)

    def data_ops(self) -> "TraceArchive":
        return TraceArchive(r for r in self.records if r.kind.is_data)

    def op_histogram(self) -> Dict[str, int]:
        return dict(Counter(f"{r.layer}:{r.kind.value}" for r in self.records))

    def duration(self) -> float:
        if not self.records:
            return 0.0
        return max(r.end for r in self.records) - min(r.start for r in self.records)

    def bytes_moved(self) -> int:
        return sum(r.nbytes for r in self.records if r.kind.is_data)

    def summary(self) -> str:
        lines = [
            f"trace: {len(self.records)} records, {self.duration():.3f}s, "
            f"layers {self.layers()}, ranks {len(self.ranks())}"
        ]
        for key, count in sorted(self.op_histogram().items()):
            lines.append(f"  {key}: {count}")
        return "\n".join(lines)


class RecorderTracer:
    """Observer that archives every record it sees (all layers).

    Also assigns a monotonically increasing capture index so that
    same-timestamp records keep their observation order.
    """

    def __init__(self):
        self.archive = TraceArchive()
        self._seq = 0

    def __call__(self, rec: IORecord) -> None:
        rec.extra.setdefault("seq", self._seq)
        self._seq += 1
        self.archive.append(rec)

    def __len__(self) -> int:
        return len(self.archive)

    @property
    def records(self) -> List[IORecord]:
        return self.archive.records
