"""Replay fidelity verification.

Haghdoost et al. [18] study "the Accuracy and Scalability of Intensive
I/O Workload Replay": a replay is only useful if it reproduces the
original's operation mix, volumes and timing.  :func:`verify_fidelity`
compares an original trace with its replay's trace and scores exactly
those dimensions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.ops import IORecord, OpKind


def _op_mix(records: List[IORecord]) -> Counter:
    return Counter(r.kind for r in records)


def _bytes_by_kind(records: List[IORecord]) -> Dict[OpKind, int]:
    out: Dict[OpKind, int] = {}
    for r in records:
        if r.kind.is_data:
            out[r.kind] = out.get(r.kind, 0) + r.nbytes
    return out


def _duration(records: List[IORecord]) -> float:
    if not records:
        return 0.0
    return max(r.end for r in records) - min(r.start for r in records)


@dataclass
class FidelityReport:
    """Comparison of a replay against its original trace."""

    ops_original: int
    ops_replayed: int
    op_mix_match: bool
    bytes_original: Dict[OpKind, int] = field(default_factory=dict)
    bytes_replayed: Dict[OpKind, int] = field(default_factory=dict)
    duration_original: float = 0.0
    duration_replayed: float = 0.0
    offsets_match: bool = True

    @property
    def op_count_match(self) -> bool:
        return self.ops_original == self.ops_replayed

    @property
    def bytes_match(self) -> bool:
        return self.bytes_original == self.bytes_replayed

    @property
    def duration_error(self) -> float:
        """|replay - original| / original (0 = perfect timing fidelity)."""
        if self.duration_original <= 0:
            return 0.0
        return abs(self.duration_replayed - self.duration_original) / self.duration_original

    def summary(self) -> str:
        return (
            f"ops {self.ops_original}->{self.ops_replayed} "
            f"({'ok' if self.op_count_match else 'MISMATCH'}), "
            f"bytes {'ok' if self.bytes_match else 'MISMATCH'}, "
            f"offsets {'ok' if self.offsets_match else 'MISMATCH'}, "
            f"duration {self.duration_original:.3f}s->{self.duration_replayed:.3f}s "
            f"(err {self.duration_error:.1%})"
        )


def verify_fidelity(
    original: List[IORecord], replayed: List[IORecord]
) -> FidelityReport:
    """Compare two traces of the same layer.

    Offsets are compared as per-(rank, path) multisets of (offset, nbytes)
    for data ops -- order-insensitive, since concurrency can legally
    reorder independent operations.
    """

    def offset_sets(records: List[IORecord]):
        out: Dict[tuple, Counter] = {}
        for r in records:
            if r.kind.is_data:
                key = (r.rank, r.path, r.kind)
                out.setdefault(key, Counter())[(r.offset, r.nbytes)] += 1
        return out

    return FidelityReport(
        ops_original=len(original),
        ops_replayed=len(replayed),
        op_mix_match=_op_mix(original) == _op_mix(replayed),
        bytes_original=_bytes_by_kind(original),
        bytes_replayed=_bytes_by_kind(replayed),
        duration_original=_duration(original),
        duration_replayed=_duration(replayed),
        offsets_match=offset_sets(original) == offset_sets(replayed),
    )
