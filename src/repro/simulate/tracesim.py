"""Trace-driven simulation (paper Sec. IV-C-2).

A recorded trace (list of :class:`~repro.ops.IORecord`) is converted back
into a per-rank timed op stream -- I/O operations interleaved with
``COMPUTE`` markers reproducing the original inter-operation gaps -- and
replayed against the simulated storage system.  "Traces preserve
correlation and interference effects" (the paper's stated advantage of
trace-driven simulation); the think-time reconstruction is what preserves
them here.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.ops import IOOp, IORecord, OpKind
from repro.workloads.base import OpStreamWorkload


def trace_to_workload(
    records: Iterable[IORecord],
    name: str = "trace-replay",
    preserve_think_time: bool = True,
    layer: str = "posix",
    n_ranks: Optional[int] = None,
) -> OpStreamWorkload:
    """Convert a trace into a replayable workload.

    Parameters
    ----------
    records:
        Trace records (any order; sorted per rank by start time).
    preserve_think_time:
        Insert ``COMPUTE`` ops for the gaps between consecutive operations
        of each rank, so the replay reproduces the original rhythm rather
        than issuing everything back-to-back.
    layer:
        Replay only records captured at this stack layer (replaying every
        layer would double-count: a single HDF5 write appears again as
        MPI-IO and POSIX records).
    n_ranks:
        Rank count of the generated workload; defaults to
        ``max(rank) + 1`` over the trace.
    """
    selected = [r for r in records if r.layer == layer]
    if not selected:
        raise ValueError(f"trace has no records at layer {layer!r}")
    max_rank = max(r.rank for r in selected)
    size = n_ranks if n_ranks is not None else max_rank + 1
    if size <= max_rank:
        raise ValueError(f"n_ranks {size} too small for trace ranks up to {max_rank}")

    per_rank: List[List[IORecord]] = [[] for _ in range(size)]
    for r in selected:
        per_rank[r.rank].append(r)
    for lst in per_rank:
        lst.sort(key=lambda r: (r.start, r.end))

    ops: List[List[IOOp]] = []
    for rank, lst in enumerate(per_rank):
        stream: List[IOOp] = []
        clock = min((r.start for r in selected), default=0.0)
        for rec in lst:
            if preserve_think_time and rec.start > clock:
                stream.append(
                    IOOp(OpKind.COMPUTE, duration=rec.start - clock, rank=rank)
                )
            op = rec.to_op()
            # OPENs in a posix trace become implicit via data ops; keep
            # explicit open/create/close so metadata load is faithful.
            # Layout info recorded at open time travels along so replay
            # recreates files with the original striping.
            if rec.kind in (OpKind.OPEN, OpKind.CREATE):
                for key in ("stripe_count", "stripe_size"):
                    if key in rec.extra:
                        op.meta[key] = rec.extra[key]
            stream.append(op)
            clock = max(clock, rec.end) if preserve_think_time else clock
        ops.append(stream)
    return OpStreamWorkload(name, ops)

