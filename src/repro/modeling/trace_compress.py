"""Trace compression via arithmetic runs and tandem-repeat folding.

Hao et al. [15] compress I/O traces with a suffix-tree repeat detector
before generating replay benchmarks; the same idea is implemented here in
two passes suited to I/O op streams:

1. **Run collapsing**: maximal runs of operations identical except for an
   arithmetically increasing offset (the signature of sequential I/O)
   become one :class:`Run` node -- IOR-style streams collapse by a factor
   of the transfer count.
2. **Tandem-repeat folding**: the node list is scanned for adjacent
   repeated blocks (``ABAB...`` -> ``Loop([A, B], k)``), applied greedily
   by best savings until no fold helps -- capturing outer iteration
   structure (time-step loops, epoch loops).

Decompression is exact: ``decompress(compress_ops(ops)) == ops``, which is
the correctness property the replay path relies on (claim C7) and which
property-based tests enforce.

Limitation (documented): patterns that vary *path names* per iteration
(file-per-step checkpoints) only compress within each step, not across
steps; parameterising paths across iterations is what
:mod:`repro.modeling.extrapolate` does in the rank dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple, Union

from repro.ops import IOOp


def _meta_key(meta: dict) -> tuple:
    """Hashable stand-in for an op's meta dict (exactness of folding)."""
    if not meta:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in meta.items()))


@dataclass(frozen=True)
class Run:
    """``count`` copies of ``op`` with offsets stepping by ``stride``."""

    op: IOOp
    count: int
    stride: int

    def expand(self) -> List[IOOp]:
        return [
            replace(self.op, offset=self.op.offset + i * self.stride)
            for i in range(self.count)
        ]

    @property
    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class OpNode:
    """A single literal operation."""

    op: IOOp

    def expand(self) -> List[IOOp]:
        return [self.op]

    @property
    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class Loop:
    """``count`` repetitions of a node sequence."""

    body: Tuple = ()
    count: int = 1

    def expand(self) -> List[IOOp]:
        once = [op for node in self.body for op in node.expand()]
        return once * self.count

    @property
    def size(self) -> int:
        return 1 + sum(n.size for n in self.body)


Node = Union[OpNode, Run, Loop]


@dataclass
class CompressedTrace:
    """The compressed form of one rank's op stream."""

    nodes: List[Node] = field(default_factory=list)
    original_ops: int = 0

    @property
    def compressed_size(self) -> int:
        """Node count (the storage proxy the ratio is measured against)."""
        return sum(n.size for n in self.nodes)

    @property
    def ratio(self) -> float:
        """Original ops per compressed node (higher = better)."""
        size = self.compressed_size
        return self.original_ops / size if size else 1.0


def _collapse_runs(
    ops: Sequence[IOOp], interned: Dict[tuple, int]
) -> Tuple[List[Node], List[int]]:
    """Pass 1: fold arithmetic offset runs into Run nodes.

    Also returns each node's id in ``interned``: nodes share an id exactly
    when folding may treat them as equal -- same op signature, rank and
    meta, and for runs the same stride and count.  The start offset is
    part of the key: folding two runs that differ only in their base
    offset would break exact decompression.
    """
    # Duration must match exactly: Run.expand() replays op.duration for
    # every copy, so rounding here would break exact decompression.
    sigs = [(op.kind, op.path, op.nbytes, op.rank, op.duration) for op in ops]
    offsets = [op.offset for op in ops]
    nodes: List[Node] = []
    ids: List[int] = []
    i = 0
    n = len(ops)
    while i < n:
        op = ops[i]
        sig = sigs[i]
        j = i + 1
        if j < n and sigs[j] == sig and ops[j].meta == op.meta:
            stride = offsets[j] - offsets[i]
            j += 1
            while (j < n and sigs[j] == sig and ops[j].meta == op.meta
                   and offsets[j] - offsets[j - 1] == stride):
                j += 1
        count = j - i
        # Runs shorter than 3 do not pay for their (op, stride, count)
        # representation and would make accidentally-arithmetic pairs in
        # random streams look compressible.
        if count >= 3:
            nodes.append(Run(op=op, count=count, stride=stride))
            key = (sig, offsets[i], _meta_key(op.meta), stride, count)
            i = j
        else:
            nodes.append(OpNode(op=op))
            key = (sig, offsets[i], _meta_key(op.meta))
            i += 1
        ids.append(interned.setdefault(key, len(interned)))
    return nodes, ids


def _best_tandem_repeat(
    ids: List[int], max_pattern: int
) -> Tuple[int, int, int, int]:
    """Find (start, pattern_len, repeats, savings) of the best fold."""
    n = len(ids)
    best = (-1, 0, 0, 0)
    for plen in range(1, min(max_pattern, n // 2) + 1):
        i = 0
        while i + 2 * plen <= n:
            # The head compare rejects most starts without slicing.
            if (ids[i] == ids[i + plen]
                    and ids[i : i + plen] == ids[i + plen : i + 2 * plen]):
                reps = 2
                while (
                    i + (reps + 1) * plen <= n
                    and ids[i : i + plen]
                    == ids[i + reps * plen : i + (reps + 1) * plen]
                ):
                    reps += 1
                savings = (reps - 1) * plen - 1
                if savings > best[3]:
                    best = (i, plen, reps, savings)
                i += reps * plen
            else:
                i += 1
    return best


def compress_ops(
    ops: Sequence[IOOp], max_pattern: int = 64, max_passes: int = 32
) -> CompressedTrace:
    """Compress one rank's op stream.

    Folding compares nodes by small-int ids: each distinct node key (an
    op or run's, or a loop's count plus its body's ids) is interned once,
    so a pass compares ints instead of rebuilding and comparing nested
    key tuples.

    Parameters
    ----------
    ops:
        The operation stream (one rank).
    max_pattern:
        Longest repeated block considered by the tandem folder.
    max_passes:
        Safety bound on folding iterations.
    """
    ops = list(ops)
    interned: Dict[tuple, int] = {}
    nodes, ids = _collapse_runs(ops, interned)
    for _ in range(max_passes):
        start, plen, reps, savings = _best_tandem_repeat(ids, max_pattern)
        if savings <= 0:
            break
        end = start + plen * reps
        body_ids = ids[start : start + plen]
        loop = Loop(body=tuple(nodes[start : start + plen]), count=reps)
        loop_id = interned.setdefault(("loop", reps, *body_ids),
                                      len(interned))
        nodes[start:end] = [loop]
        ids[start:end] = [loop_id]
    return CompressedTrace(nodes=nodes, original_ops=len(ops))


def decompress(trace: CompressedTrace) -> List[IOOp]:
    """Expand a compressed trace back to the exact original op stream."""
    return [op for node in trace.nodes for op in node.expand()]
