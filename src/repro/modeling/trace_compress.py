"""Trace compression via arithmetic runs and tandem-repeat folding.

Hao et al. [15] compress I/O traces with a suffix-tree repeat detector
before generating replay benchmarks; the same idea is implemented here in
two passes suited to I/O op streams:

1. **Run collapsing** (:func:`collapse`): maximal runs of operations
   identical except for an arithmetically increasing offset (the
   signature of sequential I/O) become one :class:`Run` node -- IOR-style
   streams collapse by a factor of the transfer count.  The pass reads
   :class:`~repro.ops.OpRun` blocks, so a sequential block costs one step
   however many transfers it holds.
2. **Tandem-repeat folding** (:func:`fold`): the node list is scanned for
   adjacent repeated blocks (``ABAB...`` -> ``Loop([A, B], k)``), applied
   greedily by best savings until no fold helps -- capturing outer
   iteration structure (time-step loops, epoch loops).

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

from repro.ops import IOOp, OpRun, as_runs


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


#: One collapsed node of :func:`collapse`: ``(position, count, stride)``,
#: where ``position`` indexes the expanded op stream.  ``count >= 3`` is a
#: :class:`Run`; ``count == 1`` is a single op (stride unused).
Span = Tuple[int, int, int]


def collapse(
    runs: Sequence[OpRun], interned: Dict[tuple, int]
) -> Tuple[List[Span], List[int]]:
    """Pass 1: fold arithmetic offset runs, reading runs, not ops.

    The result is exactly what a greedy scan over the expanded op stream
    gives: from each position, take the longest stretch of ops identical
    except for an offset that steps by one stride (set by the first two
    ops); three or more become a :class:`Run`, anything shorter leaves
    one single op and the scan moves on by one.  A stretch may cross run
    boundaries (adjacent runs that continue one stride) and may start
    inside a permuted block; only the ops of a sequential block whose step
    is the stride are skipped without being visited.

    Also returns each span's id in ``interned``: spans share an id exactly
    when folding may treat them as equal -- same op signature, rank and
    meta, and for runs the same stride and count.  The start offset is
    part of the key: folding two runs that differ only in their base
    offset would break exact decompression.
    """
    spans: List[Span] = []
    ids: List[int] = []
    if not runs:
        return spans, ids
    # Duration must match exactly: Run.expand() replays op.duration for
    # every copy, so rounding here would break exact decompression.
    kinds, paths, ranks, nbytes, durations, metas, offs = zip(*runs)
    sigs = list(zip(kinds, paths, ranks, nbytes, durations))
    n_runs = len(runs)
    pos = 0
    r = k = 0
    while r < n_runs:
        sig = sigs[r]
        meta = metas[r]
        offsets = offs[r]
        first = offsets[k]
        # (rr, kk) is the last op taken into the stretch, ``prev`` its
        # offset and ``cur`` its run's offsets.
        rr, kk, prev, cur = r, k, first, offsets
        count = 1
        stride = 0
        while True:
            if kk + 1 < len(cur):
                nr, nk = rr, kk + 1
            elif (rr + 1 < n_runs and sigs[rr + 1] == sig
                    and metas[rr + 1] == meta):
                nr, nk = rr + 1, 0
            else:
                break
            nxt = offs[nr][nk]
            if count == 1:
                stride = nxt - prev
            elif nxt - prev != stride:
                break
            rr, kk, cur, prev = nr, nk, offs[nr], nxt
            count += 1
            # The rest of a sequential block with this step continues the
            # stride: take it whole.
            if type(cur) is range and cur.step == stride:
                last = len(cur) - 1
                if kk < last:
                    count += last - kk
                    kk = last
                    prev = cur[last]
        # Runs shorter than 3 do not pay for their (op, stride, count)
        # representation and would make accidentally-arithmetic pairs in
        # random streams look compressible.
        if count >= 3:
            spans.append((pos, count, stride))
            key = (sig, first, _meta_key(meta), stride, count)
            pos += count
            r, k = (rr, kk + 1) if kk + 1 < len(cur) else (rr + 1, 0)
        else:
            spans.append((pos, 1, 0))
            key = (sig, first, _meta_key(meta))
            pos += 1
            r, k = (r, k + 1) if k + 1 < len(offsets) else (r + 1, 0)
        ids.append(interned.setdefault(key, len(interned)))
    return spans, ids


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


def fold(nodes: List, ids: List[int], interned: Dict[tuple, int],
         max_pattern: int = 64, max_passes: int = 32) -> List:
    """Pass 2: fold tandem repeats of ``nodes`` into :class:`Loop` nodes.

    ``ids`` are the nodes' interned ids (from :func:`collapse`); both
    lists are rewritten in place and ``nodes`` is returned.  A loop's id
    is its count plus its body's ids, so a pass compares ints instead of
    rebuilding and comparing nested key tuples.  The nodes themselves are
    only moved into loop bodies, never read: :func:`compress_ops` folds
    :class:`Run`/:class:`OpNode` nodes, a structure summary can fold the
    :data:`Span` tuples directly.
    """
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
    return nodes


def compress_ops(
    ops: Sequence[IOOp], max_pattern: int = 64, max_passes: int = 32
) -> CompressedTrace:
    """Compress one rank's op stream.

    Each op enters the :func:`collapse` scan as a run of one; the
    resulting nodes hold the original op objects and are folded by
    :func:`fold`.

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
    spans, ids = collapse(as_runs(ops), interned)
    nodes: List[Node] = [
        Run(op=ops[pos], count=count, stride=stride) if count >= 3
        else OpNode(op=ops[pos])
        for pos, count, stride in spans
    ]
    fold(nodes, ids, interned, max_pattern, max_passes)
    return CompressedTrace(nodes=nodes, original_ops=len(ops))


def decompress(trace: CompressedTrace) -> List[IOOp]:
    """Expand a compressed trace back to the exact original op stream."""
    return [op for node in trace.nodes for op in node.expand()]
