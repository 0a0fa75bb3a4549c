"""``compress_ops`` against the tuple-key fold it replaced.

``_reference_compress`` is the previous implementation, kept as the
oracle: every folding pass rebuilt each node's nested tuple key and
compared key slices.  The interned-id fold must produce equal node
structures (same runs, loops, bodies and counts), and ``decompress``
must still round-trip.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.modeling.trace_compress import (
    Loop,
    OpNode,
    Run,
    compress_ops,
    decompress,
)
from repro.ops import IOOp, OpKind


def _ref_meta_key(meta):
    return tuple(sorted((str(k), str(v)) for k, v in meta.items()))


def _ref_key(node):
    if isinstance(node, Loop):
        return ("loop", node.count) + tuple(_ref_key(n) for n in node.body)
    op = node.op
    sig = (op.kind.value, op.path, op.offset, op.nbytes, op.duration)
    if isinstance(node, Run):
        return (("run",) + sig
                + (op.rank, _ref_meta_key(op.meta), node.stride, node.count))
    return ("op",) + sig + (op.rank, _ref_meta_key(op.meta))


def _ref_collapse_runs(ops):
    nodes = []
    i = 0
    n = len(ops)
    while i < n:
        op = ops[i]
        j = i + 1
        stride = None
        sig = (op.kind, op.path, op.nbytes, op.rank, op.duration)
        while j < n:
            nxt = ops[j]
            if (nxt.kind, nxt.path, nxt.nbytes, nxt.rank, nxt.duration) != sig:
                break
            if nxt.meta != op.meta:
                break
            step = nxt.offset - ops[j - 1].offset
            if stride is None:
                stride = step
            elif step != stride:
                break
            j += 1
        count = j - i
        if count >= 3 and stride is not None:
            nodes.append(Run(op=op, count=count, stride=stride))
            i = j
        else:
            nodes.append(OpNode(op=op))
            i += 1
    return nodes


def _ref_best_tandem_repeat(keys, max_pattern):
    n = len(keys)
    best = (-1, 0, 0, 0)
    for plen in range(1, min(max_pattern, n // 2) + 1):
        i = 0
        while i + 2 * plen <= n:
            if keys[i : i + plen] == keys[i + plen : i + 2 * plen]:
                reps = 2
                while (
                    i + (reps + 1) * plen <= n
                    and keys[i : i + plen]
                    == keys[i + reps * plen : i + (reps + 1) * plen]
                ):
                    reps += 1
                savings = (reps - 1) * plen - 1
                if savings > best[3]:
                    best = (i, plen, reps, savings)
                i += reps * plen
            else:
                i += 1
    return best


def _reference_compress(ops, max_pattern=64, max_passes=32):
    nodes = _ref_collapse_runs(list(ops))
    for _ in range(max_passes):
        keys = [_ref_key(n) for n in nodes]
        start, plen, reps, savings = _ref_best_tandem_repeat(keys, max_pattern)
        if savings <= 0:
            break
        loop = Loop(body=tuple(nodes[start : start + plen]), count=reps)
        nodes = nodes[:start] + [loop] + nodes[start + plen * reps :]
    return nodes


_KINDS = [OpKind.READ, OpKind.WRITE, OpKind.BARRIER, OpKind.COMPUTE,
          OpKind.OPEN, OpKind.CLOSE]
_op = st.builds(
    IOOp,
    kind=st.sampled_from(_KINDS),
    path=st.sampled_from(["/a", "/b"]),
    offset=st.sampled_from([0, 64, 128, 4096]),
    nbytes=st.sampled_from([0, 64]),
    rank=st.integers(0, 1),
    duration=st.sampled_from([0.0, 0.5]),
    meta=st.sampled_from([{}, {"epoch": 0}, {"epoch": 1}]),
)


@st.composite
def _run(draw):
    """A sequential run: same op, offsets stepping by a fixed stride."""
    op = draw(_op)
    stride = draw(st.sampled_from([0, 64, 128]))
    count = draw(st.integers(1, 5))
    return [replace(op, offset=op.offset + i * stride) for i in range(count)]


@st.composite
def _structured_stream(draw):
    """Repeated blocks (nested once), runs and noise: what folds."""
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        body = [op for part in draw(st.lists(st.one_of(_run(),
                                                       st.lists(_op, max_size=2)),
                                             min_size=1, max_size=3))
                for op in part]
        # body^k sep, repeated: with a short max_pattern the inner
        # repeat folds first and the outer fold nests it.
        inner = body * draw(st.integers(1, 4)) + draw(st.lists(_op, max_size=2))
        blocks.extend(inner * draw(st.integers(1, 3)))
    return blocks


@settings(max_examples=300, deadline=None)
@given(ops=_structured_stream())
def test_interned_fold_matches_tuple_key_fold(ops):
    ct = compress_ops(ops)
    assert ct.nodes == _reference_compress(ops)
    assert decompress(ct) == ops


@settings(max_examples=100, deadline=None)
@given(ops=_structured_stream(), max_pattern=st.integers(1, 6),
       max_passes=st.integers(0, 4))
def test_bounds_are_honoured_like_the_reference(ops, max_pattern, max_passes):
    ct = compress_ops(ops, max_pattern=max_pattern, max_passes=max_passes)
    assert ct.nodes == _reference_compress(ops, max_pattern, max_passes)
    assert decompress(ct) == ops


def test_nested_fold_matches_the_inner_loops_by_id():
    """(a b a b c) x 3 under max_pattern=2: the inner loops must intern
    to one id for the outer fold to see them as a repeat.  The greedy
    fold takes the first best fold, so the third copy stays outside."""
    a, b = IOOp(OpKind.STAT, "/a"), IOOp(OpKind.STAT, "/b")
    c = IOOp(OpKind.BARRIER)
    ops = [a, b, a, b, c] * 3
    ct = compress_ops(ops, max_pattern=2)
    inner = Loop(body=(OpNode(a), OpNode(b)), count=2)
    assert ct.nodes == [Loop(body=(inner, OpNode(c)), count=2),
                        inner, OpNode(c)]
    assert ct.nodes == _reference_compress(ops, max_pattern=2)
    assert decompress(ct) == ops


def test_loops_with_different_counts_do_not_fold_together():
    """A loop's id carries its count: (a b)x2 c and (a b)x3 c are not
    one repeated block."""
    a, b = IOOp(OpKind.STAT, "/a"), IOOp(OpKind.STAT, "/b")
    c = IOOp(OpKind.BARRIER)
    ops = [a, b, a, b, c, a, b, a, b, a, b, c]
    ct = compress_ops(ops, max_pattern=2)
    assert ct.nodes == _reference_compress(ops, max_pattern=2)
    assert decompress(ct) == ops
