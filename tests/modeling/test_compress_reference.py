"""``compress_ops`` against the tuple-key fold it replaced.

``_reference_compress`` is the previous implementation, kept as the
oracle: every folding pass rebuilt each node's nested tuple key and
compared key slices, and ``_ref_collapse_runs`` scanned op by op.  The
interned-id fold must produce equal node structures (same runs, loops,
bodies and counts), and ``decompress`` must still round-trip.  The run
collapse (:func:`collapse`, which reads :class:`OpRun` blocks) must give
the nodes the op-by-op scan gives the expanded ops -- across run
boundaries, inside permuted blocks and for runs of one.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.modeling.trace_compress import (
    Loop,
    OpNode,
    Run,
    collapse,
    compress_ops,
    decompress,
    fold,
)
from repro.modeling.trace_distance import structure_signature
from repro.ops import IOOp, OpKind, OpRun, expand_runs
from repro.wgen import parse_workload
from repro.wgen.dsl import compile_runs


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


# -- the run collapse ------------------------------------------------------------


@st.composite
def _run_block(draw, previous):
    """One run: a run of one, a sequential block, a permuted block, or a
    block continuing the previous run's last stride."""
    shape = draw(st.sampled_from(["one", "block", "permuted", "continue"]))
    if shape == "continue" and previous is not None:
        offsets = previous.offsets
        stride = offsets[-1] - offsets[-2] if len(offsets) > 1 else 64
        start = offsets[-1] + stride
        n = draw(st.integers(1, 4))
        if stride and draw(st.booleans()):
            new = range(start, start + n * stride, stride)
        else:
            new = [start + i * stride for i in range(n)]
        return previous._replace(offsets=new)
    op = draw(_op)
    if shape == "one":
        return OpRun(op.kind, op.path, op.rank, op.nbytes, op.duration,
                     op.meta, (op.offset,))
    step = draw(st.sampled_from([64, 128, -64]))
    n = draw(st.integers(2, 6))
    block = range(op.offset, op.offset + n * step, step)
    if shape == "permuted":
        # permutations of a block hold accidental arithmetic triples
        block = draw(st.permutations(list(block)))
    return OpRun(op.kind, op.path, op.rank, op.nbytes, op.duration, op.meta,
                 block)


@st.composite
def _run_stream(draw):
    runs = []
    for _ in range(draw(st.integers(0, 10))):
        runs.append(draw(_run_block(runs[-1] if runs else None)))
    # repeat a stretch, so folds see equal runs
    if runs and draw(st.booleans()):
        runs += runs[-draw(st.integers(1, len(runs))):] * draw(
            st.integers(1, 3))
    return runs


def _nodes_of(runs):
    """The run collapse and fold, as nodes of the expanded ops."""
    ops = expand_runs(runs)
    interned = {}
    spans, ids = collapse(runs, interned)
    nodes = [Run(op=ops[pos], count=count, stride=stride) if count >= 3
             else OpNode(op=ops[pos]) for pos, count, stride in spans]
    collapsed = list(nodes)
    return ops, collapsed, fold(nodes, ids, interned)


@settings(max_examples=400, deadline=None)
@given(runs=_run_stream())
def test_run_collapse_matches_the_op_by_op_scan(runs):
    ops, collapsed, folded = _nodes_of(runs)
    assert collapsed == _ref_collapse_runs(ops)
    assert folded == _reference_compress(ops)
    assert folded == compress_ops(ops).nodes
    assert structure_signature(runs) == structure_signature(ops)


def test_adjacent_runs_continue_one_stride():
    """loop 8 of one 256 KiB shared write at 2 ranks: eight runs of one
    per rank, one Run of 8 with a 512 KiB stride."""
    text = """workload seg { ranks 2;
      loop 8 { write shared "/seg" size 256KB transfer 256KB; } }"""
    _name, per_rank = compile_runs(text)
    workload = parse_workload(text)
    for rank, runs in enumerate(per_rank):
        assert len(runs) == 8
        ops, collapsed, folded = _nodes_of(runs)
        assert ops == list(workload.ops(rank))
        assert folded == [Run(op=ops[0], count=8, stride=512 * 1024)]
        assert folded == _reference_compress(ops)


def test_permuted_block_folds_its_arithmetic_triple():
    """[3 0 1 2 5 4] x 64: the op-by-op scan folds 0, 64, 128 into a Run."""
    runs = [OpRun(OpKind.READ, "/d", 0, 64, 0.0, {},
                  [192, 0, 64, 128, 320, 256])]
    ops, collapsed, folded = _nodes_of(runs)
    assert collapsed == _ref_collapse_runs(ops)
    assert [type(node).__name__ for node in collapsed] == \
        ["OpNode", "Run", "OpNode", "OpNode"]
    assert collapsed[1] == Run(op=ops[1], count=3, stride=64)
