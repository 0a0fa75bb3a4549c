"""``access_features`` against the two-pass implementation it replaced.

``_reference_access_features`` is the previous implementation, kept as
the oracle: over random mixed :class:`IOOp`/:class:`IORecord` streams
(markers, file-per-process paths, meta annotations, repeated cursors)
the one-pass version must return an ``==`` dict, key order included.
Fed :class:`OpRun` blocks (runs of one, sequential blocks, permuted
blocks, blocks continuing the previous one), it must return the
reference's dict of the expanded ops.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.features import FEATURE_NAMES, access_features
from repro.ops import (METADATA_KINDS, SIZE_BUCKETS, IOOp, IORecord, OpKind,
                       OpRun, expand_runs)


def _reference_size_bucket(nbytes):
    for i, ub in enumerate(SIZE_BUCKETS):
        if nbytes <= ub:
            return i
    return len(SIZE_BUCKETS)


def _reference_access_features(stream):
    ops = [item.to_op() if isinstance(item, IORecord) else item
           for item in stream]
    features = {name: 0.0 for name in FEATURE_NAMES}
    if not ops:
        return features
    n = len(ops)
    kind_counts = defaultdict(int)
    rank_counts = defaultdict(int)
    size_hist = [0] * (len(SIZE_BUCKETS) + 1)
    bytes_read = bytes_written = n_data = n_meta = n_sequential = 0
    transfer_total = 0
    files = set()
    cursors = {}
    for op in ops:
        kind_counts[op.kind] += 1
        rank_counts[op.rank] += 1
        if op.path:
            files.add(op.path)
        if op.kind in METADATA_KINDS:
            n_meta += 1
        if op.kind.is_data:
            n_data += 1
            transfer_total += op.nbytes
            size_hist[_reference_size_bucket(op.nbytes)] += 1
            if op.kind is OpKind.READ:
                bytes_read += op.nbytes
            else:
                bytes_written += op.nbytes
            key = (op.path, op.kind, op.rank)
            if cursors.get(key) == op.offset:
                n_sequential += 1
            cursors[key] = op.offset + op.nbytes
    for kind in OpKind:
        features[f"mix_{kind.value}"] = kind_counts.get(kind, 0) / n
    n_reads = kind_counts.get(OpKind.READ, 0)
    features["read_fraction"] = n_reads / n_data if n_data else 0.0
    features["meta_fraction"] = n_meta / n
    features["bytes_read"] = float(bytes_read)
    features["bytes_written"] = float(bytes_written)
    total_bytes = bytes_read + bytes_written
    features["read_write_byte_ratio"] = (
        bytes_read / total_bytes if total_bytes else 0.0
    )
    for i, count in enumerate(size_hist):
        features[f"size_hist_{i}"] = count / n_data if n_data else 0.0
    features["sequential_fraction"] = n_sequential / n_data if n_data else 0.0
    features["mean_transfer"] = transfer_total / n_data if n_data else 0.0
    features["n_files"] = float(len(files))
    by_file_ranks = defaultdict(set)
    for op in ops:
        if op.path and not op.kind.is_marker:
            by_file_ranks[op.path].add(op.rank)
    if by_file_ranks:
        private = sum(1 for ranks in by_file_ranks.values() if len(ranks) == 1)
        features["fpp_fraction"] = private / len(by_file_ranks)
    counts = list(rank_counts.values())
    mean = sum(counts) / len(counts)
    if mean > 0 and len(counts) > 1:
        var = sum((c - mean) ** 2 for c in counts) / len(counts)
        features["rank_balance_cv"] = (var ** 0.5) / mean
    features["ops_per_rank"] = mean
    return features


KiB = 1024
#: Bucket edges and their neighbours, so every histogram slot is hit.
_SIZES = sorted({0, 1, 99, 100, 101, KiB, 4 * KiB, 256 * KiB}
                | set(SIZE_BUCKETS) | {b + 1 for b in SIZE_BUCKETS})
#: Shared paths, per-rank ``.<rank>`` paths and the empty marker path.
_PATHS = ["", "/shared", "/data", "/ckpt.00000000", "/ckpt.00000001",
          "/md/f0.00000002"]
#: Few distinct offsets, so cursors repeat and ops land back to back.
_OFFSETS = [0, 1, 100, KiB, 2 * KiB, 4 * KiB, 256 * KiB, 512 * KiB]


@st.composite
def _item(draw):
    kind = draw(st.sampled_from(list(OpKind)))
    fields = dict(
        kind=kind,
        path=draw(st.sampled_from(_PATHS)),
        offset=draw(st.sampled_from(_OFFSETS)),
        nbytes=draw(st.sampled_from(_SIZES)),
        rank=draw(st.integers(0, 3)),
    )
    if draw(st.booleans()):
        return IORecord(layer="posix", start=0.0, end=1.0,
                        extra={"note": 1}, **fields)
    meta = draw(st.sampled_from([{}, {"stripe_count": 2}, {"epoch": 1}]))
    return IOOp(duration=draw(st.sampled_from([0.0, 0.5])), meta=meta,
                **fields)


@st.composite
def _stream(draw):
    items = draw(st.lists(_item(), max_size=40))
    # Sequential tails: repeat some data op at the offset where it ended.
    for _ in range(draw(st.integers(0, 3))):
        data = [it for it in items if it.kind in (OpKind.READ, OpKind.WRITE)]
        if not data:
            break
        op = draw(st.sampled_from(data))
        items.append(IOOp(op.kind, op.path, op.offset + op.nbytes,
                          op.nbytes, op.rank))
    return draw(st.permutations(items)) if draw(st.booleans()) else items


@settings(max_examples=300, deadline=None)
@given(stream=_stream())
def test_one_pass_matches_two_pass_reference(stream):
    got = access_features(stream)
    want = _reference_access_features(stream)
    assert got == want
    assert list(got) == list(want)


@settings(max_examples=50, deadline=None)
@given(stream=_stream())
def test_generator_input_matches_list_input(stream):
    assert access_features(iter(stream)) == access_features(stream)


@st.composite
def _run(draw, previous):
    """A run of one, a sequential or permuted block, or a block that
    continues ``previous`` where it ended (sequential across runs)."""
    shape = draw(st.sampled_from(["one", "block", "permuted", "continue"]))
    if shape == "continue" and previous is not None:
        start = previous.offsets[-1] + previous.nbytes
        step = previous.nbytes or 1
        n = draw(st.integers(1, 4))
        return previous._replace(
            offsets=range(start, start + n * step, step))
    item = draw(_item())
    op = item.to_op() if isinstance(item, IORecord) else item
    if shape == "one":
        offsets = (op.offset,)
    else:
        step = draw(st.sampled_from([op.nbytes or 1, 2 * KiB, 100]))
        offsets = range(op.offset, op.offset + draw(st.integers(2, 5)) * step,
                        step)
        if shape == "permuted":
            offsets = draw(st.permutations(list(offsets)))
    return OpRun(op.kind, op.path, op.rank, op.nbytes, op.duration, op.meta,
                 offsets)


@st.composite
def _runs(draw):
    runs = []
    for _ in range(draw(st.integers(0, 12))):
        runs.append(draw(_run(runs[-1] if runs else None)))
    return runs


@settings(max_examples=300, deadline=None)
@given(runs=_runs(), stream=_stream())
def test_runs_match_the_reference_on_their_ops(runs, stream):
    ops = expand_runs(runs)
    got = access_features(runs)
    assert got == _reference_access_features(ops)
    assert list(got) == list(FEATURE_NAMES)
    # mixed streams: runs, ops and records interleaved
    mixed = runs + stream
    assert access_features(mixed) == \
        _reference_access_features(ops + list(stream))
