"""Access-pattern feature extraction from op streams and traces.

The paper's feedback loop (Fig. 4) feeds monitoring output back into
evaluation-tool input; this module is the monitoring-side half of that
edge.  :func:`access_features` reduces any operation stream -- intended
ops (:class:`~repro.ops.IOOp`), blocks of them (:class:`~repro.ops.OpRun`,
what the DSL compiles to and synthesis scores), observed trace records
(:class:`~repro.ops.IORecord`, timing dropped) or a whole
:class:`~repro.monitoring.tracer.TraceArchive` -- to a fixed, order-
insensitive feature vector: op-kind mix, read/write volumes, a
Darshan-style transfer-size histogram, sequentiality, file-population
shape and rank balance.  :func:`repro.modeling.trace_distance` compares
two such vectors (plus loop structure) and
:mod:`repro.wgen.synth` searches the workload grammar by that distance.

Every feature is a float and the dict always contains exactly
:data:`FEATURE_NAMES`, so vectors from different traces line up
positionally for modeling code.  Ops and records are read as runs of one
(:func:`~repro.ops.as_runs`), and a run stream's features equal its
expanded op stream's exactly: counts and integer sums do not depend on
how the ops are grouped.
"""

from __future__ import annotations

from typing import Dict, Iterable, Union

from repro.ops import (
    DATA_KINDS,
    MARKER_KINDS,
    METADATA_KINDS,
    SIZE_BUCKETS,
    IOOp,
    IORecord,
    OpKind,
    OpRun,
    as_runs,
    size_bucket,
)

#: Fixed key set of :func:`access_features`, in output order.
FEATURE_NAMES = (
    [f"mix_{kind.value}" for kind in OpKind]
    + ["read_fraction", "meta_fraction", "bytes_read", "bytes_written",
       "read_write_byte_ratio"]
    + [f"size_hist_{i}" for i in range(len(SIZE_BUCKETS) + 1)]
    + ["sequential_fraction", "mean_transfer", "n_files", "fpp_fraction",
       "rank_balance_cv", "ops_per_rank"]
)


def access_features(
    stream: Iterable[Union[IOOp, IORecord, OpRun]]
) -> Dict[str, float]:
    """Reduce an op/record/run stream to a fixed access-pattern feature vector.

    Accepts any iterable of :class:`IOOp`, :class:`IORecord` and/or
    :class:`OpRun` (mixed is fine; records are read as ops, ignoring
    timing; a run counts as its expanded ops).  An empty stream yields the
    all-zero vector.  Fractions are in [0, 1]; byte totals are raw;
    ``rank_balance_cv`` is the coefficient of variation of per-rank op
    counts (0 = perfectly balanced).  One pass over the stream, one step
    per run: every feature is a count or a sum, so a run adds its op
    count times what one of its ops would add.
    """
    features = dict.fromkeys(FEATURE_NAMES, 0.0)
    kind_counts = dict.fromkeys(OpKind, 0)
    rank_counts: Dict[int, int] = {}
    size_hist = [0] * (len(SIZE_BUCKETS) + 1)
    bytes_read = 0
    bytes_written = 0
    n_sequential = 0
    transfer_total = 0
    files = set()
    # Ranks touching each path, over non-marker ops (the fpp census).
    file_ranks: Dict[str, set] = {}
    # Per-(path, kind, rank) cursor: a data op is "sequential" when it
    # starts exactly where that stream's previous op on the file ended.
    cursors: Dict[tuple, int] = {}

    for run in as_runs(stream):
        kind, path, rank, nbytes, _duration, _meta, offsets = run
        n = len(offsets)
        kind_counts[kind] += n
        rank_counts[rank] = rank_counts.get(rank, 0) + n
        if path:
            files.add(path)
            if kind not in MARKER_KINDS:
                ranks = file_ranks.get(path)
                if ranks is None:
                    file_ranks[path] = {rank}
                else:
                    ranks.add(rank)
        if kind in DATA_KINDS:
            volume = n * nbytes
            transfer_total += volume
            size_hist[size_bucket(nbytes)] += n
            if kind is OpKind.READ:
                bytes_read += volume
            else:
                bytes_written += volume
            key = (path, kind, rank)
            if cursors.get(key) == offsets[0]:
                n_sequential += 1
            if n > 1:
                # Each later op is sequential when it starts where the
                # previous one (in this run) ended.
                if type(offsets) is range:
                    if offsets.step == nbytes:
                        n_sequential += n - 1
                else:
                    prev = offsets[0]
                    for offset in offsets[1:]:
                        if offset - prev == nbytes:
                            n_sequential += 1
                        prev = offset
            cursors[key] = offsets[-1] + nbytes

    if not rank_counts:
        return features
    n = sum(rank_counts.values())
    for kind, count in kind_counts.items():
        features[f"mix_{kind.value}"] = count / n
    n_reads = kind_counts[OpKind.READ]
    n_data = n_reads + kind_counts[OpKind.WRITE]
    n_meta = sum(kind_counts[kind] for kind in METADATA_KINDS)
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
    # File-per-process paths carry the compiler's ".<rank>" suffix (or any
    # per-rank numbering); count files touched by exactly one rank.
    if file_ranks:
        private = sum(1 for ranks in file_ranks.values() if len(ranks) == 1)
        features["fpp_fraction"] = private / len(file_ranks)
    counts = list(rank_counts.values())
    mean = sum(counts) / len(counts)
    if mean > 0 and len(counts) > 1:
        var = sum((c - mean) ** 2 for c in counts) / len(counts)
        features["rank_balance_cv"] = (var ** 0.5) / mean
    features["ops_per_rank"] = mean
    return features


def archive_features(archive) -> Dict[str, float]:
    """Features of every record in a :class:`TraceArchive` (all layers)."""
    return access_features(archive.records)
