"""Trace distance: how far apart are two access patterns?

The scoring half of trace-to-spec synthesis (:mod:`repro.wgen.synth`).
A trace is reduced to two vectors and compared field-by-field:

* the order-insensitive access features of
  :func:`repro.monitoring.features.access_features` (op mix, volumes,
  size histogram, sequentiality, file population, rank balance);
* a loop-structure signature from the run collapse and tandem-repeat
  fold of :mod:`repro.modeling.trace_compress` -- tandem-repeat
  compression sees through surface reordering to the run/loop skeleton
  (how repetitive the stream is, how deep its loops nest, how long its
  runs are), which plain histograms cannot.

:func:`trace_distance` is a bounded [0, 1] mean of per-field symmetric
relative differences: 0 for identical patterns, ~1 for disjoint ones.
It is split into a per-stream step (:func:`trace_shape`) and a comparison
step (:func:`shape_distance`), so a search scoring many candidates
against one target reduces the target once.
Every function here reads op runs (:class:`~repro.ops.OpRun`) as well as
ops and records, and a run stream scores exactly as its expanded ops do.
It is symmetric and scale-free, so a threshold transfers across traces
of very different lengths.  :data:`DISTANCE_THRESHOLD` is the documented
"same pattern" cutoff the synthesis CLI enforces: re-simulating a
recovered derivation must land below it against the source trace.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterable, List, Tuple, Union

from repro.modeling.trace_compress import Loop, collapse, fold
from repro.monitoring.features import access_features
from repro.ops import IOOp, IORecord, OpRun, as_runs

#: What the shape functions read: ops, trace records or runs, mixed.
ShapeInput = Union[IOOp, IORecord, OpRun]

#: Documented acceptance cutoff for synthesized derivations: a re-simulated
#: candidate whose distance to the source trace is below this reproduces
#: the access pattern.  Empirically, self-synthesis of grammar-generated
#: traces lands at ~0.0 and unrelated phase mixes land above ~0.3.
DISTANCE_THRESHOLD = 0.15

#: Fixed key set of :func:`structure_signature`.
STRUCTURE_NAMES = (
    "n_ops", "n_nodes", "compression_ratio",
    "n_loops", "max_loop_count", "mean_loop_count", "loop_depth",
    "n_runs", "max_run_count", "mean_run_count",
)


def _walk(nodes, depth: int, acc: Dict[str, float]) -> None:
    n_plain = 0
    for node in nodes:
        if isinstance(node, Loop):
            acc["n_loops"] += 1
            acc["loop_count_total"] += node.count
            acc["max_loop_count"] = max(acc["max_loop_count"], node.count)
            acc["loop_depth"] = max(acc["loop_depth"], depth + 1)
            _walk(node.body, depth + 1, acc)
        elif node[1] >= 3:  # a collapsed Run span: (position, count, stride)
            count = node[1]
            acc["n_runs"] += 1
            acc["run_count_total"] += count
            acc["max_run_count"] = max(acc["max_run_count"], count)
        else:
            n_plain += 1
    acc["n_plain"] += n_plain


def structure_signature(stream: Iterable[ShapeInput]) -> Dict[str, float]:
    """Loop/run-structure summary of an op stream, via trace compression.

    Reads runs (:func:`~repro.ops.as_runs`: ops and records enter as
    runs of one, records without timing) and splits them into per-rank
    substreams before compression: observed traces arrive
    time-interleaved across ranks while intended streams are concatenated
    rank by rank, and only the per-rank order is structure rather than
    scheduling accident.  Each rank is collapsed and folded independently
    (:func:`~repro.modeling.trace_compress.collapse` and
    :func:`~repro.modeling.trace_compress.fold`, exactly
    :func:`~repro.modeling.trace_compress.compress_ops` on the expanded
    ops, without building them); the signature aggregates over ranks
    (sums, maxima, weighted means).
    """
    out = dict.fromkeys(STRUCTURE_NAMES, 0.0)
    runs = as_runs(stream)
    n_ops = sum(map(len, map(attrgetter("offsets"), runs)))
    by_rank: Dict[int, List[OpRun]] = {}
    # Compiled streams are rank-major: a few long same-rank stretches.
    for rank, stretch in groupby(runs, attrgetter("rank")):
        by_rank.setdefault(rank, []).extend(stretch)
    out["n_ops"] = float(n_ops)
    if not n_ops:
        return out
    acc = {
        "n_loops": 0.0, "loop_count_total": 0.0, "max_loop_count": 0.0,
        "loop_depth": 0.0, "n_runs": 0.0, "run_count_total": 0.0,
        "max_run_count": 0.0, "n_plain": 0.0,
    }
    for rank in sorted(by_rank):
        interned: Dict[tuple, int] = {}
        spans, ids = collapse(by_rank[rank], interned)
        _walk(fold(spans, ids, interned), 0, acc)
    n_nodes = acc["n_loops"] + acc["n_runs"] + acc["n_plain"]
    out["n_nodes"] = n_nodes
    out["compression_ratio"] = n_nodes / n_ops
    out["n_loops"] = acc["n_loops"]
    out["max_loop_count"] = acc["max_loop_count"]
    out["mean_loop_count"] = (
        acc["loop_count_total"] / acc["n_loops"] if acc["n_loops"] else 0.0
    )
    out["loop_depth"] = acc["loop_depth"]
    out["n_runs"] = acc["n_runs"]
    out["max_run_count"] = acc["max_run_count"]
    out["mean_run_count"] = (
        acc["run_count_total"] / acc["n_runs"] if acc["n_runs"] else 0.0
    )
    return out


def _symmetric_diff(a: float, b: float) -> float:
    """|a-b| / max(|a|, |b|): 0 for equal values, bounded by 1."""
    denom = max(abs(a), abs(b))
    if denom == 0.0:
        return 0.0
    return abs(a - b) / denom


def feature_distance(fa: Dict[str, float], fb: Dict[str, float]) -> float:
    """Mean symmetric relative difference over the union of keys."""
    keys = sorted(set(fa) | set(fb))
    if not keys:
        return 0.0
    return sum(
        _symmetric_diff(fa.get(k, 0.0), fb.get(k, 0.0)) for k in keys
    ) / len(keys)


#: What :func:`trace_shape` reduces a stream to: its access features and
#: its structure signature.
TraceShape = Tuple[Dict[str, float], Dict[str, float]]


def trace_shape(stream: Iterable[ShapeInput]) -> TraceShape:
    """The ``(access_features, structure_signature)`` pair of a stream.

    The per-stream half of :func:`trace_distance`: a caller comparing one
    stream against many computes its shape once and compares shapes with
    :func:`shape_distance`.  The stream is read once, as runs; a run
    stream's shape equals its expanded op stream's exactly.
    """
    runs = as_runs(stream)
    return access_features(runs), structure_signature(runs)


def shape_distance(a: TraceShape, b: TraceShape,
                   structure_weight: float = 0.5) -> float:
    """Bounded [0, 1] distance between two :func:`trace_shape` results.

    A convex combination of the access-feature distance and the
    loop-structure distance (``structure_weight`` sets the blend).
    """
    if not 0.0 <= structure_weight <= 1.0:
        raise ValueError("structure_weight must be in [0, 1]")
    d_feat = feature_distance(a[0], b[0])
    d_struct = feature_distance(a[1], b[1])
    return (1.0 - structure_weight) * d_feat + structure_weight * d_struct


def trace_distance(
    a: Iterable[ShapeInput],
    b: Iterable[ShapeInput],
    structure_weight: float = 0.5,
) -> float:
    """Bounded [0, 1] access-pattern distance between two op streams.

    ``shape_distance(trace_shape(a), trace_shape(b), structure_weight)``.
    Identical streams score exactly 0.0.
    """
    return shape_distance(trace_shape(a), trace_shape(b), structure_weight)
