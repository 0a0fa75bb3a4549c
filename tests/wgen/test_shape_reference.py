"""Run-level scoring against the op-level bodies it replaced.

Synthesis scores a candidate as text -> runs -> shape.  The functions
below are the op-level versions of ``normalize_ops``, ``access_features``
and the structure signature (its run collapse over ops, before
``compress_ops`` and the signature read runs), kept as the oracle: for
every distinct completion a corpus search scores, and for
hypothesis-drawn derivations at 1-4 ranks, the run-level shape must
equal the op-level shape of the expanded ops exactly (``==`` on the
float dicts), and normalization must expand to the same ops.
"""

import json
from pathlib import Path
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.modeling.trace_compress import Loop, OpNode, Run, _meta_key, fold
from repro.modeling.trace_distance import STRUCTURE_NAMES, trace_shape
from repro.monitoring import RecorderTracer
from repro.monitoring.features import FEATURE_NAMES
from repro.ops import (
    DATA_KINDS,
    MARKER_KINDS,
    METADATA_KINDS,
    SIZE_BUCKETS,
    IOOp,
    IORecord,
    OpKind,
    expand_runs,
    size_bucket,
)
from repro.scenario import run_scenario
from repro.wgen import synth
from repro.wgen.grammar import default_grammar, sample
from repro.wgen.synth import (
    derivation_ops,
    derivation_runs,
    normalize_ops,
    synthesize,
    target_ops,
)

# -- the op-level references --------------------------------------------------

_LAZY_OPEN_KINDS = frozenset((OpKind.WRITE, OpKind.READ, OpKind.FSYNC))


def _ref_normalize(ops):
    out = []
    open_files = set()
    for op in ops:
        kind = op.kind
        if kind in MARKER_KINDS:
            continue
        key = (op.rank, op.path)
        if kind is OpKind.CREATE:
            out.append(IOOp(OpKind.OPEN, op.path, op.offset, op.nbytes,
                            op.rank, op.duration, {}))
            open_files.add(key)
        elif kind is OpKind.OPEN:
            out.append(op)
            open_files.add(key)
        elif kind in _LAZY_OPEN_KINDS:
            if key not in open_files:
                out.append(IOOp(OpKind.OPEN, op.path, rank=op.rank))
                open_files.add(key)
            out.append(op)
        elif kind is OpKind.CLOSE:
            if key in open_files:
                open_files.discard(key)
                out.append(op)
        elif kind is OpKind.UNLINK:
            open_files.discard(key)
            out.append(op)
        else:
            out.append(op)
    for rank, path in sorted(open_files):
        out.append(IOOp(OpKind.CLOSE, path, rank=rank))
    return out


def _ref_features(ops):
    features = dict.fromkeys(FEATURE_NAMES, 0.0)
    kind_counts = dict.fromkeys(OpKind, 0)
    rank_counts: Dict[int, int] = {}
    size_hist = [0] * (len(SIZE_BUCKETS) + 1)
    bytes_read = bytes_written = n_sequential = transfer_total = 0
    files = set()
    file_ranks: Dict[str, set] = {}
    cursors: Dict[tuple, int] = {}
    for op in ops:
        if isinstance(op, IORecord):
            op = op.to_op()
        kind, rank, path = op.kind, op.rank, op.path
        kind_counts[kind] += 1
        rank_counts[rank] = rank_counts.get(rank, 0) + 1
        if path:
            files.add(path)
            if kind not in MARKER_KINDS:
                file_ranks.setdefault(path, set()).add(rank)
        if kind in DATA_KINDS:
            transfer_total += op.nbytes
            size_hist[size_bucket(op.nbytes)] += 1
            if kind is OpKind.READ:
                bytes_read += op.nbytes
            else:
                bytes_written += op.nbytes
            key = (path, kind, rank)
            if cursors.get(key) == op.offset:
                n_sequential += 1
            cursors[key] = op.offset + op.nbytes
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


def _ref_collapse(ops, interned):
    sigs = [(op.kind, op.path, op.nbytes, op.rank, op.duration) for op in ops]
    offsets = [op.offset for op in ops]
    nodes, ids = [], []
    i, n = 0, len(ops)
    while i < n:
        op, sig = ops[i], sigs[i]
        j = i + 1
        if j < n and sigs[j] == sig and ops[j].meta == op.meta:
            stride = offsets[j] - offsets[i]
            j += 1
            while (j < n and sigs[j] == sig and ops[j].meta == op.meta
                   and offsets[j] - offsets[j - 1] == stride):
                j += 1
        count = j - i
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


def _ref_walk(nodes, depth, acc):
    for node in nodes:
        if isinstance(node, Loop):
            acc["n_loops"] += 1
            acc["loop_count_total"] += node.count
            acc["max_loop_count"] = max(acc["max_loop_count"], node.count)
            acc["loop_depth"] = max(acc["loop_depth"], depth + 1)
            _ref_walk(node.body, depth + 1, acc)
        elif isinstance(node, Run):
            acc["n_runs"] += 1
            acc["run_count_total"] += node.count
            acc["max_run_count"] = max(acc["max_run_count"], node.count)
        else:
            acc["n_plain"] += 1


def _ref_structure(stream):
    ops = [item.to_op() if isinstance(item, IORecord) else item
           for item in stream]
    out = {name: 0.0 for name in STRUCTURE_NAMES}
    out["n_ops"] = float(len(ops))
    if not ops:
        return out
    by_rank: Dict[int, List[IOOp]] = {}
    for op in ops:
        by_rank.setdefault(op.rank, []).append(op)
    acc = dict.fromkeys(
        ("n_loops", "loop_count_total", "max_loop_count", "loop_depth",
         "n_runs", "run_count_total", "max_run_count", "n_plain"), 0.0)
    for rank in sorted(by_rank):
        interned = {}
        nodes, ids = _ref_collapse(by_rank[rank], interned)
        _ref_walk(fold(nodes, ids, interned), 0, acc)
    n_nodes = acc["n_loops"] + acc["n_runs"] + acc["n_plain"]
    out["n_nodes"] = n_nodes
    out["compression_ratio"] = n_nodes / len(ops)
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


def _ref_shape(ops):
    return _ref_features(ops), _ref_structure(ops)


def _assert_runs_match_reference(runs):
    ops = expand_runs(runs)
    assert trace_shape(runs) == _ref_shape(ops)
    normalized = normalize_ops(runs)
    assert expand_runs(normalized) == _ref_normalize(ops)
    assert trace_shape(normalized) == _ref_shape(_ref_normalize(ops))


# -- every completion a corpus search scores ---------------------------------

SYNTH_GOLDEN = json.loads(
    (Path(__file__).parent / "synth_golden_seed0.json").read_text()
)


@pytest.mark.parametrize(
    "golden", SYNTH_GOLDEN["targets"],
    ids=lambda t: f"derivation-seed-{t['derivation_seed']}",
)
def test_every_scored_completion_matches_the_op_level_shape(golden,
                                                            monkeypatch):
    g = default_grammar()
    source = sample(g, seed=golden["derivation_seed"],
                    n_ranks=SYNTH_GOLDEN["ranks"])
    tracer = RecorderTracer()
    run_scenario(source.scenario_spec(seed=SYNTH_GOLDEN["sim_seed"]),
                 observers=[tracer])
    target = target_ops(tracer.archive.at_layer("posix"))
    assert trace_shape(normalize_ops(target)) == \
        _ref_shape(_ref_normalize(target))

    scored = {}

    def capture(derivation):
        runs = derivation_runs(derivation)
        scored[derivation.text] = runs
        return runs

    monkeypatch.setattr(synth, "derivation_runs", capture)
    result = synthesize(target, grammar=g,
                        n_ranks=max(op.rank for op in target) + 1)
    assert result.to_dict() == golden["result"]
    assert scored
    for runs in scored.values():
        _assert_runs_match_reference(runs)


# -- hypothesis-drawn derivations ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), n_ranks=st.integers(1, 4))
def test_drawn_derivations_match_the_op_level_shape(seed, n_ranks):
    derivation = sample(default_grammar(), seed=seed, n_ranks=n_ranks)
    runs = derivation_runs(derivation)
    assert expand_runs(runs) == derivation_ops(derivation)
    _assert_runs_match_reference(runs)
