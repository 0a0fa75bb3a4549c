"""Trace distance and structure signatures (repro.modeling.trace_distance).

Includes the property test tying the grammar to the compressor: every
grammar-generated op stream must round-trip *exactly* through
``compress_ops``/``decompress``.
"""

import pytest

from repro.modeling.trace_compress import compress_ops, decompress
from repro.modeling.trace_distance import (
    DISTANCE_THRESHOLD,
    STRUCTURE_NAMES,
    feature_distance,
    shape_distance,
    structure_signature,
    trace_distance,
    trace_shape,
)
from repro.monitoring.features import access_features
from repro.ops import IOOp, IORecord, OpKind, expand_runs
from repro.wgen.grammar import default_grammar, sample
from repro.wgen.synth import derivation_ops, normalize_ops

MiB = 1024 * 1024


def _loopy_ops(n=6, rank=0):
    # Identical iterations, so tandem-repeat detection folds them into a
    # Loop node (varying offsets would change the body's node keys).
    ops = []
    for _ in range(n):
        ops.append(IOOp(OpKind.WRITE, "/f", offset=0, nbytes=MiB, rank=rank))
        ops.append(IOOp(OpKind.FSYNC, "/f", rank=rank))
    return ops


# -- property: grammar streams round-trip through the compressor --------------


@pytest.mark.parametrize("seed", range(8))
def test_compress_round_trips_grammar_streams_exactly(seed):
    ops = derivation_ops(sample(default_grammar(), seed=seed))
    assert decompress(compress_ops(ops)) == ops


@pytest.mark.parametrize("seed", [0, 3])
def test_compress_round_trips_normalized_streams_exactly(seed):
    # normalize_ops returns runs; compression takes their ops.
    ops = expand_runs(
        normalize_ops(derivation_ops(sample(default_grammar(), seed=seed))))
    assert decompress(compress_ops(ops)) == ops


# -- structure signature ------------------------------------------------------


def test_signature_has_fixed_keys_and_zero_for_empty():
    sig = structure_signature([])
    assert tuple(sig) == STRUCTURE_NAMES
    assert all(v == 0.0 for v in sig.values())


def test_signature_sees_loops_in_repetitive_streams():
    sig = structure_signature(_loopy_ops(n=6))
    assert sig["n_ops"] == 12.0
    assert sig["n_loops"] >= 1.0
    assert sig["compression_ratio"] < 1.0


def test_signature_is_interleaving_invariant():
    """Per-rank compression: cross-rank scheduling order is not structure."""
    a = _loopy_ops(n=4, rank=0)
    b = _loopy_ops(n=4, rank=1)
    concatenated = a + b
    interleaved = [op for pair in zip(a, b) for op in pair]
    assert structure_signature(concatenated) == \
        structure_signature(interleaved)


# -- distances ----------------------------------------------------------------


def test_identical_streams_are_distance_zero():
    ops = derivation_ops(sample(default_grammar(), seed=0))
    assert trace_distance(ops, ops) == 0.0


def test_distance_is_symmetric_and_bounded():
    a = derivation_ops(sample(default_grammar(), seed=0))
    b = derivation_ops(sample(default_grammar(), seed=1))
    d = trace_distance(a, b)
    assert d == trace_distance(b, a)
    assert 0.0 <= d <= 1.0


def test_cross_seed_distances_clear_the_threshold():
    streams = [
        normalize_ops(derivation_ops(sample(default_grammar(), seed=s)))
        for s in range(3)
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            assert trace_distance(streams[i], streams[j]) \
                > DISTANCE_THRESHOLD


def test_structure_weight_validated():
    shape = trace_shape([])
    for weight in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="structure_weight"):
            trace_distance([], [], structure_weight=weight)
        with pytest.raises(ValueError, match="structure_weight"):
            shape_distance(shape, shape, structure_weight=weight)


# -- the shape/compare split --------------------------------------------------


def _as_records(ops):
    return [
        IORecord("posix", op.kind, op.path, op.offset, op.nbytes, op.rank,
                 start=float(i), end=i + 0.5)
        for i, op in enumerate(ops)
    ]


def _reference_distance(a, b, weight):
    """The unsplit arithmetic trace_distance had before the shape split."""
    d_feat = feature_distance(access_features(a), access_features(b))
    d_struct = feature_distance(structure_signature(a),
                                structure_signature(b))
    return (1.0 - weight) * d_feat + weight * d_struct


@pytest.mark.parametrize("sa,sb", [(0, 1), (2, 3), (4, 4), (5, 0)])
@pytest.mark.parametrize("weight", [0.0, 0.3, 0.5, 1.0])
def test_trace_distance_is_shape_distance_of_shapes(sa, sb, weight):
    g = default_grammar()
    a = normalize_ops(derivation_ops(sample(g, seed=sa, n_ranks=2)))
    b = derivation_ops(sample(g, seed=sb, n_ranks=3))
    # bit-for-bit, not approximately: synthesis scores with the split form
    ops = expand_runs(a)  # normalize_ops returns runs
    for left in (ops, _as_records(ops)):
        want = _reference_distance(left, b, weight)
        assert trace_distance(left, b, structure_weight=weight) == want
        assert shape_distance(trace_shape(left), trace_shape(b),
                              structure_weight=weight) == want
    # the runs score exactly as their ops do
    assert trace_distance(a, b, structure_weight=weight) == \
        _reference_distance(ops, b, weight)


def test_trace_shape_is_features_and_signature():
    ops = derivation_ops(sample(default_grammar(), seed=0))
    features, signature = trace_shape(iter(ops))  # any iterable, read once
    assert features == access_features(ops)
    assert signature == structure_signature(ops)


def test_feature_distance_over_key_union():
    assert feature_distance({}, {}) == 0.0
    assert feature_distance({"a": 1.0}, {"a": 1.0}) == 0.0
    assert feature_distance({"a": 1.0}, {"b": 1.0}) == 1.0
