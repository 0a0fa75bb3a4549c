"""Unit tests for the Omnisc'IO-style pattern predictor."""

import pytest

from repro.modeling.patterns import ContextModel, OpPredictor
from repro.ops import IOOp, OpKind
from repro.workloads import (
    CheckpointConfig,
    CheckpointWorkload,
    DLIOConfig,
    DLIOWorkload,
)

KiB = 1024
MiB = 1024 * 1024


class TestContextModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContextModel(order=-1)
        with pytest.raises(ValueError):
            ContextModel().evaluate([])

    def test_no_prediction_before_history(self):
        assert ContextModel().predict() is None

    def test_learns_deterministic_cycle(self):
        m = ContextModel(order=2)
        seq = list("abcabcabcabc")
        for s in seq:
            m.observe(s)
        assert m.predict() == "a"  # after ...bc comes a

    def test_online_accuracy_high_on_periodic_stream(self):
        seq = list("abcd" * 50)
        acc = ContextModel(order=3).evaluate(seq)
        assert acc > 0.9

    def test_online_accuracy_low_on_random_stream(self):
        import numpy as np

        rng = np.random.default_rng(0)
        seq = [int(x) for x in rng.integers(0, 16, size=400)]
        acc = ContextModel(order=3).evaluate(seq)
        assert acc < 0.3

    def test_longer_context_disambiguates(self):
        # 'x' follows 'a b' but 'y' follows 'c b': order-2 needed.
        seq = list("abx cby abx cby abx cby".replace(" ", ""))
        acc1 = ContextModel(order=1).evaluate(list(seq))
        acc2 = ContextModel(order=2).evaluate(list(seq))
        assert acc2 > acc1


class TestOpPredictor:
    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            OpPredictor().evaluate([])

    def test_predicts_sequential_stream_exactly(self):
        ops = [
            IOOp(OpKind.WRITE, "/f", offset=i * KiB, nbytes=KiB)
            for i in range(200)
        ]
        sym_acc, exact_acc = OpPredictor(order=2).evaluate(ops)
        assert sym_acc > 0.95
        assert exact_acc > 0.9  # offsets advance by the learned stride

    def test_checkpoint_stream_highly_predictable(self):
        """The structured-stream side of the Omnisc'IO claim."""
        w = CheckpointWorkload(
            CheckpointConfig(bytes_per_rank=8 * MiB, steps=6,
                             transfer_size=MiB, compute_seconds=0.1,
                             file_per_process=False, fsync=False),
            n_ranks=2,
        )
        ops = list(w.ops(1))
        sym_acc, exact_acc = OpPredictor(order=3).evaluate(ops)
        # Each step writes a new checkpoint file, so the per-step OPEN of a
        # never-seen path is inherently unpredictable; the write bodies are
        # what the model captures.
        assert sym_acc > 0.6
        assert exact_acc > 0.5

    def test_shuffled_dlio_stream_unpredictable_offsets(self):
        """The shuffled-stream side: symbols repeat, offsets do not."""
        w = DLIOWorkload(
            DLIOConfig(n_samples=256, sample_bytes=64 * KiB, n_shards=1,
                       batch_size=8, compute_per_batch=0.0),
            n_ranks=1,
        )
        ops = [op for op in w.ops(0) if op.kind == OpKind.READ]
        sym_acc, exact_acc = OpPredictor(order=3).evaluate(ops)
        assert sym_acc > 0.9  # same file, same size: the class is trivial
        assert exact_acc < 0.1  # but the shuffled offsets are not

    def test_prediction_object_fields(self):
        p = OpPredictor()
        p.observe(IOOp(OpKind.READ, "/data", offset=0, nbytes=4 * KiB))
        p.observe(IOOp(OpKind.READ, "/data", offset=4 * KiB, nbytes=4 * KiB))
        pred = p.predict()
        assert pred is not None
        assert pred.kind == OpKind.READ
        assert pred.path == "/data"
        assert pred.offset == 8 * KiB
        assert pred.nbytes == 4 * KiB

    def test_markers_ignored_in_evaluation(self):
        ops = [IOOp(OpKind.BARRIER)] * 5 + [
            IOOp(OpKind.WRITE, "/f", offset=i * KiB, nbytes=KiB) for i in range(20)
        ]
        sym_acc, _ = OpPredictor().evaluate(ops)
        assert sym_acc > 0.8
