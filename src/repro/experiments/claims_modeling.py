"""Experiments C6, C7, C8: modeling and prediction claims.

The simulated configurations feeding the models are declared scenarios:
C6's training set is a declarative grid (:func:`repro.scenario.sweep
.expand_grid`) over the ``c6-ior`` base, C7 traces the ``c7-checkpoint``
scenario, and C8 extrapolates the ``c8-direct`` IOR job from smaller rank
counts derived off the same spec.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.experiment import ExperimentRecord
from repro.modeling import (
    PerformancePredictor,
    ReplayModel,
    TraceExtrapolator,
    compress_ops,
    decompress,
    workload_features,
)
from repro.monitoring import RecorderTracer
from repro.ops import IOOp, OpKind
from repro.replay import verify_fidelity
from repro.scenario.build import build, instantiate_workloads, run_scenario
from repro.scenario.presets import get_scenario
from repro.scenario.sweep import expand_grid
from repro.scenario.workloads import build_workload
from repro.workloads import OpStreamWorkload

MiB = 1024 * 1024
KiB = 1024


def run_c6(seed: int = 0) -> ExperimentRecord:
    """C6: learned models beat linear models for I/O time prediction
    (Schmid & Kunkel [56], Sun et al. [57]).

    A declared grid of IOR configurations (base scenario ``c6-ior``) is
    simulated to build the training set (configuration features ->
    measured time); linear regression, an MLP and a random forest are then
    compared on held-out MAPE.
    """
    rec = ExperimentRecord(
        "C6", "ML models predict I/O time better than linear models"
    )
    block = 4 * MiB
    grid = {
        "n_ranks": (1, 2, 4),
        "transfer_size": (64 * KiB, 256 * KiB, MiB),
        "stripe_count": (1, 2, 4),
        "random_offsets": (False, True),
    }
    X, y = [], []
    for point in expand_grid(get_scenario("c6-ior", seed), grid):
        t = run_scenario(point.scenario).results[0].duration
        o = point.overrides
        X.append(
            workload_features(
                o["n_ranks"], o["transfer_size"], block, segments=1,
                random_offsets=o["random_offsets"],
                stripe_count=o["stripe_count"],
            )
        )
        y.append(t)
    X = np.array(X)
    y = np.array(y)
    predictor = PerformancePredictor(seed=seed, test_fraction=0.25)
    cmp = predictor.compare(X, y, mlp_epochs=400, n_trees=40)
    rec.measure(
        n_samples=len(y),
        mape_linear=cmp.mape["linear"],
        mape_mlp=cmp.mape["mlp"],
        mape_forest=cmp.mape["forest"],
        best_model=cmp.best(),
    )
    rec.verdict(cmp.learned_beats_linear(), cmp.summary())
    return rec


def run_c7(seed: int = 0) -> ExperimentRecord:
    """C7: trace compression shrinks repetitive traces drastically while
    replay stays exact (Hao et al. [15]).

    The periodic checkpoint scenario ``c7-checkpoint`` is traced; the
    suffix-fold compressor must reach a high ratio, decompression must be
    bit-exact, and the replayed workload must reproduce the original's
    I/O.
    """
    rec = ExperimentRecord(
        "C7", "repetitive traces compress by large factors with exact replay"
    )
    spec = get_scenario("c7-checkpoint", seed)
    (_, workload), = instantiate_workloads(spec)

    # Direct op-level compression check.
    ops0 = list(workload.ops(0))
    ct = compress_ops(ops0)
    exact = decompress(ct) == ops0

    # End-to-end: trace the run, build the replay model, replay, verify.
    harness = build(spec)
    tracer = RecorderTracer()
    harness.run(workload, observers=[tracer])
    original_posix = [r for r in tracer.records if r.layer == "posix"]

    model = ReplayModel.from_records(tracer.records, name="c7")
    replay_harness = build(spec)  # fresh, identically-configured system
    tracer2 = RecorderTracer()
    model.predict_runtime(
        replay_harness.platform, replay_harness.pfs,
        include_think_time=False, observers=[tracer2],
    )
    replay_posix = [r for r in tracer2.records if r.layer == "posix"]
    fidelity = verify_fidelity(original_posix, replay_posix)

    rec.measure(
        op_level_ratio=ct.ratio,
        model_ratio=model.compression_ratio,
        decompression_exact=exact,
        replay_bytes_match=fidelity.bytes_match,
        replay_offsets_match=fidelity.offsets_match,
    )
    rec.verdict(
        exact and ct.ratio > 10.0 and fidelity.bytes_match and fidelity.offsets_match,
        f"ratio {ct.ratio:.1f}:1 with exact expansion and faithful replay",
    )
    return rec


def run_c8(seed: int = 0) -> ExperimentRecord:
    """C8: traces from small runs extrapolate to larger scales
    (ScalaIOExtrap [16], [17]).

    IOR data-op traces at 2/4/8 ranks (the ``c8-direct`` workload spec at
    reduced rank counts) are fitted; the predicted 16-rank trace must
    match the true 16-rank pattern exactly (offsets/sizes), and replaying
    the prediction must estimate the direct 16-rank simulation's runtime
    closely.
    """
    rec = ExperimentRecord(
        "C8", "small-scale traces extrapolate to unseen larger scales"
    )
    spec = get_scenario("c8-direct", seed)
    wspec = spec.workloads[0]

    def data_ops(n):
        _, w = build_workload(dataclasses.replace(wspec, n_ranks=n))
        return [[op for op in w.ops(r) if op.kind.is_data] for r in range(n)]

    ex = TraceExtrapolator().fit({n: data_ops(n) for n in (2, 4, 8)})
    predicted = ex.generate(16)

    truth = data_ops(16)
    structure_exact = all(
        [(op.offset, op.nbytes) for op in predicted.ops(r)]
        == [(op.offset, op.nbytes) for op in truth[r]]
        for r in range(16)
    )

    # Runtime prediction: replay the extrapolated trace vs direct run.
    direct = run_scenario(spec).results[0]

    replay_harness = build(get_scenario("c8-replay", seed))
    # The predicted stream holds only data ops; pre-create the shared file.
    setup = OpStreamWorkload(
        "setup",
        [[IOOp(kind=OpKind.CREATE, path="/ior.data", meta={"stripe_count": -1})]],
    )
    replay_harness.run(setup)
    replayed = replay_harness.run(predicted)

    runtime_error = abs(replayed.duration - direct.duration) / direct.duration
    rec.measure(
        fit_exact=ex.is_exact(),
        structure_exact=structure_exact,
        direct_seconds=direct.duration,
        extrapolated_seconds=replayed.duration,
        runtime_error=runtime_error,
    )
    rec.verdict(
        ex.is_exact() and structure_exact and runtime_error < 0.25,
        "offset arithmetic recovered exactly; runtime predicted within 25%",
    )
    return rec
