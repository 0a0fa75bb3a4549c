"""Modeling and prediction (paper Sec. IV-B).

The four sub-categories of the paper's taxonomy:

1. *Statistics and analysis* -- :mod:`repro.modeling.statistics` (descriptive
   statistics, CDFs, variability), :mod:`repro.modeling.regression` (linear
   models with diagnostics), :mod:`repro.modeling.hypothesis_testing`
   (Welch t and two-sample KS; scipy is imported on their first call, so
   importing this package does not load it).
2. *Predictive analytics* -- :mod:`repro.modeling.mlp` (a NumPy multi-layer
   perceptron, after Schmid & Kunkel [56]), :mod:`repro.modeling.forest`
   (decision trees and random forests from scratch, after Sun et al. [57]),
   and :mod:`repro.modeling.predictor` (the I/O-time prediction harness
   comparing them against linear baselines -- claim C6).
3. *Replay-based modeling* -- :mod:`repro.modeling.trace_compress`
   (tandem-repeat trace compression, after Hao et al. [15]) and
   :mod:`repro.modeling.replay_model`.
4. (*Workload generation* lives in :mod:`repro.wgen`.)

Plus :mod:`repro.modeling.extrapolate`: ScalaIOExtrap-style [16], [17]
trace extrapolation across rank counts (claim C8), and
:mod:`repro.modeling.prefetch`, which acts on the next-op predictions of
:mod:`repro.modeling.patterns` by prefetching reads into a PFS client.
"""

from repro.modeling.statistics import (
    DescriptiveStats,
    coefficient_of_variation,
    describe,
    ecdf,
    pearson_correlation,
)
from repro.modeling.regression import LinearModel, polynomial_features
from repro.modeling.hypothesis_testing import TestResult, ks_test, t_test
from repro.modeling.features import profile_features, workload_features
from repro.modeling.mlp import MLPRegressor
from repro.modeling.forest import DecisionTreeRegressor, RandomForestRegressor
from repro.modeling.predictor import ModelComparison, PerformancePredictor
from repro.modeling.trace_compress import (
    CompressedTrace,
    Loop,
    compress_ops,
    decompress,
)
from repro.modeling.extrapolate import TraceExtrapolator
from repro.modeling.replay_model import ReplayModel
from repro.modeling.trace_distance import (
    DISTANCE_THRESHOLD,
    feature_distance,
    shape_distance,
    structure_signature,
    trace_distance,
    trace_shape,
)

__all__ = [
    "CompressedTrace",
    "DISTANCE_THRESHOLD",
    "DecisionTreeRegressor",
    "DescriptiveStats",
    "LinearModel",
    "Loop",
    "MLPRegressor",
    "ModelComparison",
    "PerformancePredictor",
    "RandomForestRegressor",
    "ReplayModel",
    "TestResult",
    "TraceExtrapolator",
    "coefficient_of_variation",
    "compress_ops",
    "decompress",
    "describe",
    "ecdf",
    "feature_distance",
    "ks_test",
    "pearson_correlation",
    "polynomial_features",
    "profile_features",
    "shape_distance",
    "structure_signature",
    "t_test",
    "trace_distance",
    "trace_shape",
    "workload_features",
]
