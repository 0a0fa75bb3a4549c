"""Cross-process collection through the experiment runner's worker pool.

The acceptance property for distributed telemetry: a ``jobs=2`` run
yields ONE merged Chrome trace carrying span tracks from the worker pids
as well as the parent's, and the workers' simulation-time series ride
back as counter tracks.
"""

import os

from repro import telemetry
from repro.experiments.runner import run_experiments
from repro.telemetry.collect import merged_chrome_trace
from repro.telemetry.tracing import validate_chrome_trace


def test_pool_workers_merge_into_one_trace():
    telemetry.enable()
    # Experiments that run simulations (so workers record spans) and take
    # long enough that both workers pick up a task.
    results = run_experiments(ids=["C2", "R3", "C3", "A3"], jobs=2,
                              use_cache=False, manifest=False)
    assert not any(r.failed for r in results)
    doc = merged_chrome_trace()
    assert validate_chrome_trace(doc) == []
    span_pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
    worker_pids = span_pids - {os.getpid()}
    assert len(worker_pids) >= 2
    assert worker_pids < set(doc["otherData"]["processes"])
    assert any(e["ph"] == "C" for e in doc["traceEvents"])
