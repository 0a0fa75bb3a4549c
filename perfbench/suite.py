"""paper-suite: regenerate all registered experiments cold, in process.

A closed loop with one caller.  One operation is one pass of
``run_experiments(all ids, seeds=[seed], jobs=1, use_cache=False)`` --
what ``repro-io experiment all --no-cache --jobs 1`` users wait on.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from typing import Any, Dict, List

import layers
from common import OUT, ROOT, Checks, Deadline

GOLDEN = ROOT / "tests" / "experiments" / "golden_seed0.json"
#: Experiments whose notes embed formatted floats; compared loosely, as in
#: ``tests/experiments/test_experiments.py``.
FLOAT_NOTES = {"C6"}


class Suite:
    def __init__(self, seed: int, smoke: bool):
        from repro.experiments import ALL_EXPERIMENTS
        from repro.experiments.runner import run_experiments

        self.seed = seed
        self.run_experiments = run_experiments
        ids = sorted(ALL_EXPERIMENTS)
        self.ids = ["E3", "C1", "C8"] if smoke else ids
        self.golden = json.loads(GOLDEN.read_text()) if seed == 0 else None
        self.store_dir = OUT / "suite-store"

    def one_pass(self) -> tuple:
        start = time.perf_counter()
        results = self.run_experiments(
            self.ids, seeds=[self.seed], jobs=1, use_cache=False,
            cache_dir=self.store_dir, manifest=False,
        )
        seconds = time.perf_counter() - start
        return seconds, results


def _close(got, want) -> bool:
    if isinstance(want, bool) or want is None:
        return got == want
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(want, float) and math.isnan(want):
            return isinstance(got, float) and math.isnan(got)
        return abs(got - want) <= max(1e-6 * abs(want), 1e-12)
    return got == want


def golden_mismatches(record: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    """Differences under the rule the golden test applies."""
    eid = want["id"]
    bad = [k for k in ("id", "claim", "supported") if record[k] != want[k]]
    if set(record["measured"]) != set(want["measured"]):
        bad.append("measured keys")
    else:
        bad += [f"measured.{k}" for k, v in want["measured"].items()
                if not _close(record["measured"][k], v)]
    if eid not in FLOAT_NOTES and record["notes"] != want["notes"]:
        bad.append("notes")
    return bad


def check_pass(suite: Suite, results, reference: List[str],
               checks: Checks) -> int:
    """Apply the correctness checks to one pass; returns failed records."""
    bad = set()
    records = []
    for r in results:
        ok = r.record is not None and r.record.supported is True
        if not checks.check("supported", ok, f"{r.experiment_id}: {r.error}"):
            bad.add(r.experiment_id)
        records.append(r.record.to_dict() if r.record is not None else None)
    if suite.golden is not None:
        for rec in records:
            if rec is None or rec["id"] not in suite.golden:
                continue
            diff = golden_mismatches(rec, suite.golden[rec["id"]])
            if not checks.check("golden_seed0", not diff,
                                f"{rec['id']}: {diff}"):
                bad.add(rec["id"])
    blob = json.dumps(records, sort_keys=True)
    if reference:
        if not checks.check("identical_passes", blob == reference[0],
                            "records differ between passes"):
            bad.update(r.experiment_id for r in results)
    else:
        reference.append(blob)
    return len(bad)


def prepare(workload: str, seed: int, smoke: bool) -> Suite:
    return Suite(seed, smoke)


def close(suite: Suite) -> None:
    pass


def measure(suite: Suite, seconds: float, trace: bool) -> Dict[str, Any]:
    names = ["supported", "identical_passes"]
    if suite.golden is not None:
        names.append("golden_seed0")
    checks = Checks(*names)
    reference: List[str] = []
    times: List[float] = []
    attempted = failed = 0
    out: Dict[str, Any] = {}
    deadline = Deadline(seconds)

    def one(instrument=None):
        nonlocal attempted, failed
        tracer = layers.install(instrument) if instrument else None
        try:
            sec, results = suite.one_pass()
        finally:
            if tracer is not None:
                tracer.uninstall()
        attempted += len(results)
        failed += check_pass(suite, results, reference, checks)
        return sec

    if not trace:
        # Every pass is one sample; at least two so passes can be compared.
        while len(times) < 2 or not deadline.passed():
            times.append(one())
    else:
        # Untraced, count-only and timed passes over the same inputs.
        times.append(one())
        counting = layers.Tracer(timing=False)
        one(counting)
        tracer = layers.Tracer(timing=True)
        traced = one(tracer)
        out["trace_overhead_ratio"] = traced / times[0]
        out["snapshots"] = [tracer.snapshot()]
        out["count_snapshots"] = [counting.snapshot()]
        out["labels"] = {tracer.pid: "benchmark (paper-suite)"}
    out.update({
        "op_seconds": times,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "ops_label": "cold pass over %d experiments" % len(suite.ids),
        "named_metrics": {"suite_s": (statistics.median(times), "s")},
    })
    return out
