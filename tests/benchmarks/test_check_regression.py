"""Smoke tests for the kernel regression harness.

``benchmarks/`` is not a package, so the script is loaded by file path.
``--smoke`` shrinks every workload (~2% scale, one round) and skips the
pass/fail gate, so these tests exercise the full harness -- timing loop,
report writing, baseline comparison plumbing -- in well under a second
without asserting anything about actual machine speed.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "check_regression.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_smoke_run_writes_report(harness, tmp_path):
    out = tmp_path / "report.json"
    rc = harness.main(["--smoke", "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["smoke"] is True
    assert report["ok"] is True
    assert set(report["median_seconds"]) == set(harness.BENCHMARKS)
    assert set(report["min_seconds"]) == set(harness.BENCHMARKS)
    for name, median in report["median_seconds"].items():
        assert median > 0
        assert report["min_seconds"][name] <= median


def test_smoke_skips_gate_even_with_impossible_baseline(harness, tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "reference_min": {name: 1e-12 for name in harness.BENCHMARKS},
    }))
    out = tmp_path / "report.json"
    rc = harness.main(["--smoke", "--baseline", str(baseline),
                       "--output", str(out)])
    assert rc == 0  # smoke mode never gates
    assert json.loads(out.read_text())["regressions"] == {}


def test_compare_flags_regressions(harness):
    current = {"a": 1.30, "b": 1.00}
    reference = {"a": 1.00, "b": 1.00}
    regressions = harness.compare(current, reference, tolerance=0.25)
    assert set(regressions) == {"a"}
    assert regressions["a"]["slowdown"] == pytest.approx(1.30)
    assert harness.compare(current, None, tolerance=0.25) == {}


def test_speedups_vs_seed(harness):
    assert harness.speedups({"a": 0.5}, {"a": 1.0}) == {"a": 2.0}
    assert harness.speedups({"a": 0.5}, None) == {}


def test_store_seeds_baseline_and_records_report(harness, tmp_path):
    """--store: the baseline migrates into the run store on first use and
    every report lands as a content-addressed ``bench`` artifact."""
    from repro.store import RunStore

    store_dir = tmp_path / "store"
    out = tmp_path / "report.json"
    rc = harness.main(["--smoke", "--output", str(out),
                       "--store", str(store_dir)])
    assert rc == 0
    store = RunStore(store_dir)
    baseline = store.get_ref(harness.BASELINE_REF)
    assert set(harness.BENCHMARKS) <= \
        set(store.get(baseline["digest"]).payload["reference_min"])
    latest = store.get_ref(harness.REPORT_REF)
    assert store.get(latest["digest"]).payload["smoke"] is True
    # Second run: the baseline is read from the store (same ref, same
    # digest), while bench/latest advances to the new report.
    rc = harness.main(["--smoke", "--output", str(out),
                       "--store", str(store_dir)])
    assert rc == 0
    assert store.get_ref(harness.BASELINE_REF)["digest"] == baseline["digest"]
    assert store.get_ref(harness.REPORT_REF)["digest"] != latest["digest"]


def test_committed_baseline_matches_benchmark_set(harness):
    baseline = json.loads(
        (SCRIPT.parent / "BENCH_BASELINE.json").read_text()
    )
    # 'seed' is the pre-optimization engine; scenario_probe_path was added
    # later and has no seed-era timing.
    assert set(baseline["seed"]) == set(harness.BENCHMARKS) - {
        "scenario_probe_path"
    }
    for key in ("reference", "reference_min"):
        assert set(harness.BENCHMARKS) == set(baseline[key]), key


# ---------------------------------------------------------------------------
# Scale tier
# ---------------------------------------------------------------------------

SCALE_ARM_NAMES = {
    "sequential_fast_path", "cohort_sequential", "conservative",
    "partitioned_serial",
}


def test_scale_tier_smoke_writes_report(harness, tmp_path):
    out = tmp_path / "scale.json"
    rc = harness.main(["--tier", "scale", "--smoke", "--scale", "0.002",
                       "--scale-output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["tier"] == "scale"
    assert report["smoke"] is True
    assert report["scale"] == 0.002  # explicit --scale wins over smoke's 0.02
    assert report["ok"] is True
    assert set(report["arms"]) == SCALE_ARM_NAMES
    # Equivalence holds even in smoke mode: one digest across all arms.
    assert len({a["digest"] for a in report["arms"].values()}) == 1
    assert report["digest"] == report["arms"]["conservative"]["digest"]
    # The cohort arms collapse the per-rank event cascade.
    seq_events = report["arms"]["sequential_fast_path"]["events"]
    assert report["arms"]["cohort_sequential"]["events"] < seq_events
    # Crossover sweep covers ascending rank counts with every arm timed.
    sweep = report["crossover"]["sweep"]
    ranks = [p["ranks"] for p in sweep]
    assert ranks == sorted(ranks) and len(ranks) >= 2
    for point in sweep:
        assert point["sequential_fast_path"] > 0
        assert point["partitioned_serial"] > 0


def test_scale_tier_smoke_skips_gate(harness, tmp_path):
    baseline = tmp_path / "scale_baseline.json"
    baseline.write_text(json.dumps({
        "reference_min": {name: 1e-12 for name in SCALE_ARM_NAMES},
    }))
    out = tmp_path / "scale.json"
    rc = harness.main(["--tier", "scale", "--smoke", "--scale", "0.002",
                       "--scale-baseline", str(baseline),
                       "--scale-output", str(out)])
    assert rc == 0  # smoke mode never gates on timings
    report = json.loads(out.read_text())
    assert report["regressions"] == {}
    assert report["gate_failures"] == []


def test_tier_all_runs_every_tier(harness, tmp_path):
    kernel_out = tmp_path / "kernel.json"
    scale_out = tmp_path / "scale.json"
    service_out = tmp_path / "service.json"
    rc = harness.main(["--tier", "all", "--smoke", "--scale", "0.002",
                       "--output", str(kernel_out),
                       "--scale-output", str(scale_out),
                       "--service-output", str(service_out)])
    assert rc == 0
    assert set(json.loads(kernel_out.read_text())["median_seconds"]) == \
        set(harness.BENCHMARKS)
    assert json.loads(scale_out.read_text())["tier"] == "scale"
    assert json.loads(service_out.read_text())["tier"] == "service"


def test_default_tier_leaves_scale_report_untouched(harness, tmp_path):
    out = tmp_path / "kernel.json"
    scale_out = tmp_path / "scale.json"
    rc = harness.main(["--smoke", "--output", str(out),
                       "--scale-output", str(scale_out)])
    assert rc == 0
    assert out.exists() and not scale_out.exists()


def test_committed_scale_baseline_matches_arm_set(harness):
    baseline = json.loads(
        (SCRIPT.parent / "BENCH_SCALE_BASELINE.json").read_text()
    )
    for key in ("reference", "reference_min"):
        assert set(baseline[key]) == SCALE_ARM_NAMES, key


# ---------------------------------------------------------------------------
# Service tier
# ---------------------------------------------------------------------------

def test_service_tier_smoke_writes_report(harness, tmp_path):
    out = tmp_path / "service.json"
    rc = harness.main(["--tier", "service", "--smoke", "--scale", "0.01",
                       "--service-output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["tier"] == "service"
    assert report["smoke"] is True
    assert report["gate_failures"] == []
    # The correctness gates hold at any scale: warm storm served
    # entirely from the store, dedup storm computed exactly once,
    # store intact after all load.
    assert report["hit_ratio"] == 1.0
    assert report["dedup"]["server_delta"]["computed"] == 1
    assert report["store_verify_problems"] == 0
    assert report["warm"]["requests"] == report["tenants"]
    assert report["warm"]["requests_failed"] == 0
    assert report["latency_ms"]["p99"] >= report["latency_ms"]["p50"] > 0


def test_service_tier_smoke_skips_latency_gate(harness, tmp_path):
    baseline = tmp_path / "service_baseline.json"
    baseline.write_text(json.dumps({
        "reference_ms": {"p50_ms": 1e-12, "p99_ms": 1e-12},
    }))
    out = tmp_path / "service.json"
    rc = harness.main(["--tier", "service", "--smoke", "--scale", "0.01",
                       "--service-baseline", str(baseline),
                       "--service-output", str(out)])
    assert rc == 0  # smoke mode never gates on timings
    assert json.loads(out.read_text())["regressions"] == {}


def test_committed_service_baseline_feeds_the_gate(harness):
    baseline = json.loads(
        (SCRIPT.parent / "BENCH_SERVICE_BASELINE.json").read_text()
    )
    assert set(baseline["reference_ms"]) == {"p50_ms", "p99_ms"}
    assert baseline["tenants"] >= 1000


def test_committed_service_report_supports_the_claim():
    """BENCH_PR8.json is a committed artifact: re-validate its claims."""
    report = json.loads(
        (SCRIPT.parents[1] / "BENCH_PR8.json").read_text()
    )
    assert report["tier"] == "service"
    assert report["smoke"] is False and report["scale"] == 1.0
    assert report["ok"] is True and report["gate_failures"] == []
    assert report["tenants"] >= 1000
    assert report["hit_ratio"] == 1.0
    assert report["warm"]["requests_failed"] == 0
    assert report["dedup"]["server_delta"]["computed"] == 1
    assert report["latency_ms"]["p99"] >= report["latency_ms"]["p50"] > 0


def test_committed_scale_report_supports_the_claim():
    """BENCH_PR6.json is a committed artifact: re-validate its claims."""
    report = json.loads(
        (SCRIPT.parents[1] / "BENCH_PR6.json").read_text()
    )
    assert report["tier"] == "scale"
    assert report["smoke"] is False and report["scale"] == 1.0
    assert report["ok"] is True and report["gate_failures"] == []
    assert report["config"]["ranks"] >= 100_000
    assert report["arms"]["sequential_fast_path"]["events"] >= 2_000_000
    assert report["speedup_vs_sequential"]["partitioned_serial"] >= 2.0
    assert len({a["digest"] for a in report["arms"].values()}) == 1
    assert report["crossover"]["crossover_ranks"] is not None


def test_slow_arms_are_timed_every_round(harness, monkeypatch):
    """An arm that takes 30 s per run still gets ``rounds`` samples: its
    "min" must never be a single run."""
    clock = iter(range(0, 10_000, 30))
    monkeypatch.setattr(harness, "time",
                        SimpleNamespace(perf_counter=lambda: next(clock)))
    calls = []
    timing, result = harness._time_arm(lambda: calls.append(1) or "r", 4)
    assert len(calls) == 4
    assert result == "r"
    assert timing == {"median": 30, "min": 30}
