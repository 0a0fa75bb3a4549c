"""StackSpec.engine and the scale_write scenario routing."""

import json

import pytest

from repro.scenario import (
    ScenarioError,
    ScenarioSpec,
    StackSpec,
    WorkloadSpec,
    get_scenario,
    run_scenario,
)


# ---------------------------------------------------------------------------
# StackSpec.engine
# ---------------------------------------------------------------------------

def test_engine_default_is_sequential():
    assert StackSpec().engine == "sequential"


def test_engine_validation_is_strict():
    with pytest.raises(ScenarioError, match="unknown engine"):
        StackSpec(engine="warp").validate()
    for engine in ("sequential", "partitioned"):
        StackSpec(engine=engine).validate()


def test_conservative_engine_name_is_rejected_with_the_remaining_engines():
    # One partition is ``partitioned`` with ``--engine-workers 1``; the
    # old ``conservative`` name is gone from scenario JSON too.
    doc = ScenarioSpec(
        name="e", stack=StackSpec(engine="partitioned"),
        workloads=(WorkloadSpec("scale_write", 32, {"islands": 2}),),
    ).to_dict()
    doc["stack"]["engine"] = "conservative"
    with pytest.raises(ScenarioError) as info:
        ScenarioSpec.from_json(json.dumps(doc)).validate()
    assert "unknown engine 'conservative'" in str(info.value)
    assert "('sequential', 'partitioned')" in str(info.value)


def test_engine_default_omitted_from_serialization():
    # Digest stability: a default-engine stack serializes exactly as it
    # did before the field existed.
    assert "engine" not in StackSpec().to_dict()
    assert StackSpec(engine="partitioned").to_dict()["engine"] == "partitioned"


def test_engine_round_trips_through_json():
    spec = ScenarioSpec(
        name="e",
        stack=StackSpec(engine="partitioned"),
        workloads=(WorkloadSpec("ior", 2),),
    )
    back = ScenarioSpec.from_json(spec.to_json())
    assert back.stack.engine == "partitioned"
    assert back.digest() == spec.digest()


def test_engine_not_in_stack_builder_kwargs():
    # The I/O-stack builder has no notion of a DES engine.
    assert "engine" not in StackSpec(engine="partitioned").kwargs()


# ---------------------------------------------------------------------------
# run_scenario routing
# ---------------------------------------------------------------------------

def test_scale_scenario_engine_invariant_payload():
    # The whole-scenario result payload must be bit-identical across
    # engines: this is the user-facing face of the equivalence contract.
    spec = get_scenario("scale-tiny", seed=0)
    payloads = {
        (engine, workers): run_scenario(
            spec, engine=engine, engine_workers=workers).to_dict()
        for engine in ("sequential", "partitioned")
        for workers in (1, 2)
    }
    assert len({json.dumps(p, sort_keys=True) for p in payloads.values()}) == 1


def test_scale_scenario_digests_identical_across_engines():
    spec = get_scenario("scale-tiny", seed=3)
    digests = set()
    for engine, workers in (("sequential", None), ("partitioned", 1),
                            ("partitioned", 2)):
        run = run_scenario(spec, engine=engine, engine_workers=workers)
        assert len(run.scale_results) == 1
        digests.add(run.scale_results[0].digest)
    assert len(digests) == 1


def test_one_partition_reports_what_the_conservative_arm_did():
    # ``--engine partitioned --engine-workers 1`` replaces the removed
    # ``conservative`` engine: same digest and the same window accounting
    # the conservative arm printed for scale-tiny at seed 0.
    run = run_scenario(get_scenario("scale-tiny", seed=0),
                       engine="partitioned", engine_workers=1)
    (result,) = run.scale_results
    assert result.engine == "partitioned"
    assert result.digest == (
        "5881ab1054963e7cd76725c72759b44163066a14757ba12f117157d20835995c")
    assert result.events == 32
    assert {k: result.stats[k] for k in
            ("windows", "critical_path", "partitions", "exchanged")} == {
        "windows": 10, "critical_path": 15, "partitions": 1, "exchanged": 0}


def test_declared_engine_drives_the_run():
    spec = get_scenario("scale-tiny", seed=0).replace(
        stack=StackSpec(engine="partitioned")
    )
    run = run_scenario(spec)
    assert run.scale_results[0].engine == "partitioned"


def test_engine_override_beats_declared_engine():
    spec = get_scenario("scale-tiny", seed=0).replace(
        stack=StackSpec(engine="partitioned")
    )
    run = run_scenario(spec, engine="sequential")
    assert run.scale_results[0].engine == "sequential"


def test_scale_run_advances_harness_clock():
    spec = get_scenario("scale-tiny", seed=0)
    run = run_scenario(spec)
    assert run.duration == run.results[0].duration > 0


def test_parallel_engine_rejects_non_scale_workloads():
    spec = get_scenario("tiny", seed=0)
    with pytest.raises(ScenarioError, match="cohort-capable"):
        run_scenario(spec, engine="partitioned")


def test_unknown_engine_override_rejected():
    spec = get_scenario("tiny", seed=0)
    with pytest.raises(ScenarioError, match="unknown engine"):
        run_scenario(spec, engine="quantum")


def test_concurrent_scale_write_rejected():
    spec = ScenarioSpec(
        name="bad",
        concurrent=True,
        workloads=(
            WorkloadSpec("scale_write", 32, {"islands": 2}),
            WorkloadSpec("ior", 2),
        ),
    )
    with pytest.raises(ScenarioError, match="concurrent"):
        run_scenario(spec)


def test_scale_write_bad_params_raise_scenario_error():
    spec = ScenarioSpec(
        name="bad-params",
        workloads=(WorkloadSpec("scale_write", 4, {"islands": 8}),),
    )
    with pytest.raises(ScenarioError, match="scale_write"):
        run_scenario(spec)


def test_scale_islands_default_to_platform_oss_count():
    spec = ScenarioSpec(
        name="defaults",
        workloads=(WorkloadSpec("scale_write", 32, {"rounds": 2}),),
    )
    run = run_scenario(spec)
    assert run.results[0].extra["islands"] == float(spec.platform.n_oss)
