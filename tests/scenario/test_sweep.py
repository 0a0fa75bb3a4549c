"""Sweep tests: override paths, grid expansion, cached parallel execution."""

import itertools
import json

import pytest

from repro.cluster.platform import tiny_spec
from repro.scenario import (
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
    apply_overrides,
    expand_grid,
    get_scenario,
    load_sweep_manifest,
    run_sweep,
)
from repro.scenario.sweep import SWEEP_MANIFEST_NAME, SWEEP_SCHEMA, point_name

KiB = 1024
MiB = 1024 * 1024


def _base(**changes):
    defaults = dict(
        name="sweeptest",
        platform=tiny_spec(),
        workloads=(
            WorkloadSpec("ior", 2, {"block_size": 256 * KiB,
                                    "transfer_size": 64 * KiB}),
        ),
        seed=0,
    )
    defaults.update(changes)
    return ScenarioSpec(**defaults)


# -- apply_overrides ----------------------------------------------------------

def test_bare_names_resolve_by_layer():
    spec = apply_overrides(_base(), {
        "n_oss": 4,                  # platform field
        "stripe_size": 2 * MiB,      # storage field
        "cb_nodes": 2,               # stack field
        "n_ranks": 4,                # workload field (every workload)
        "transfer_size": 128 * KiB,  # workload param (every workload)
    })
    assert spec.platform.n_oss == 4
    assert spec.storage.stripe_size == 2 * MiB
    assert spec.stack.cb_nodes == 2
    assert spec.workloads[0].n_ranks == 4
    assert spec.workloads[0].params["transfer_size"] == 128 * KiB


def test_dotted_paths_pin_the_layer():
    spec = apply_overrides(_base(), {
        "platform.n_oss": 8,
        "storage.device": "ssd",
        "stack.read_cache_bytes": MiB,
        "workloads.0.n_ranks": 3,
        "workloads.0.params.block_size": MiB,
        "seed": 9,
    })
    assert spec.platform.n_oss == 8
    assert spec.storage.device == "ssd"
    assert spec.stack.read_cache_bytes == MiB
    assert spec.workloads[0].n_ranks == 3
    assert spec.workloads[0].params["block_size"] == MiB
    assert spec.seed == 9


def test_bare_param_reaches_every_workload():
    spec = apply_overrides(
        _base(workloads=(_base().workloads[0],) * 2), {"stripe_count": 4}
    )
    assert all(w.params["stripe_count"] == 4 for w in spec.workloads)


def test_apply_overrides_does_not_mutate_base():
    base = _base()
    apply_overrides(base, {"n_oss": 8, "transfer_size": MiB})
    assert base.platform.n_oss == tiny_spec().n_oss
    assert base.workloads[0].params["transfer_size"] == 64 * KiB


@pytest.mark.parametrize("key", [
    "platform.no_such_field",
    "storage.bogus",
    "workloads.0.bogus",
    "workloads.9.n_ranks",
    "workloads.0.params",
    "platform.n_oss.deeper",
])
def test_bad_override_paths_rejected(key):
    with pytest.raises(ScenarioError):
        apply_overrides(_base(), {key: 1})


def test_bare_name_without_workloads_rejected():
    with pytest.raises(ScenarioError, match="declares no workloads"):
        apply_overrides(_base(workloads=()), {"transfer_size": MiB})


# -- expand_grid --------------------------------------------------------------

def test_expand_grid_product_and_order():
    grid = {"n_oss": (2, 4), "stripe_count": (1, 2, 4)}
    points = expand_grid(_base(), grid)
    assert len(points) == 6
    # First key outermost -- the nested-loop order a hand sweep would use.
    assert [p.overrides for p in points] == [
        {"n_oss": a, "stripe_count": b}
        for a, b in itertools.product((2, 4), (1, 2, 4))
    ]
    for p in points:
        assert p.scenario.name == p.name
        assert p.name.startswith("sweeptest/")


def test_point_names_are_readable():
    name = point_name(_base(), {"platform.n_oss": 4, "random_offsets": True})
    assert name == "sweeptest/n_oss=4,random_offsets=true"


def test_empty_grid_is_the_base_point():
    points = expand_grid(_base(), {})
    assert len(points) == 1
    assert points[0].name == "sweeptest"
    assert points[0].overrides == {}


def test_empty_value_list_rejected():
    with pytest.raises(ScenarioError, match="empty value list"):
        expand_grid(_base(), {"n_oss": ()})


def test_invalid_point_fails_expansion():
    with pytest.raises(ScenarioError):
        expand_grid(_base(), {"n_ranks": (1, 0)})


# -- run_sweep ----------------------------------------------------------------

GRID = {"n_oss": (2, 4), "stripe_count": (1, 2)}


def test_run_sweep_computes_then_caches(tmp_path):
    cache_dir = tmp_path / "cache"
    results = run_sweep(_base(), GRID, cache_dir=cache_dir)
    assert len(results) == 4
    assert all(not r.cached for r in results)
    assert all(r.outcome["duration"] > 0 for r in results)
    assert all(r.outcome["bytes_written"] > 0 for r in results)

    again = run_sweep(_base(), GRID, cache_dir=cache_dir)
    assert all(r.cached for r in again)
    assert [r.outcome for r in again] == [r.outcome for r in results]


def test_run_sweep_parallel_matches_serial(tmp_path):
    serial = run_sweep(_base(), GRID, jobs=1, use_cache=False, manifest=False)
    fanned = run_sweep(_base(), GRID, jobs=4, use_cache=False, manifest=False)
    assert [r.outcome for r in serial] == [r.outcome for r in fanned]


def test_run_sweep_manifest_provenance(tmp_path):
    cache_dir = tmp_path / "cache"
    results = run_sweep(_base(), GRID, cache_dir=cache_dir)
    doc = load_sweep_manifest(tmp_path / SWEEP_MANIFEST_NAME)
    assert doc["schema"] == SWEEP_SCHEMA
    assert doc["base_scenario"] == "sweeptest"
    assert doc["base_digest"] == _base().digest()
    assert doc["grid"] == {"n_oss": [2, 4], "stripe_count": [1, 2]}
    assert len(doc["points"]) == len(results)
    for entry, r in zip(doc["points"], results):
        assert entry["name"] == r.point.name
        assert entry["overrides"] == r.point.overrides
        assert entry["scenario_digest"] == r.point.scenario.digest()
        assert entry["cached"] is False
        assert entry["result_sha256"]
    assert "host" in doc and "wall_seconds" in doc


def test_run_sweep_seed_rebases(tmp_path):
    results = run_sweep(
        _base().with_seed(7), {"n_oss": (2,)},
        cache_dir=tmp_path / "cache", manifest_path=tmp_path / "m.json",
    )
    assert results[0].outcome["seed"] == 7
    doc = load_sweep_manifest(tmp_path / "m.json")
    assert doc["base_digest"] == _base().with_seed(7).digest()


def test_run_sweep_no_cache_recomputes(tmp_path):
    cache_dir = tmp_path / "cache"
    run_sweep(_base(), {"n_oss": (2,)}, cache_dir=cache_dir)
    again = run_sweep(
        _base(), {"n_oss": (2,)}, use_cache=False, cache_dir=cache_dir,
        manifest=False,
    )
    assert not again[0].cached


def test_run_sweep_rejects_bad_jobs():
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(_base(), {}, jobs=0, manifest=False, use_cache=False)


def test_load_sweep_manifest_rejects_other_schemas(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"schema": "something/else"}))
    with pytest.raises(ValueError, match="not a scenario sweep manifest"):
        load_sweep_manifest(path)


def test_sweep_reproduces_striping_speedup(tmp_path):
    """The declared sweep reproduces A3's physics: wider stripes run faster."""
    base = _base(workloads=(
        WorkloadSpec("ior", 2, {"block_size": 4 * MiB, "transfer_size": MiB}),
    ))
    results = run_sweep(
        base, {"stripe_count": (1, 4)},
        cache_dir=tmp_path / "cache", manifest=False,
    )
    assert results[0].outcome["duration"] > results[1].outcome["duration"]


@pytest.mark.parametrize("values", [(2, 2), (2, 4, 2.0)])
def test_repeated_axis_value_rejected(values, tmp_path):
    # Each repeat would run the same point again under the same name.
    with pytest.raises(ScenarioError, match="repeats value"):
        expand_grid(_base(), {"n_oss": values})
    with pytest.raises(ScenarioError, match="repeats value"):
        run_sweep(_base(), {"n_oss": values}, cache_dir=tmp_path / "store")
    assert not (tmp_path / "sweep-progress.json").exists()
