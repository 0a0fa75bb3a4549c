"""Sweep failure containment and cache recovery.

A long sweep must survive a point that raises or whose worker dies: the
point is recorded as failed in the results and the stored manifest, never cached,
and every other point completes.  Stale or corrupt cache entries are
likewise never served -- they fall back to re-execution.
"""

import os

from repro.scenario import get_scenario, run_sweep
from repro.scenario import sweep as sweep_mod
from repro.store import RunStore

# Captured at import time so the crashing stand-ins (inherited by forked
# workers) can still run the real points.
_REAL_POINT = sweep_mod._execute_point_timed


def _raise_on_marker(scenario_json):
    # The point name ("tiny/n_oss=4") is part of the canonical scenario
    # JSON handed to workers, so it doubles as the sabotage marker.
    if "n_oss=4" in scenario_json:
        raise ValueError("synthetic point failure")
    return _REAL_POINT(scenario_json)


def _crash_on_marker(scenario_json):
    if "n_oss=4" in scenario_json:
        os._exit(42)  # kill the worker process outright
    return _REAL_POINT(scenario_json)


def _tiny():
    return get_scenario("tiny", 0)


def test_sequential_point_failure_recorded(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep_mod, "_execute_point_timed", _raise_on_marker)
    results = run_sweep(
        _tiny(), {"n_oss": [2, 4]}, jobs=1, cache_dir=tmp_path / "cache",
    )
    ok, failed = results
    assert ok.outcome is not None and not ok.failed
    assert failed.failed and failed.outcome is None
    assert "ValueError" in failed.error
    store = RunStore(tmp_path / "cache")
    run, = store.runs()
    points = {p["name"]: p for p in store.get(run["manifest"]).payload["points"]}
    assert "synthetic" in points["tiny/n_oss=4"]["error"]
    assert "error" not in points["tiny/n_oss=2"]
    # Only the successful point was cached.
    assert len(RunStore(tmp_path / "cache").refs("sweep/*")) == 1


def test_worker_crash_recorded_others_complete(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep_mod, "_execute_point_timed", _crash_on_marker)
    results = run_sweep(
        _tiny(), {"n_oss": [2, 4, 8]}, jobs=2, cache_dir=tmp_path / "cache",
    )
    by_name = {r.point.name: r for r in results}
    assert by_name["tiny/n_oss=4"].failed
    assert "crash" in by_name["tiny/n_oss=4"].error
    assert by_name["tiny/n_oss=2"].outcome is not None
    assert by_name["tiny/n_oss=8"].outcome is not None
    # Failed point never cached; healthy points are.
    assert len(RunStore(tmp_path / "cache").refs("sweep/*")) == 2
    # Once the sabotage is lifted, the failed point recomputes cleanly.
    monkeypatch.setattr(sweep_mod, "_execute_point_timed", _REAL_POINT)
    again = run_sweep(
        _tiny(), {"n_oss": [2, 4, 8]}, jobs=1, cache_dir=tmp_path / "cache",
    )
    by_name = {r.point.name: r for r in again}
    assert by_name["tiny/n_oss=2"].cached
    assert by_name["tiny/n_oss=8"].cached
    assert not by_name["tiny/n_oss=4"].cached
    assert by_name["tiny/n_oss=4"].outcome is not None


# -- cache recovery -----------------------------------------------------------

def _single_sweep_ref(cache):
    """The one ``sweep/...`` ref of a single-point sweep cache."""
    (name, entry), = RunStore(cache).refs("sweep/*")
    return name, entry


def test_corrupt_sweep_cache_entry_recomputed(tmp_path):
    cache = tmp_path / "cache"
    first = run_sweep(_tiny(), {"n_oss": [2]}, cache_dir=cache)
    _, entry = _single_sweep_ref(cache)
    RunStore(cache).object_path(entry["digest"]).write_text("{not json")
    second = run_sweep(_tiny(), {"n_oss": [2]}, cache_dir=cache)
    assert not second[0].cached
    assert second[0].payload == first[0].payload


def test_stale_sweep_cache_entry_recomputed(tmp_path):
    cache = tmp_path / "cache"
    first = run_sweep(_tiny(), {"n_oss": [2]}, cache_dir=cache)
    name, entry = _single_sweep_ref(cache)
    # Rewrite the ref as if it came from another source tree.
    entry["meta"]["source_digest"] = "f" * 64
    RunStore(cache).set_ref(name, entry["digest"], meta=entry["meta"])
    second = run_sweep(_tiny(), {"n_oss": [2]}, cache_dir=cache)
    assert not second[0].cached
    assert second[0].payload == first[0].payload


def test_truncated_outcome_in_cache_recomputed(tmp_path):
    cache = tmp_path / "cache"
    first = run_sweep(_tiny(), {"n_oss": [2]}, cache_dir=cache)
    _, entry = _single_sweep_ref(cache)
    path = RunStore(cache).object_path(entry["digest"])
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])  # truncated write, valid prefix
    second = run_sweep(_tiny(), {"n_oss": [2]}, cache_dir=cache)
    assert not second[0].cached
    assert second[0].payload == first[0].payload
    # The recomputation healed the object: full bytes, verifiable again.
    assert RunStore(cache).get(entry["digest"]).kind == "sweep_point"
