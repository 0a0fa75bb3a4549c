"""Runner failure containment: crashes and exceptions become recorded
results, not aborted invocations."""

import os

from repro.experiments import runner as runner_mod
from repro.experiments.runner import run_experiments
from repro.store import RunStore

# Captured at import time so the crashing stand-ins (inherited by forked
# workers) can still run the real tasks.
_REAL_EXECUTE = runner_mod._execute


def _raise_on_e3(task):
    if task[0] == "E3":
        raise ValueError("synthetic E3 failure")
    return _REAL_EXECUTE(task)


def _crash_on_e3(task):
    if task[0] == "E3":
        os._exit(42)  # kill the worker process outright
    return _REAL_EXECUTE(task)


def test_sequential_failure_recorded_not_raised(tmp_path, monkeypatch):
    monkeypatch.setattr(runner_mod, "_execute", _raise_on_e3)
    results = run_experiments(
        ids=["E3", "C1"], jobs=1, use_cache=True, cache_dir=tmp_path,
        digest="a" * 64,
    )
    failed, ok = results
    assert failed.failed and failed.record is None
    assert "ValueError" in failed.error and "synthetic" in failed.error
    assert ok.record is not None and ok.record.id == "C1"
    # The failure is in the stored manifest, and never cached.
    store = RunStore(tmp_path)
    run, = store.runs()
    tasks = {t["id"]: t for t in store.get(run["manifest"]).payload["tasks"]}
    assert "synthetic" in tasks["E3"]["error"]
    assert "error" not in tasks["C1"]
    records = tmp_path / "refs" / "records"
    assert list(records.glob("E3-*.json")) == []
    assert len(list(records.glob("C1-*.json"))) == 1


def test_worker_crash_recorded_others_complete(tmp_path, monkeypatch):
    monkeypatch.setattr(runner_mod, "_execute", _crash_on_e3)
    results = run_experiments(
        ids=["E3", "C1", "E1"], jobs=2, use_cache=False, cache_dir=tmp_path,
    )
    by_id = {r.experiment_id: r for r in results}
    assert by_id["E3"].failed
    assert "crash" in by_id["E3"].error
    assert by_id["C1"].record is not None and by_id["C1"].record.supported
    assert by_id["E1"].record is not None and by_id["E1"].record.supported


def test_failed_task_recomputes_once_fixed(tmp_path, monkeypatch):
    monkeypatch.setattr(runner_mod, "_execute", _raise_on_e3)
    first = run_experiments(ids=["E3"], jobs=1, use_cache=True,
                            cache_dir=tmp_path, digest="a" * 64,
                            manifest=False)
    assert first[0].failed
    monkeypatch.setattr(runner_mod, "_execute", _REAL_EXECUTE)
    second = run_experiments(ids=["E3"], jobs=1, use_cache=True,
                             cache_dir=tmp_path, digest="a" * 64,
                             manifest=False)
    assert not second[0].cached  # the failure was never cached
    assert second[0].record is not None and second[0].record.supported
