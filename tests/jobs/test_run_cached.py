"""The one cached-task path: cache scan, miss execution, cache writes."""

from contextlib import nullcontext

import pytest

from repro.jobs import run_cached, source_digest
from repro.jobs import cache as cache_mod
from repro.store import RunArtifact, RunStore

SRC = "7" * 64

# Pool workers pickle task functions by reference: module level only.


def _timed_square(x):
    return {"x": x, "y": x * x}, 0.25, None


def _timed_fail_on_three(x):
    if x == 3:
        raise ValueError("bad three")
    return _timed_square(x)


def _ref(task):
    return f"test/{task}-{SRC[:16]}", {"task": task, "source_digest": SRC}


def _run(store, tasks, fn=_timed_square, jobs=1, **kwargs):
    kwargs.setdefault("payload", lambda task: int(task[1:]))
    return run_cached(
        tasks, fn, jobs, store=store, source_digest=SRC, ref=_ref,
        kind="sweep_point", **kwargs,
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_outcomes_come_back_in_task_order(tmp_path, jobs):
    store = RunStore(tmp_path)
    _run(store, ["t2"])  # one hit in the middle of the task list
    outcomes = _run(store, ["t3", "t2", "t1"], jobs=jobs)
    assert [o.value["y"] for o in outcomes] == [9, 4, 1]
    assert [o.cached for o in outcomes] == [False, True, False]
    assert [o.seconds for o in outcomes] == [0.25, 0.0, 0.25]


def _decode(doc):
    doc["y"]  # a result without "y" is not one this front-end wrote
    return doc


def test_statuses_hit_miss_stale_corrupt(tmp_path):
    store = RunStore(tmp_path)
    tasks = ["t1", "t2", "t3", "t4"]
    assert [o.status for o in _run(store, tasks)] == ["miss"] * 4
    # t2: keyed on another source tree; t3: its object's bytes rotted;
    # t4: a clean artifact that the front-end's decode rejects.
    name, meta = _ref("t2")
    store.set_ref(name, store.get_ref(name)["digest"],
                  meta={**meta, "source_digest": "0" * 64})
    store.object_path(store.get_ref(_ref("t3")[0])["digest"]).write_text("{bad")
    name, meta = _ref("t4")
    store.set_ref(name, store.put(RunArtifact("sweep_point", {"z": 1})), meta=meta)
    outcomes = _run(store, tasks, decode=_decode)
    assert [o.status for o in outcomes] == ["hit", "stale", "corrupt", "corrupt"]
    assert [o.cached for o in outcomes] == [True, False, False, False]
    assert [o.value["y"] for o in outcomes] == [1, 4, 9, 16]
    # Re-executing healed every entry.
    assert all(o.cached for o in _run(store, tasks, decode=_decode))


def test_failures_are_returned_and_never_cached(tmp_path):
    store = RunStore(tmp_path)
    outcomes = _run(store, ["t1", "t3"], fn=_timed_fail_on_three)
    assert outcomes[0].value == {"x": 1, "y": 1}
    assert outcomes[1].failed and outcomes[1].value is None
    assert "bad three" in outcomes[1].error
    assert [n for n, _ in store.refs("test/*")] == [_ref("t1")[0]]
    retry = _run(store, ["t1", "t3"])
    assert [(o.cached, o.status) for o in retry] == [(True, "hit"), (False, "miss")]


def test_no_store_reads_and_writes_no_refs(tmp_path, monkeypatch):
    store = RunStore(tmp_path)
    _run(store, ["t1"])
    before = store.refs()
    monkeypatch.setattr(
        cache_mod, "load_ref_artifact",
        lambda *a, **k: pytest.fail("looked up a ref without a store"),
    )
    outcomes = _run(None, ["t1", "t2"])
    assert [(o.cached, o.status) for o in outcomes] == [(False, "miss")] * 2
    assert store.refs() == before


@pytest.mark.parametrize("jobs", [1, 2])
def test_hooks_receive_tasks_not_miss_indices(tmp_path, jobs):
    store = RunStore(tmp_path)
    _run(store, ["t1"])
    scanned, done, spans = [], [], []
    _run(
        store, ["t1", "t2", "t3"], jobs=jobs,
        on_scanned=lambda outcomes: scanned.append([o.cached for o in outcomes]),
        on_outcome=lambda task, outcome: done.append((task, outcome.value["y"])),
        span_factory=lambda task: spans.append(task) or nullcontext(),
    )
    assert scanned == [[True, False, False]]
    assert sorted(done) == [("t2", 4), ("t3", 9)]
    assert spans == ([] if jobs > 1 else ["t2", "t3"])


def test_fail_label_names_the_task_not_its_miss_index():
    with pytest.raises(RuntimeError, match="point t3 failed: .*bad three"):
        _run(None, ["t1", "t3"], fn=_timed_fail_on_three, jobs=2,
             fail_fast=True, fail_label=lambda task: f"point {task}")


def test_sweep_and_service_share_one_cache(tmp_path):
    """A point a sweep landed is a warm hit for the run service, at the
    same artifact address."""
    from repro.scenario import get_scenario, run_sweep
    from repro.service import RunService, ServiceConfig

    result, = run_sweep(get_scenario("tiny"), {"n_oss": [2]},
                        cache_dir=tmp_path / "store", manifest=False)
    service = RunService(ServiceConfig(
        store_dir=tmp_path / "store", source_digest=source_digest(),
    ))
    response = service._admit(
        {"scenario": "tiny", "tenant": "t", "grid": {"n_oss": [2]}}
    )
    job = response["job"]
    assert response["ok"] and job.warm == 1
    assert job.computations[0].artifact == result.artifact_digest
