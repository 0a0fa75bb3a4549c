"""Run-service integration: coalescing, warm hits, admission, chaos.

The service is started on an ephemeral port inside each test's own
event loop; the pool-side task function is monkeypatched at module
level in :mod:`repro.service.server` (workers fork after the patch, so
they inherit it -- the same idiom the sweep failure tests use).
"""

import asyncio
import contextlib
import json
import os
import time
import types

import pytest

import repro.jobs.ledger as ledger_mod
import repro.service.server as server_mod
from repro.jobs import store_ref_artifact
from repro.scenario import get_scenario
from repro.scenario.sweep import point_ref_name
from repro.service import RunService, ServiceClient, ServiceConfig
from repro.store import RunArtifact, RunStore, scrub_store

SRC = "5" * 64  # pinned source digest: no tree scan, stable cache keys

# -- pool-side task doubles (module level: pickled by reference) --------------

def _fake_point_task(scenario_json):
    spec = json.loads(scenario_json)
    payload = {
        "scenario": spec.get("name"),
        "seed": spec.get("seed"),
        "duration": 1.0,
        "bytes_written": 1000,
    }
    return payload, 0.01, None


def _slow_point_task(scenario_json):
    time.sleep(1.0)
    return _fake_point_task(scenario_json)


def _raise_point_task(scenario_json):
    raise ValueError("synthetic task failure")


_CRASH_FLAG_ENV = "REPRO_TEST_SERVICE_CRASH_FLAG"


def _crash_once_task(scenario_json):
    """Kill the worker on the first execution, succeed on the re-queue."""
    flag = os.environ[_CRASH_FLAG_ENV]
    if not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(0.3)  # let every coalescing submission join first
        os._exit(42)
    return _fake_point_task(scenario_json)


# -- harness ------------------------------------------------------------------

@contextlib.asynccontextmanager
async def _service(tmp_path, **overrides):
    config = ServiceConfig(
        store_dir=tmp_path / "store",
        workers=overrides.pop("workers", 2),
        source_digest=overrides.pop("source_digest", SRC),
        **overrides,
    )
    service = RunService(config)
    await service.start()
    client = await ServiceClient.connect(service.host, service.port)
    try:
        yield service, client
    finally:
        await client.close()
        await service.stop()


def _sweep_point_objects(store):
    return [d for d in store.digests() if store.get(d).kind == "sweep_point"]


# -- compute / warm / coalesce ------------------------------------------------

def test_submit_computes_lands_artifact_and_run_doc(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def main():
        async with _service(tmp_path) as (service, client):
            doc = await client.submit("tiny", tenant="alice")
            assert doc["ok"] and doc["state"] == "done"
            assert doc["kind"] == "scenario"
            assert doc["warm"] == 0 and doc["coalesced"] == 0
            task = doc["tasks"][0]
            assert task["state"] == "done" and task["artifact"]
            assert doc["run_id"].startswith("service-")

            store = service.store
            assert store.verify() == []
            # Cached under the same ref scheme the sweep path uses.
            ref = store.get_ref(point_ref_name(task["digest"], SRC))
            assert ref["digest"] == task["artifact"]
            runs = store.runs()
            assert len(runs) == 1 and runs[0]["kind"] == "service"
            # The job document itself is addressable.
            kinds = {store.get(d).kind for d in store.digests()}
            assert "service_job" in kinds

    asyncio.run(main())


def test_repeat_submission_is_a_warm_hit(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def main():
        async with _service(tmp_path) as (service, client):
            first = await client.submit("tiny", tenant="alice")
            second = await client.submit("tiny", tenant="bob")
            assert second["ok"] and second["warm"] == 1
            assert second["tasks"][0]["cached"] is True
            assert second["tasks"][0]["artifact"] == \
                first["tasks"][0]["artifact"]
            assert service.stats["computed"] == 1
            assert service.stats["warm_hits"] == 1
            # Warm-only jobs write nothing: still exactly one run doc.
            assert len(service.store.runs()) == 1

    asyncio.run(main())


def test_concurrent_identical_submissions_compute_once(tmp_path, monkeypatch):
    """The tentpole dedup guarantee: N simultaneous identical
    submissions -> one computation, N waiters, one artifact."""
    monkeypatch.setattr(server_mod, "_run_computation_task", _slow_point_task)
    n = 6

    async def main():
        async with _service(tmp_path) as (service, client):
            docs = await asyncio.gather(*[
                client.submit("tiny", tenant=f"tenant-{i}") for i in range(n)
            ])
            assert all(d["ok"] and d["state"] == "done" for d in docs)
            artifacts = {d["tasks"][0]["artifact"] for d in docs}
            assert len(artifacts) == 1
            assert service.stats["computed"] == 1
            assert service.stats["coalesced"] == n - 1
            assert service.stats["warm_hits"] == 0
            assert len(_sweep_point_objects(service.store)) == 1
            assert service.store.verify() == []

    asyncio.run(main())


def test_sweep_submission_expands_the_grid(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def main():
        async with _service(tmp_path) as (service, client):
            doc = await client.submit(
                "tiny", tenant="alice", grid={"n_oss": [2, 4]}
            )
            assert doc["ok"] and doc["kind"] == "sweep"
            assert doc["total"] == 2
            names = [t["name"] for t in doc["tasks"]]
            assert names == ["tiny/n_oss=2", "tiny/n_oss=4"]
            assert len(_sweep_point_objects(service.store)) == 2

    asyncio.run(main())


# -- chaos: worker death ------------------------------------------------------

def test_worker_kill_requeues_with_waiters_and_never_poisons_the_cache(
    tmp_path, monkeypatch
):
    """A worker killed mid-job: the computation is re-queued with every
    coalesced waiter intact, nothing partial is cached, and the retry's
    artifact is the one the cache serves."""
    flag = tmp_path / "crashed-once"
    monkeypatch.setenv(_CRASH_FLAG_ENV, str(flag))
    monkeypatch.setattr(server_mod, "_run_computation_task", _crash_once_task)
    n = 4

    async def main():
        async with _service(tmp_path, workers=1) as (service, client):
            docs = await asyncio.gather(*[
                client.submit("tiny", tenant=f"tenant-{i}") for i in range(n)
            ])
            assert all(d["ok"] and d["state"] == "done" for d in docs)
            assert service.stats["requeued"] == 1
            assert service.stats["computed"] == 1
            assert docs[0]["tasks"][0]["attempts"] == 1
            artifacts = {d["tasks"][0]["artifact"] for d in docs}
            assert len(artifacts) == 1
            assert flag.exists()  # the crash really happened
            store = service.store
            assert store.verify() == []
            assert len(_sweep_point_objects(store)) == 1
            ref = store.get_ref(
                point_ref_name(docs[0]["tasks"][0]["digest"], SRC)
            )
            assert ref["digest"] == artifacts.pop()

    asyncio.run(main())


def test_failed_computation_is_reported_and_never_cached(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(server_mod, "_run_computation_task", _raise_point_task)

    async def main():
        async with _service(tmp_path) as (service, client):
            doc = await client.submit("tiny", tenant="alice")
            assert doc["ok"] is False and doc["state"] == "failed"
            assert "ValueError" in doc["tasks"][0]["error"]
            assert "synthetic task failure" in doc["tasks"][0]["error"]
            store = service.store
            assert store.refs() == []  # nothing partial was ever put
            assert _sweep_point_objects(store) == []
            assert store.verify() == []
            assert service.stats["failed"] == 1

    asyncio.run(main())


# -- admission control (no network needed: _admit is synchronous) -------------

def _admitted(service, **req):
    return service._admit({"scenario": "tiny", "tenant": "t", **req})


def test_backpressure_rejects_when_the_queue_is_full(tmp_path):
    service = RunService(ServiceConfig(
        store_dir=tmp_path / "store", queue_limit=1, source_digest=SRC,
    ))
    service._queue.push("other", object())
    response = _admitted(service)
    assert response["ok"] is False
    assert response["reason"] == "backpressure"
    assert response["retry"] is True
    assert service.stats["rejected_backpressure"] == 1


def test_quota_rejects_oversized_tenant_submissions(tmp_path):
    service = RunService(ServiceConfig(
        store_dir=tmp_path / "store", tenant_quota=1, source_digest=SRC,
    ))
    response = _admitted(service, grid={"n_oss": [2, 4]})  # 2 fresh tasks
    assert response["ok"] is False
    assert response["reason"] == "quota"
    assert response["retry"] is True
    assert service.stats["rejected_quota"] == 1


def test_warm_tasks_do_not_consume_quota_or_queue(tmp_path):
    service = RunService(ServiceConfig(
        store_dir=tmp_path / "store", tenant_quota=0, queue_limit=0,
        source_digest=SRC,
    ))
    spec = get_scenario("tiny")
    store_ref_artifact(
        service.store,
        point_ref_name(spec.digest(), SRC),
        RunArtifact.from_sweep_point({"duration": 1.0}),
        meta={"source_digest": SRC},
    )
    response = _admitted(service)
    assert response["ok"] is True
    job = response["job"]
    assert job.warm == 1 and job.state == "done"
    assert len(service._queue) == 0


def test_bad_request_is_rejected_without_retry(tmp_path):
    service = RunService(ServiceConfig(
        store_dir=tmp_path / "store", source_digest=SRC,
    ))
    response = service._admit({"scenario": 12345, "tenant": "t"})
    assert response["ok"] is False
    assert response["reason"] == "bad-request"
    assert "retry" not in response


# -- cancel -------------------------------------------------------------------

def test_cancel_spares_computations_other_tenants_still_want(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(server_mod, "_run_computation_task", _slow_point_task)

    async def main():
        async with _service(tmp_path, workers=1) as (service, client):
            running = await client.submit("tiny", tenant="a", wait=False)
            # Distinct scenario, queued behind the busy worker; two
            # tenants coalesce on it.
            queued_b = await client.submit("tiny", tenant="b", seed=7,
                                           wait=False)
            queued_c = await client.submit("tiny", tenant="c", seed=7,
                                           wait=False)
            assert queued_c["coalesced"] == 1

            # b alone cannot drop the shared computation...
            response = await client.cancel(job_id=queued_b["job_id"])
            assert response["dropped"] == 0
            # ...but cancelling the last waiter does.
            response = await client.cancel(job_id=queued_c["job_id"])
            assert response["dropped"] == 1

            done = await client.wait(running["job_id"])
            assert done["state"] == "done"
            b_status = await client.status(queued_b["job_id"])
            c_status = await client.status(queued_c["job_id"])
            assert b_status["state"] == "cancelled"
            assert c_status["state"] == "cancelled"
            assert service.stats["cancelled"] == 2

    asyncio.run(main())


# -- protocol and lifecycle ---------------------------------------------------

def test_unknown_op_and_ping(tmp_path):
    async def main():
        async with _service(tmp_path) as (_service_obj, client):
            pong = await client.ping()
            assert pong["ok"] and pong["pid"] == os.getpid()
            bad = await client.request("frobnicate")
            assert bad["ok"] is False and "unknown op" in bad["error"]

    asyncio.run(main())


def test_shutdown_op_finishes_the_ledger_and_removes_discovery(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def main():
        async with _service(tmp_path) as (service, client):
            await client.submit("tiny", tenant="alice")
            response = await client.shutdown()
            assert response["ok"] and response["stopping"]
            await asyncio.sleep(0.1)
            await service.stop()  # waits for the in-flight stop to finish
            return service

    service = asyncio.run(main())
    doc = json.loads(service.ledger_path.read_text())
    assert doc["schema"] == "repro.service.jobs/1"
    assert doc["finished"] is True
    assert doc["counts"]["done"] == 1
    job_rows = list(doc["jobs"].values())
    assert job_rows[0]["status"] == "done"
    assert job_rows[0]["tenant"] == "alice"
    assert not service.discovery_path.exists()


def test_idempotent_resubmission_joins_the_original_job(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def main():
        async with _service(tmp_path) as (service, client):
            first = await client.submit(
                "tiny", tenant="a", idempotency_key="k-1"
            )
            again = await client.submit(
                "tiny", tenant="a", idempotency_key="k-1"
            )
            other = await client.submit(
                "tiny", tenant="a", idempotency_key="k-2"
            )
            assert first["ok"] and "deduplicated" not in first
            assert again["deduplicated"] is True
            assert again["job_id"] == first["job_id"]
            assert other["job_id"] != first["job_id"]
            assert service.stats["jobs_submitted"] == 2
            assert service.stats["deduplicated"] == 1

    asyncio.run(main())


def test_drain_shutdown_finishes_running_work_then_closes_cleanly(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(server_mod, "_run_computation_task", _slow_point_task)

    async def main():
        async with _service(tmp_path, workers=1) as (service, client):
            running = await client.submit("tiny", tenant="a", wait=False)
            response = await client.shutdown(drain=True)
            assert response["ok"] and response["draining"]
            assert response["pending"] >= 1
            # New admissions are refused while draining, without retry.
            late = await client.submit("tiny", tenant="b", seed=9)
            assert late["ok"] is False
            assert late["reason"] == "draining"
            assert late["retry"] is False
            await service._stopped.wait()
            job = service._jobs[running["job_id"]]
            assert job.state == "done"
            return service

    service = asyncio.run(main())
    doc = json.loads(service.ledger_path.read_text())
    assert doc["finished"] is True
    assert doc["counts"]["done"] == 1
    # The drained close was clean: nothing is live for the next boot.
    from repro.service import JobJournal

    state = JobJournal.replay(service.config.resolved_journal_dir())
    assert state.clean_close is True
    assert state.live_jobs() == []


def test_bare_config_journals_and_reports_no_scrub_block(tmp_path):
    """One configuration: a service built from nothing but a store dir
    keeps its write-ahead journal, and neither the stats op nor the
    ledger carries a scrub block (scrubbing is `store scrub`'s job)."""
    config = ServiceConfig(store_dir=tmp_path / "store")

    async def main():
        service = RunService(config)
        await service.start()
        client = await ServiceClient.connect(service.host, service.port)
        try:
            stats = await client.stats()
            ledger = json.loads(service.ledger_path.read_text())
        finally:
            await client.close()
            await service.stop()
        return stats, ledger

    stats, ledger = asyncio.run(main())
    for doc in (stats, ledger):
        assert set(doc["journal"]) >= {"records", "fsync_batches",
                                       "compactions"}
        assert "scrub" not in doc
    assert config.resolved_journal_dir().is_dir()


def test_chaos_kill_is_gated_by_config(tmp_path):
    async def main():
        async with _service(tmp_path) as (_service_obj, client):
            response = await client.chaos_kill()
            assert response["ok"] is False
            assert "chaos ops disabled" in response["error"]

    asyncio.run(main())


def test_grid_with_a_repeated_value_is_a_bad_request(tmp_path):
    service = RunService(ServiceConfig(
        store_dir=tmp_path / "store", source_digest=SRC,
    ))
    response = _admitted(service, grid={"n_oss": [2, 2]})
    assert response["ok"] is False
    assert response["reason"] == "bad-request"
    assert "repeats value" in response["error"]
    assert service.stats["tasks_submitted"] == 0


# -- warm-hit integrity and the ledger window ---------------------------------

def test_warm_hit_is_served_from_the_ref_without_reading_the_object(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def main():
        async with _service(tmp_path) as (service, client):
            first = await client.submit("tiny", tenant="alice")
            with monkeypatch.context() as m:
                def no_reads(self, digest):
                    raise AssertionError("warm hit read the artifact")
                m.setattr(RunStore, "get", no_reads)
                second = await client.submit("tiny", tenant="bob")
            assert second["ok"] and second["warm"] == 1
            assert second["tasks"][0]["artifact"] == \
                first["tasks"][0]["artifact"]

    asyncio.run(main())


def test_scrubbed_corrupt_object_is_recomputed_not_served_warm(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def main():
        async with _service(tmp_path) as (service, client):
            first = await client.submit("tiny", tenant="alice")
            artifact = first["tasks"][0]["artifact"]
            service.store.object_path(artifact).write_bytes(b"not json")
            report = scrub_store(service.store)
            assert report["quarantined"] == 1
            second = await client.submit("tiny", tenant="bob")
            assert second["ok"] and second["warm"] == 0
            assert second["tasks"][0]["cached"] is False
            assert second["tasks"][0]["artifact"] == artifact
            assert service.stats["computed"] == 2
            assert service.store.verify() == []

    asyncio.run(main())


def test_ledger_window_equals_the_newest_slice_of_all_jobs(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(ledger_mod, "time", types.SimpleNamespace(
        time=lambda: 1.0))
    service = RunService(ServiceConfig(
        store_dir=tmp_path / "store", source_digest=SRC,
    ))
    store_ref_artifact(
        service.store,
        point_ref_name(get_scenario("tiny").digest(), SRC),
        RunArtifact.from_sweep_point({"duration": 1.0}),
        meta={"source_digest": SRC},
    )
    n_jobs = server_mod.LEDGER_MAX_JOBS + 37
    for i in range(n_jobs):
        assert _admitted(service, tenant=f"t{i}")["ok"]
    assert len(service._jobs) == n_jobs
    service._write_ledger()
    written = service.ledger_path.read_bytes()

    recent = list(service._jobs.values())[-server_mod.LEDGER_MAX_JOBS:]
    service._ledger.items = {j.job_id: j.summary() for j in recent}
    service._ledger.write()
    assert written == service.ledger_path.read_bytes()
    rows = json.loads(written)["jobs"]
    assert len(rows) == server_mod.LEDGER_MAX_JOBS
    assert list(rows)[-1] == f"job-{n_jobs:05d}"
