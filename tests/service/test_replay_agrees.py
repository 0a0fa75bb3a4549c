"""Replay agrees with the live service: what was acked survives a crash.

Each test drives an in-process :class:`RunService` (one worker, a slow
pool task), ends it with :meth:`RunService.abort` -- the kill -9 model
of ``test_recovery.py``: nothing more is journaled, unflushed records
are lost -- and boots a second service over the same directories.  The
restarted service must hold exactly the work the first one had acked.
"""

import asyncio
import json
import time

import repro.service.server as server_mod
from repro.service import JobJournal, RunService, ServiceClient, ServiceConfig
from repro.service.journal import parse_line

SRC = "5" * 64


def _fake_point_task(scenario_json):
    spec = json.loads(scenario_json)
    payload = {"scenario": spec.get("name"), "seed": spec.get("seed"),
               "duration": 1.0, "bytes_written": 1000}
    return payload, 0.01, None


def _slow_point_task(scenario_json):
    time.sleep(1.0)
    return _fake_point_task(scenario_json)


def _seed7_fails_task(scenario_json):
    if json.loads(scenario_json).get("seed") == 7:
        raise ValueError("synthetic task failure")
    return _slow_point_task(scenario_json)


def _config(tmp_path, **overrides):
    return ServiceConfig(
        store_dir=tmp_path / "store", workers=1, source_digest=SRC,
        **overrides,
    )


async def _boot(tmp_path, **overrides):
    service = RunService(_config(tmp_path, **overrides))
    await service.start()
    client = await ServiceClient.connect(service.host, service.port)
    return service, client


async def _crash(service, client):
    await client.close()
    await service.abort()


async def _until_running(client, job_id):
    for _ in range(100):
        if (await client.status(job_id))["state"] == "running":
            return
        await asyncio.sleep(0.02)
    raise AssertionError(f"{job_id} never started")


# -- digest reuse -------------------------------------------------------------

def _resubmit_after_settling(tmp_path, monkeypatch, settle):
    """``settle`` ends the seed-7 computation (cancelled or failed) and
    leaves the worker busy with seed 0; tenant c then submits seed 7
    again.  The old ``complete`` record must not settle c's new
    computation at replay."""
    monkeypatch.setattr(server_mod, "_run_computation_task", _seed7_fails_task)

    async def crash():
        service, client = await _boot(tmp_path)
        await settle(client)
        c = await client.submit("tiny", tenant="c", seed=7, wait=False)
        assert c["ok"] and c["coalesced"] == 0 and c["warm"] == 0
        await _crash(service, client)
        return c["job_id"]

    c_id = asyncio.run(crash())
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def recover():
        service, client = await _boot(tmp_path)
        try:
            assert service.stats["replayed_jobs"] == 2  # seed 0 and c
            doc = await client.wait(c_id)
            assert doc["ok"], doc
            assert doc["state"] == "done"
        finally:
            await client.close()
            await service.stop()

    asyncio.run(recover())


def test_digest_reused_after_a_cancel_is_replayed(tmp_path, monkeypatch):
    async def cancel_queued(client):
        await client.submit("tiny", tenant="a", seed=0, wait=False)
        b = await client.submit("tiny", tenant="b", seed=7, wait=False)
        assert (await client.cancel(job_id=b["job_id"]))["dropped"] == 1

    _resubmit_after_settling(tmp_path, monkeypatch, cancel_queued)


def test_digest_reused_after_a_failure_is_replayed(tmp_path, monkeypatch):
    async def fail(client):
        doc = await client.submit("tiny", tenant="b", seed=7)
        assert doc["state"] == "failed"
        await client.submit("tiny", tenant="a", seed=0, wait=False)

    _resubmit_after_settling(tmp_path, monkeypatch, fail)


# -- cancel with a running slot -----------------------------------------------

def test_sweep_cancelled_while_a_point_runs_survives(tmp_path, monkeypatch):
    """Cancel abandons only queued points: the running point, the job
    and its idempotency key all come back after a crash."""
    monkeypatch.setattr(server_mod, "_run_computation_task", _slow_point_task)

    async def crash():
        service, client = await _boot(tmp_path)
        job = await client.submit("tiny", tenant="a", grid={"n_oss": [2, 4]},
                                  wait=False, idempotency_key="sweep-1")
        await _until_running(client, job["job_id"])
        response = await client.cancel(job_id=job["job_id"])
        assert response["dropped"] == 1
        assert (await client.status(job["job_id"]))["state"] == "running"
        await _crash(service, client)
        return job["job_id"]

    job_id = asyncio.run(crash())
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def recover():
        service, client = await _boot(tmp_path)
        try:
            assert service.stats["replayed_jobs"] == 1
            assert service.stats["replayed"] == 1
            again = await client.submit(
                "tiny", tenant="a", grid={"n_oss": [2, 4]}, wait=False,
                idempotency_key="sweep-1",
            )
            assert again["deduplicated"] is True
            assert again["job_id"] == job_id
            doc = await client.wait(job_id)
            assert [t["state"] for t in doc["tasks"]] == ["done", "cancelled"]
            assert service.stats["computed"] == 1
        finally:
            await client.close()
            await service.stop()

    asyncio.run(recover())


# -- cancel, then compaction --------------------------------------------------

def test_cancel_then_compaction_keeps_the_slot_cancelled(tmp_path, monkeypatch):
    """A sweep cancels out of a queued point tenant c still waits on,
    while its other point runs.  The compaction snapshot must write the
    abandoned slot cancelled, not re-join the sweep to c's computation."""
    monkeypatch.setattr(server_mod, "_run_computation_task", _slow_point_task)

    async def crash():
        service, client = await _boot(tmp_path)
        service._journal.compact_threshold = 1  # compact after every flush
        job = await client.submit("tiny", tenant="a", grid={"n_oss": [2, 4]},
                                  wait=False)
        await _until_running(client, job["job_id"])
        c = await client.submit("tiny", tenant="c", grid={"n_oss": [4]},
                                wait=False)
        assert c["coalesced"] == 1
        before = service._journal.stats["compactions"]
        assert (await client.cancel(job_id=job["job_id"]))["dropped"] == 0
        for _ in range(10):  # the flush that holds the cancel compacts
            if service._journal.stats["compactions"] > before:
                break
            await asyncio.sleep(0.02)
        assert service._journal.stats["compactions"] > before
        await _crash(service, client)
        return job["job_id"], c["job_id"]

    job_id, c_id = asyncio.run(crash())
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def recover():
        service, client = await _boot(tmp_path)
        try:
            assert service.stats["replayed_jobs"] == 2
            assert service.stats["replayed"] == 2
            doc = await client.wait(job_id)
            assert [t["state"] for t in doc["tasks"]] == ["done", "cancelled"]
            assert (await client.wait(c_id))["state"] == "done"
        finally:
            await client.close()
            await service.stop()

    asyncio.run(recover())


# -- cancel durability --------------------------------------------------------

def test_an_acked_cancel_is_on_disk(tmp_path, monkeypatch):
    """A crash right after the cancel's ack (well inside the group-commit
    window) must not bring the dropped computation back."""
    monkeypatch.setattr(server_mod, "_run_computation_task", _slow_point_task)

    async def crash():
        service, client = await _boot(tmp_path, fsync_interval=5.0)
        await client.submit("tiny", tenant="a", seed=0, wait=False)
        b = await client.submit("tiny", tenant="b", seed=7, wait=False)
        assert (await client.cancel(job_id=b["job_id"]))["dropped"] == 1
        await _crash(service, client)
        return b["job_id"]

    b_id = asyncio.run(crash())
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def recover():
        service, client = await _boot(tmp_path)
        try:
            assert service.stats["replayed"] == 1
            assert b_id not in service._jobs
        finally:
            await client.close()
            await service.stop()

    asyncio.run(recover())


# -- journal format -----------------------------------------------------------

#: Field sets of every record kind, as the journal has always written
#: them (``key`` is optional on ``admit``).
RECORD_FIELDS = {
    "admit": {"t", "ts", "job", "tenant", "kind", "submitted", "warm",
              "coalesced", "tasks", "payloads"},
    "start": {"t", "ts", "digest"},
    "complete": {"t", "ts", "digest", "state", "artifact", "error",
                 "seconds", "cached"},
    "cancel": {"t", "ts", "job"},
    "land": {"t", "ts", "job", "run_id"},
    "clean_close": {"t", "ts"},
}
SLOT_FIELDS = ({"name", "digest"}, {"name", "digest", "state", "cached"})


def test_the_service_writes_the_unchanged_record_format(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "_run_computation_task", _slow_point_task)

    async def main():
        service, client = await _boot(tmp_path)
        try:
            await client.submit("tiny", tenant="a", seed=0,
                                idempotency_key="k-0")
            await client.submit("tiny", tenant="b", seed=0)  # warm
            job = await client.submit("tiny", tenant="a", seed=1,
                                      grid={"n_oss": [2, 4]}, wait=False)
            await _until_running(client, job["job_id"])
            # A snapshot with a start record, then a cancel in the tail.
            service._journal.compact(service._state.snapshot())
            await client.cancel(job_id=job["job_id"])
            # The next snapshot writes the abandoned slot inline.
            snapshot = service._state.snapshot()
            await client.wait(job["job_id"])
        finally:
            await client.close()
            await service.stop()
        return snapshot

    snapshot = asyncio.run(main())
    journal_dir = _config(tmp_path).resolved_journal_dir()
    records = [
        parse_line(line)
        for path in sorted(journal_dir.glob("segment-*.ndjson"))
        for line in path.read_bytes().splitlines(keepends=True)
    ]
    assert snapshot[0]["tasks"][1]["state"] == "cancelled"
    kinds = set()
    for rec in records + [dict(rec, ts=0.0) for rec in snapshot]:
        kinds.add(rec["t"])
        assert set(rec) - {"key"} == RECORD_FIELDS[rec["t"]], rec
        for slot in rec.get("tasks", ()):
            assert set(slot) - {"artifact", "error"} in SLOT_FIELDS, slot
    assert kinds == set(RECORD_FIELDS)
    state = JobJournal.replay(journal_dir)
    assert state.clean_close is True
    assert state.live_jobs() == []
