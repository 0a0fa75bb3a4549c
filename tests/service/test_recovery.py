"""Crash recovery: journal replay, restart convergence, kill -9 chaos.

Two layers:

* in-process -- :meth:`RunService.abort` models the kill -9 (nothing
  journaled at teardown, stale discovery left behind), then a second
  service over the same directories replays and converges; fast and
  fully deterministic because the pool task is a module-level double.
* subprocess -- the real ``repro-io serve`` is SIGKILLed mid-burst and
  restarted; every idempotent submission must converge to a warm hit
  and the store must verify clean.  This is the end-to-end guarantee
  the CI ``crash-recovery-smoke`` job re-runs against a longer burst.
"""

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.service.server as server_mod
from repro.service import (
    JobJournal,
    RunService,
    ServiceClient,
    ServiceConfig,
    StaleDiscoveryError,
    load_discovery,
)
from repro.service.client import pid_alive as _pid_exists

SRC = "5" * 64
REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _fake_point_task(scenario_json):
    spec = json.loads(scenario_json)
    payload = {"scenario": spec.get("name"), "seed": spec.get("seed"),
               "duration": 1.0, "bytes_written": 1000}
    return payload, 0.01, None


def _slow_point_task(scenario_json):
    time.sleep(1.0)
    return _fake_point_task(scenario_json)


def _config(tmp_path, **overrides):
    return ServiceConfig(
        store_dir=tmp_path / "store",
        workers=overrides.pop("workers", 1),
        source_digest=overrides.pop("source_digest", SRC),
        **overrides,
    )


# -- in-process abort + restart ----------------------------------------------

def test_abort_and_restart_replays_unfinished_jobs(tmp_path, monkeypatch):
    """Acked-but-unfinished jobs survive a crash: the restarted service
    re-queues them from the journal, finishes them, and the idempotency
    map still dedups resubmissions onto the original job ids."""
    monkeypatch.setattr(server_mod, "_run_computation_task", _slow_point_task)

    async def crash():
        service = RunService(_config(tmp_path))
        await service.start()
        client = await ServiceClient.connect(service.host, service.port)
        docs = [
            await client.submit("tiny", tenant=f"t{i}", seed=i, wait=False,
                                idempotency_key=f"key-{i}")
            for i in range(3)
        ]
        assert all(d["ok"] for d in docs)
        await client.close()
        await service.abort()  # kill -9 semantics: nothing journaled
        return [d["job_id"] for d in docs]

    job_ids = asyncio.run(crash())

    # The crash left the discovery file behind, and it is detectably
    # stale (this process is alive, so probe the doc fields instead).
    doc = load_discovery(tmp_path)
    assert doc["pid"] == os.getpid()

    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def recover():
        service = RunService(_config(tmp_path))
        await service.start()
        assert service.stats["replayed_jobs"] == 3
        assert service.stats["replayed"] == 3
        client = await ServiceClient.connect(service.host, service.port)
        try:
            finished = await asyncio.gather(*[
                client.wait(job_id) for job_id in job_ids
            ])
            assert all(d["state"] == "done" for d in finished)
            # The idempotency key still points at the replayed job.
            again = await client.submit(
                "tiny", tenant="t0", seed=0, idempotency_key="key-0",
            )
            assert again["deduplicated"] is True
            assert again["job_id"] == job_ids[0]
            assert service.store.verify() == []
            assert len(service.store.runs()) == 3
        finally:
            await client.close()
            await service.stop()

    asyncio.run(recover())


def test_clean_shutdown_skips_replay(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def first_life():
        service = RunService(_config(tmp_path))
        await service.start()
        client = await ServiceClient.connect(service.host, service.port)
        doc = await client.submit("tiny", tenant="a")
        assert doc["ok"]
        await client.close()
        await service.stop()

    asyncio.run(first_life())
    state = JobJournal.replay(
        _config(tmp_path).resolved_journal_dir()
    )
    assert state.clean_close is True
    assert state.live_jobs() == []

    async def second_life():
        service = RunService(_config(tmp_path))
        await service.start()
        try:
            assert service.stats["replayed_jobs"] == 0
            assert service.stats["replayed"] == 0
            # Boot compaction folded history into one snapshot segment.
            assert service._journal.stats["segments"] == 1
        finally:
            await service.stop()

    asyncio.run(second_life())


def test_warm_only_jobs_are_never_journaled(tmp_path, monkeypatch):
    """The warm storm must stay fsync-free: a submission answered
    entirely from the store appends nothing to the journal."""
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def main():
        service = RunService(_config(tmp_path))
        await service.start()
        client = await ServiceClient.connect(service.host, service.port)
        try:
            cold = await client.submit("tiny", tenant="a")
            assert cold["ok"] and cold["warm"] == 0
            await service._journal.commit()
            baseline = dict(service._journal.stats)
            for i in range(5):
                warm = await client.submit("tiny", tenant=f"w{i}")
                assert warm["warm"] == 1
            await service._journal.commit()
            assert service._journal.stats["records"] == baseline["records"]
            assert (service._journal.stats["fsync_batches"]
                    == baseline["fsync_batches"])
        finally:
            await client.close()
            await service.stop()

    asyncio.run(main())


# -- subprocess kill -9 chaos -------------------------------------------------

def _child_pids(parent_pid):
    """Live pids whose parent is ``parent_pid`` (the server's pool workers)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # field 4 of /proc/<pid>/stat is ppid; comm (field 2) may contain
        # spaces, so parse from the closing paren.
        if int(stat.rpartition(")")[2].split()[1]) == parent_pid:
            pids.append(int(entry))
    return pids


def _serve_argv(store_dir):
    return [
        sys.executable, "-m", "repro.cli", "serve",
        "--workers", "1", "--port", "0", "--store-dir", str(store_dir),
        "--enable-chaos", "--fsync-interval", "0.01",
    ]


def _wait_for_discovery(state_dir, *, not_pid=None, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            doc = load_discovery(state_dir)
        except (FileNotFoundError, ValueError, json.JSONDecodeError):
            doc = None
        if doc is not None and doc.get("pid") != not_pid:
            return doc
        time.sleep(0.1)
    raise AssertionError("service discovery file never appeared")


@pytest.mark.slow
def test_kill9_midburst_restart_converges(tmp_path):
    """The acceptance chaos case: SIGKILL the real server mid-burst,
    restart it, and every acked job converges with a clean store."""
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    state_dir = tmp_path
    store_dir = tmp_path / "store"
    n = 40

    server = subprocess.Popen(
        _serve_argv(store_dir), env=env, cwd=tmp_path,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        doc = _wait_for_discovery(state_dir)

        async def burst():
            client = await ServiceClient.connect(doc["host"], doc["port"])
            try:
                return await asyncio.gather(*[
                    client.submit("tiny", tenant=f"t{i:02d}", seed=i,
                                  wait=False, idempotency_key=f"ck-{i}")
                    for i in range(n)
                ])
            finally:
                await client.close()

        acked = asyncio.run(burst())
        assert all(d["ok"] for d in acked)

        # The ack means the admission is on disk; now the axe falls.
        workers = _child_pids(server.pid)
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=10)

        with pytest.raises(StaleDiscoveryError):
            load_discovery(state_dir, require_live=True)

        # The pool workers notice the orphaning (parent-death watchdog)
        # and exit on their own -- kill -9 must not leak processes.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            workers = [p for p in workers if _pid_exists(p)]
            if not workers:
                break
            time.sleep(0.2)
        assert not workers, f"orphaned pool worker(s) survived: {workers}"
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    server = subprocess.Popen(
        _serve_argv(store_dir), env=env, cwd=tmp_path,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        doc = _wait_for_discovery(state_dir, not_pid=doc["pid"])

        async def converge():
            client = await ServiceClient.connect(doc["host"], doc["port"])
            try:
                deadline = time.monotonic() + 60.0
                while True:
                    stats = await client.stats()
                    if (stats["queue"] == 0 and stats["running"] == 0
                            and not stats["inflight"]):
                        break
                    assert time.monotonic() < deadline, stats
                    await asyncio.sleep(0.2)
                assert stats["stats"]["replayed"] > 0
                # Every submission of the burst is now warm: nothing was
                # lost, nothing poisoned the cache.
                redo = await asyncio.gather(*[
                    client.submit("tiny", tenant=f"t{i:02d}", seed=i,
                                  idempotency_key=f"rk-{i}")
                    for i in range(n)
                ])
                assert all(d["ok"] and d["state"] == "done" for d in redo)
                assert all(d["warm"] == d["total"] for d in redo)
                await client.shutdown(drain=True)
                return stats
            finally:
                await client.close()

        asyncio.run(converge())
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    from repro.store import RunStore

    assert RunStore(store_dir).verify() == []
    state = JobJournal.replay(state_dir / "service-journal")
    assert state.clean_close is True
    assert state.live_jobs() == []
