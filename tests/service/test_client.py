"""Client-side resilience: backoff, liveness probes, reconnection.

The reconnect tests run against a real in-process service (same harness
as test_server) because the once-per-generation rule only matters with
a live socket to tear down and re-dial.
"""

import asyncio
import contextlib
import json
import random
import subprocess
import sys
import time

import pytest

import repro.service.server as server_mod
from repro.service import (
    RunService,
    ServiceClient,
    ServiceConfig,
    StaleDiscoveryError,
    backoff_delay,
    load_discovery,
    pid_alive,
)
from repro.service.server import DISCOVERY_SCHEMA

SRC = "5" * 64


def _fake_point_task(scenario_json):
    spec = json.loads(scenario_json)
    payload = {"scenario": spec.get("name"), "seed": spec.get("seed"),
               "duration": 1.0, "bytes_written": 1000}
    return payload, 0.01, None


@contextlib.asynccontextmanager
async def _service(tmp_path, **overrides):
    config = ServiceConfig(
        store_dir=tmp_path / "store",
        workers=overrides.pop("workers", 1),
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


# -- backoff ------------------------------------------------------------------

def test_backoff_is_deterministic_under_a_fixed_seed():
    a = [backoff_delay(i, rng=random.Random(7)) for i in range(8)]
    b = [backoff_delay(i, rng=random.Random(7)) for i in range(8)]
    assert a == b
    # Distinct seeds jitter differently (with overwhelming probability).
    c = [backoff_delay(i, rng=random.Random(8)) for i in range(8)]
    assert a != c


def test_backoff_grows_exponentially_within_the_jitter_band():
    rng = random.Random(3)
    for attempt in range(10):
        nominal = min(2.0, 0.05 * 2 ** attempt)
        delay = backoff_delay(attempt, rng=rng)
        assert nominal * 0.5 <= delay <= nominal


def test_backoff_without_jitter_is_exactly_capped_exponential():
    assert backoff_delay(0, jitter=0.0) == 0.05
    assert backoff_delay(3, jitter=0.0) == 0.4
    assert backoff_delay(20, jitter=0.0) == 2.0  # capped
    # Huge attempt counts must not overflow the exponent.
    assert backoff_delay(10_000, jitter=0.0) == 2.0


def test_backoff_rejects_negative_attempts():
    with pytest.raises(ValueError):
        backoff_delay(-1)


# -- discovery liveness -------------------------------------------------------

def test_pid_alive_for_own_and_dead_processes():
    import os

    assert pid_alive(os.getpid()) is True
    assert pid_alive(0) is False
    assert pid_alive(-5) is False
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    assert pid_alive(proc.pid) is False


def _discovery_doc(pid):
    return {"schema": DISCOVERY_SCHEMA, "host": "127.0.0.1", "port": 1,
            "pid": pid, "nonce": "feedfacecafebeef"}


def test_stale_discovery_file_is_detected(tmp_path):
    import os

    path = tmp_path / "service.json"
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    path.write_text(json.dumps(_discovery_doc(proc.pid)))
    with pytest.raises(StaleDiscoveryError,
                       match="server not running \\(stale discovery file\\)"):
        load_discovery(path, require_live=True)
    # Without the probe the document still loads (old behavior).
    assert load_discovery(path)["pid"] == proc.pid
    # A live pid passes the probe.
    path.write_text(json.dumps(_discovery_doc(os.getpid())))
    assert load_discovery(path, require_live=True)["pid"] == os.getpid()


def test_live_service_discovery_passes_the_probe(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def main():
        async with _service(tmp_path) as (service, _client):
            doc = load_discovery(service.discovery_path, require_live=True)
            assert doc["port"] == service.port
            assert doc["nonce"] == service.nonce
            pong = await _client.ping()
            assert pong["nonce"] == service.nonce

    asyncio.run(main())


# -- reconnection -------------------------------------------------------------

def test_reconnect_replaces_the_socket_and_requests_flow_again(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def main():
        async with _service(tmp_path) as (service, client):
            first = await client.submit("tiny", tenant="a")
            assert first["ok"]
            await client.reconnect(rng=random.Random(1))
            assert client.reconnects == 1
            second = await client.submit("tiny", tenant="a")
            assert second["ok"] and second["warm"] == 1

    asyncio.run(main())


def test_concurrent_waiters_reconnect_once_per_generation(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def main():
        async with _service(tmp_path) as (service, client):
            generation = client._generation
            await asyncio.gather(*[
                client.reconnect(generation, rng=random.Random(1))
                for _ in range(5)
            ])
            # The first waiter re-dialed; the other four saw the bumped
            # generation and returned without touching the new socket.
            assert client.reconnects == 1
            assert (await client.ping())["ok"]

    asyncio.run(main())


def test_submit_reliable_survives_a_dropped_socket(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def main():
        async with _service(tmp_path) as (service, client):
            first = await client.submit(
                "tiny", tenant="a", idempotency_key="k-1", wait=False,
            )
            # Kill the client's socket out from under it: the next
            # submit fails mid-flight, reconnects, and resubmission with
            # the same key dedups onto the original job.
            client._writer.close()
            doc = await client.submit_reliable(
                "tiny", tenant="a", idempotency_key="k-1",
                rng=random.Random(1),
            )
            assert doc["ok"]
            assert doc["job_id"] == first["job_id"]
            assert doc.get("deduplicated") is True
            assert client.reconnects >= 1
            assert service.stats["jobs_submitted"] == 1

    asyncio.run(main())


def test_responses_share_repeated_keys_and_strings(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "_run_computation_task", _fake_point_task)

    async def main():
        async with _service(tmp_path) as (service, client):
            await client.submit("tiny", tenant="a")
            return [await client.submit("tiny", tenant=t) for t in "bc"]

    first, second = asyncio.run(main())
    assert first["warm"] == second["warm"] == 1
    assert list(first) == list(second)
    assert all(a is b for a, b in zip(first, second))
    assert first["schema"] is second["schema"]
    a, b = first["tasks"][0], second["tasks"][0]
    assert a["digest"] is b["digest"] and a["artifact"] is b["artifact"]
    assert first["tenant"] == "b" and second["tenant"] == "c"
